"""-finline-functions: function inlining.

Heuristics (Table 1, rows 10-12), mirroring gcc's:

* ``max_inline_insns_auto`` -- a callee larger than this is never inlined.
* ``inline_call_cost`` -- the perceived overhead of a call, in simple
  instructions; callees no larger than a small multiple of it are always
  considered beneficial, and larger ones only when they fit the insns
  budget (a higher call cost makes more sites look profitable).
* ``inline_unit_growth`` -- hard cap, in percent, on how much the whole
  compilation unit may grow.

Call sites are ranked hottest-first (loop depth as the static frequency
proxy, like gcc without profile data) and inlined until the growth budget
runs out.  Recursive functions and indirect effects are left alone.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir import (
    BasicBlock,
    Call,
    Copy,
    Function,
    Jump,
    Module,
    Return,
    Temp,
)
from repro.analysis.static import remarks
from repro.ir.callgraph import build_callgraph
from repro.ir.loops import loop_depths
from repro.opt.flags import CompilerConfig


@dataclass
class _Site:
    caller: str
    block_label: str
    instr_index: int
    callee: str
    loop_depth: int
    callee_size: int


def _collect_sites(module: Module, config: CompilerConfig) -> List[_Site]:
    graph = build_callgraph(module)
    sites: List[_Site] = []
    for func in module.functions.values():
        depths = loop_depths(func)
        for block in func.blocks:
            for i, instr in enumerate(block.instrs):
                if not isinstance(instr, Call):
                    continue
                callee = module.functions.get(instr.callee)
                if callee is None or graph.is_recursive(instr.callee):
                    continue
                if instr.callee == func.name:
                    continue
                sites.append(
                    _Site(
                        caller=func.name,
                        block_label=block.label,
                        instr_index=i,
                        callee=instr.callee,
                        loop_depth=depths[block.label],
                        callee_size=callee.instruction_count(),
                    )
                )
    return sites


def inline_eligible(callee_size: int, config: CompilerConfig) -> bool:
    """Whether a callee of ``callee_size`` instructions may be inlined
    (the static cost model re-decides sites with this rule too)."""
    # Trivially small callees are always beneficial: the body is barely
    # bigger than the call overhead itself.
    if callee_size <= 3 * config.inline_call_cost:
        return True
    return callee_size <= config.max_inline_insns_auto


def _inline_at(
    caller: Function, block: BasicBlock, index: int, callee: Function
) -> None:
    """Splice a copy of ``callee`` in place of the call instruction."""
    call = block.instrs[index]
    assert isinstance(call, Call) and call.callee == callee.name

    # Split the caller block after the call.
    tail = BasicBlock(caller.fresh_label(f"ret_{callee.name}_"))
    tail.instrs = block.instrs[index + 1 :]
    tail.terminator = block.terminator
    block.instrs = block.instrs[:index]
    block.terminator = None
    insert_pos = caller.blocks.index(block) + 1
    caller.blocks.insert(insert_pos, tail)
    caller.reindex()

    # Clone callee blocks with fresh labels and renamed temps.
    label_map = {
        b.label: caller.fresh_label(f"in_{callee.name}_") for b in callee.blocks
    }
    # Pre-register labels so fresh_label cannot collide between clones.
    clones: List[BasicBlock] = []
    temp_map: Dict[Temp, Temp] = {}

    def map_temp(t: Temp) -> Temp:
        if t not in temp_map:
            temp_map[t] = caller.new_temp(t.type, hint=f"i_{t.name}_")
        return temp_map[t]

    # Bind parameters to argument values.
    for param, arg in zip(callee.params, call.args):
        block.append(Copy(map_temp(param), arg))

    for src in callee.blocks:
        clone = BasicBlock(label_map[src.label])
        for instr in src.instrs:
            mapping = {
                u: map_temp(u)
                for u in instr.uses()
                if isinstance(u, Temp)
            }
            new_instr = instr.replace_uses(mapping)
            if new_instr is instr:
                # replace_uses returned the original (no operands to
                # substitute); copy before mutating so the callee's own
                # body is never touched.
                new_instr = copy.copy(instr)
            d = new_instr.defs()
            if d is not None:
                new_instr.dst = map_temp(d)
            clone.instrs.append(new_instr)
        term = src.terminator
        if isinstance(term, Return):
            if term.value is not None and call.dst is not None:
                value = term.value
                if isinstance(value, Temp):
                    value = map_temp(value)
                clone.instrs.append(Copy(call.dst, value))
            clone.set_terminator(Jump(tail.label))
        else:
            mapping = {
                u: map_temp(u) for u in term.uses() if isinstance(u, Temp)
            }
            term2 = term.replace_uses(mapping)
            term2 = term2.retarget(label_map)
            clone.set_terminator(term2)
        clones.append(clone)

    # Wire the call block to the cloned entry and lay the clones out
    # between the split halves.
    block.set_terminator(Jump(label_map[callee.entry.label]))
    pos = caller.blocks.index(tail)
    for offset, clone in enumerate(clones):
        caller.blocks.insert(pos + offset, clone)
    caller.reindex()


def inline_functions(module: Module, config: CompilerConfig) -> int:
    """Inline eligible call sites; returns the number of sites inlined.

    The unit-growth budget is measured against the module size at entry
    to the pass.
    """
    base_size = module.instruction_count()
    budget = base_size * (1.0 + config.inline_unit_growth / 100.0)
    inlined = 0
    # Repeat so call sites exposed by inlining (callee bodies containing
    # calls) are considered too; bounded to avoid pathological growth.
    for round_idx in range(4):
        sites = []
        for s in _collect_sites(module, config):
            if inline_eligible(s.callee_size, config):
                sites.append(s)
            elif round_idx == 0:
                remarks.emit(
                    "inline",
                    "declined",
                    s.caller,
                    s.block_label,
                    f"callee {s.callee} too large"
                    f" ({s.callee_size} insns)",
                    callee=s.callee,
                    size=s.callee_size,
                    depth=s.loop_depth,
                )
        if not sites:
            break
        # Hottest (deepest loop) first, then smallest callee.
        sites.sort(key=lambda s: (-s.loop_depth, s.callee_size))
        progress = False
        current = module.instruction_count()
        for site in sites:
            callee = module.functions[site.callee]
            growth = callee.instruction_count()
            if current + growth > budget:
                if round_idx == 0:
                    remarks.emit(
                        "inline",
                        "declined",
                        site.caller,
                        site.block_label,
                        f"unit-growth budget exhausted for {site.callee}"
                        f" ({growth} insns)",
                        callee=site.callee,
                        size=growth,
                        depth=site.loop_depth,
                    )
                continue
            caller = module.functions[site.caller]
            if not caller.has_block(site.block_label):
                continue  # invalidated by an earlier inline this round
            block = caller.block(site.block_label)
            if (
                site.instr_index >= len(block.instrs)
                or not isinstance(block.instrs[site.instr_index], Call)
                or block.instrs[site.instr_index].callee != site.callee
            ):
                continue  # stale site
            _inline_at(caller, block, site.instr_index, callee)
            remarks.emit(
                "inline",
                "fired",
                site.caller,
                site.block_label,
                f"inlined {site.callee} ({growth} insns)",
                benefit=2.0 * remarks.depth_freq(site.loop_depth),
                callee=site.callee,
                size=growth,
                n_args=len(callee.params),
                depth=site.loop_depth,
            )
            current += growth
            inlined += 1
            progress = True
        if not progress:
            break
    return inlined
