"""-funroll-loops: runtime loop unrolling with a remainder loop.

Handles counted loops whose trip count is computable *at loop entry*
(gcc's wording for -funroll-loops): a header test ``cmp(iv, bound)``
feeding the exit branch, a single latch carrying ``iv += step``, and no
other exits.  The loop is rewritten as

    preheader -> H' (guard: >= u iterations left?) -> B1 B2 ... Bu -> H'
                   \\-> H (original loop, serves as the remainder)

where the guard compares against ``bound - (u-1)*step``, the unrolled
body is ``u`` clones of the original body (each containing the IV
update), and the untouched original loop mops up the leftover iterations.

Heuristics (Table 1, rows 13-14): a loop qualifies when its size is at
most ``max_unrolled_insns``; the unroll factor (:func:`unroll_factor`)
is ``min(max_unroll_times, max(2, max_unrolled_insns // size))``.

Only innermost loops are unrolled.  Cloned blocks reuse the original
virtual registers (the IR is not SSA), so unrolling lengthens live ranges
and raises register pressure -- the effect behind the paper's Figure 3.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ir import (
    Addr,
    BasicBlock,
    BinOp,
    Branch,
    Call,
    Cmp,
    Function,
    Jump,
    Load,
    Module,
    Temp,
)
from repro.analysis.static import remarks
from repro.ir.dataflow import liveness
from repro.ir.instructions import Instr, Terminator
from repro.ir.loops import Loop, ensure_preheader, natural_loops
from repro.ir.types import Type
from repro.ir.values import Const, Value
from repro.opt.flags import CompilerConfig
from repro.opt.loopopt import loop_memory_summary
from repro.opt.strength import BasicIV, find_basic_ivs


def clone_instruction(instr: Instr) -> Instr:
    """A safely mutable copy of an instruction."""
    clone = copy.copy(instr)
    if isinstance(clone, Call):
        clone.args = list(clone.args)
    return clone


@dataclass
class _CountedLoop:
    loop: Loop
    iv: BasicIV
    #: Index in the header of the Cmp feeding the exit branch.
    cmp_index: int
    #: True if the IV is the first operand of the comparison.
    iv_is_left: bool
    #: The loop-continuation target and the exit target of the header branch.
    body_entry: str
    exit_target: str


def _analyze_counted_loop(
    func: Function, loop: Loop
) -> Tuple[Optional[_CountedLoop], str]:
    """Analyze a loop for unrolling; returns (info, decline-reason).

    Exactly one of the pair is meaningful: ``info`` is None iff the
    loop is not unrollable, and then the reason says why (surfaced
    through optimization remarks).
    """
    if loop.children:
        return None, "not innermost"
    if len(loop.latches) != 1:
        return None, "multiple latches"
    header = func.block(loop.header)
    term = header.terminator
    if not isinstance(term, Branch):
        return None, "header does not end in a conditional branch"
    # Exactly one target inside the loop, one outside.
    then_in = term.then_target in loop.body
    else_in = term.else_target in loop.body
    if then_in == else_in:
        return None, "header branch is not a loop exit"
    if not then_in:
        # Expect the fallthrough-into-body shape from lowering.
        return None, "exit on the fall-through arm"
    body_entry, exit_target = term.then_target, term.else_target
    # The header is cloned into the unrolled-loop guard, which runs once
    # per *unrolled* iteration instead of once per original iteration, so
    # it must be side-effect free and its loads must not alias any store
    # in the loop (otherwise the guard would test a stale bound).
    stored, unknown_stores = loop_memory_summary(func, loop)
    addr_of: Dict[Temp, str] = {}
    for b in func.blocks:
        for ins in b.instrs:
            if isinstance(ins, Addr):
                addr_of[ins.dst] = ins.symbol
    for instr in header.instrs:
        if instr.has_side_effects:
            return None, "header has side effects"
        if isinstance(instr, Load):
            if unknown_stores:
                return None, "header load vs unknown stores in loop"
            if not isinstance(instr.base, Temp) or instr.base not in addr_of:
                return None, "header load from unresolved address"
            if addr_of[instr.base] in stored:
                return None, "header load aliases a store in the loop"
    # No exits from non-header blocks.
    for label in loop.body:
        if label == loop.header:
            continue
        block = func.block(label)
        targets = block.terminator.targets()
        if not targets:  # Return inside the loop
            return None, "return inside the loop body"
        if any(t not in loop.body for t in targets):
            return None, "exit from a non-header block"
    # Find the comparison defining the branch condition: the last def of
    # the cond temp in the header must be a Cmp.
    cond = term.cond
    if not isinstance(cond, Temp):
        return None, "branch condition is not a temp"
    cmp_index = None
    for i in range(len(header.instrs) - 1, -1, -1):
        instr = header.instrs[i]
        if instr.defs() == cond:
            if isinstance(instr, Cmp):
                cmp_index = i
            break
    if cmp_index is None:
        return None, "no comparison defines the exit condition"
    cmp = header.instrs[cmp_index]
    if cmp.op not in ("lt", "le", "gt", "ge"):
        return None, f"exit comparison {cmp.op!r} is not an ordering"

    ivs = {iv.temp: iv for iv in find_basic_ivs(func, loop)}
    iv = None
    iv_is_left = True
    if isinstance(cmp.a, Temp) and cmp.a in ivs and cmp.a.type is Type.INT:
        iv = ivs[cmp.a]
        iv_is_left = True
        bound = cmp.b
    elif isinstance(cmp.b, Temp) and cmp.b in ivs and cmp.b.type is Type.INT:
        iv = ivs[cmp.b]
        iv_is_left = False
        bound = cmp.a
    if iv is None:
        return None, "no basic induction variable in the exit test"
    # The bound operand must not be the IV itself and must be an int.
    if isinstance(bound, Temp) and bound.type is not Type.INT:
        return None, "loop bound is not an integer"
    # Direction consistency: the loop must move the IV toward the exit.
    continues_while_small = (cmp.op in ("lt", "le")) == iv_is_left
    if continues_while_small and iv.step <= 0:
        return None, "induction variable steps away from the bound"
    if not continues_while_small and iv.step >= 0:
        return None, "induction variable steps away from the bound"
    # The IV must not be updated in the header (update lives in the latch;
    # if latch == header the update must come after the comparison).
    if iv.latch_label == loop.header and iv.update_index < cmp_index:
        return None, "induction variable updated before the exit test"
    counted = _CountedLoop(
        loop, iv, cmp_index, iv_is_left, body_entry, exit_target
    )
    return counted, ""


def _loop_size(func: Function, loop: Loop) -> int:
    return sum(
        len(func.block(label).instrs) + 1 for label in loop.body
    )


def unroll_factor(size: int, config: CompilerConfig) -> int:
    """The unroll factor for a loop body of ``size`` instructions (the
    static cost model re-decides loops with this rule too)."""
    return min(
        config.max_unroll_times,
        max(2, config.max_unrolled_insns // max(size, 1)),
    )


def _clone_blocks(
    func: Function,
    labels: List[str],
    suffix: str,
    rename: Optional[Set[Temp]] = None,
) -> Dict[str, BasicBlock]:
    """Clone blocks with fresh labels; returns old->new block map.

    Internal edges are rewired to the clones; edges leaving ``labels``
    are preserved.  Temps in ``rename`` (those whose live range is
    contained within one iteration) get fresh names in the clone --
    iteration-private renaming, which lets the pre-RA scheduler overlap
    copies and is what turns deep unrolling into register pressure.
    """
    label_map = {label: func.fresh_label(f"u{suffix}_") for label in labels}
    temp_map: Dict[Temp, Temp] = {}

    def mapped(t: Temp) -> Temp:
        if rename is None or t not in rename:
            return t
        if t not in temp_map:
            temp_map[t] = func.new_temp(t.type, hint=f"u{suffix}_{t.name}_")
        return temp_map[t]

    clones: Dict[str, BasicBlock] = {}
    for label in labels:
        src = func.block(label)
        clone = BasicBlock(label_map[label])
        for instr in src.instrs:
            mapping = {
                u: mapped(u)
                for u in instr.uses()
                if isinstance(u, Temp) and rename and u in rename
            }
            new_instr = instr.replace_uses(mapping)
            if new_instr is instr:
                new_instr = clone_instruction(instr)
            elif isinstance(new_instr, Call):
                new_instr.args = list(new_instr.args)
            d = new_instr.defs()
            if d is not None and rename and d in rename:
                new_instr.dst = mapped(d)
            clone.instrs.append(new_instr)
        term = copy.copy(src.terminator)
        if rename:
            term_mapping = {
                u: mapped(u)
                for u in term.uses()
                if isinstance(u, Temp) and u in rename
            }
            if term_mapping:
                term = term.replace_uses(term_mapping)
        clone.set_terminator(term.retarget(label_map))
        clones[label] = clone
        # Register the label immediately so fresh_label stays unique.
        func.add_block(clone)
    return clones


def unroll_loops(module: Module, config: CompilerConfig) -> int:
    """Unroll eligible innermost loops; returns the number unrolled."""
    total = 0
    for func in module.functions.values():
        # Headers already handled: both the remainder loop (which keeps
        # the original header) and the new guard loop must not be
        # re-unrolled on the next analysis round.
        processed: Set[str] = set()
        # Headers whose decline has already been remarked (the analysis
        # reruns every round, so without this a stable decline would be
        # reported up to 32 times).
        reported: Set[str] = set()

        def decline(loop: Loop, reason: str, **details: object) -> None:
            if loop.header in reported:
                return
            reported.add(loop.header)
            remarks.emit(
                "unroll",
                "declined",
                func.name,
                loop.header,
                reason,
                depth=loop.depth,
                **details,
            )

        # Re-analyze after each unroll: the CFG changes under us.
        for _ in range(32):
            done = True
            for loop in natural_loops(func):
                if loop.header in processed:
                    continue
                counted, reason = _analyze_counted_loop(func, loop)
                if counted is None:
                    if remarks.enabled():
                        decline(loop, reason)
                    continue
                size = _loop_size(func, loop)
                if size > config.max_unrolled_insns:
                    if remarks.enabled():
                        decline(
                            loop,
                            f"loop too large ({size} >"
                            f" {config.max_unrolled_insns} insns)",
                            size=size,
                        )
                    continue
                factor = unroll_factor(size, config)
                if factor < 2:
                    if remarks.enabled():
                        decline(
                            loop,
                            f"max_unroll_times {config.max_unroll_times}"
                            " allows no unrolling",
                            size=size,
                        )
                    continue
                guard_label = _unroll_one(func, counted, factor)
                if guard_label is not None:
                    processed.add(loop.header)
                    processed.add(guard_label)
                    remarks.emit(
                        "unroll",
                        "fired",
                        func.name,
                        loop.header,
                        f"unrolled by {factor}x ({size} insns/iteration)",
                        benefit=factor * remarks.depth_freq(loop.depth) / 4.0,
                        factor=factor,
                        size=size,
                        depth=loop.depth,
                    )
                    total += 1
                    done = False
                    break  # loop structures are stale; re-analyze
                elif remarks.enabled():
                    decline(loop, "self-loop body cannot be cloned")
            if done:
                break
    return total


def _unroll_one(
    func: Function, counted: _CountedLoop, factor: int
) -> Optional[str]:
    """Unroll one loop; returns the guard-loop header label, or None."""
    loop = counted.loop
    iv = counted.iv
    header = func.block(loop.header)

    pre_label = ensure_preheader(func, loop)

    # Iteration-private temps: defined in the body but not live across
    # the iteration boundary (not live into the body from the header and
    # not live out of the latch).  These are safe to rename per clone.
    # (Computed now, while every block still has a terminator.)
    live = liveness(func)
    boundary: Set[Temp] = set(live.live_in[counted.body_entry])
    boundary |= live.live_out[iv.latch_label]

    # --- Build the unrolled-loop header H2: a clone of H whose
    # comparison is tightened by (factor-1)*step on the bound side.
    h2 = BasicBlock(func.fresh_label("uh_"))
    h2.instrs = [clone_instruction(i) for i in header.instrs]
    cmp = h2.instrs[counted.cmp_index]
    adjust = (factor - 1) * iv.step
    bound_adj = func.new_temp(Type.INT, hint="ubound")
    bound_operand = cmp.b if counted.iv_is_left else cmp.a
    h2.instrs.insert(
        counted.cmp_index,
        BinOp(bound_adj, "sub", bound_operand, Const(adjust, Type.INT)),
    )
    cmp = h2.instrs[counted.cmp_index + 1]
    if counted.iv_is_left:
        cmp.b = bound_adj
    else:
        cmp.a = bound_adj
    func.add_block(h2)

    # --- Clone the loop body (all blocks except the header) factor times.
    body_labels = [
        b.label for b in func.blocks if b.label in loop.body and b.label != loop.header
    ]
    if not body_labels:
        # Self-loop: the header is also the body; unroll by cloning the
        # header's straight-line part is not supported.
        func.remove_block(h2.label)
        return None

    body_defs: Set[Temp] = set()
    for label in body_labels:
        for instr in func.block(label).all_instrs():
            d = instr.defs()
            if d is not None:
                body_defs.add(d)
    rename = body_defs - boundary

    clone_maps: List[Dict[str, BasicBlock]] = []
    for k in range(factor):
        clone_maps.append(_clone_blocks(func, body_labels, str(k), rename))

    # Wire copy k's back edge (latch -> header) to copy k+1's entry;
    # the last copy loops back to H2.
    for k in range(factor):
        latch_clone = clone_maps[k][counted.iv.latch_label]
        if k + 1 < factor:
            next_entry = clone_maps[k + 1][counted.body_entry].label
        else:
            next_entry = h2.label
        latch_clone.set_terminator(
            latch_clone.terminator.retarget({loop.header: next_entry})
        )

    # H2 branches into the first copy, or falls back to the original
    # (remainder) loop header.
    h2.set_terminator(
        Branch(
            header.terminator.cond,
            clone_maps[0][counted.body_entry].label,
            loop.header,
        )
    )

    # Preheader now enters through H2.
    pre = func.block(pre_label)
    pre.set_terminator(pre.terminator.retarget({loop.header: h2.label}))

    # --- Layout: place H2 and the clones just before the remainder loop.
    new_labels = [h2.label] + [
        clone_maps[k][label].label for k in range(factor) for label in body_labels
    ]
    new_blocks = [func.block(l) for l in new_labels]
    for b in new_blocks:
        func.blocks.remove(b)
    header_pos = func.blocks.index(header)
    for offset, b in enumerate(new_blocks):
        func.blocks.insert(header_pos + offset, b)
    func.reindex()
    return h2.label
