"""-freorder-blocks: code layout to reduce taken branches.

Two cooperating transformations:

* **chain formation** -- a greedy bottom-up layout that walks the CFG from
  the entry, always placing the *likely* successor next so it becomes the
  fall-through.  Without profile data, likelihood follows the classic
  static heuristics: the back-edge / stay-in-loop successor of a branch
  is likely; a loop-exit successor is unlikely.

* **branch polarity fixing** -- after layout, a conditional branch whose
  then-target is the fall-through but whose else-target is far away costs
  nothing extra; one whose *else*-target is the fall-through is rewritten
  by inverting the condition's comparison when cheap, so the frequent arm
  falls through.

The simulator charges taken control transfers a fetch-redirect bubble, so
layout quality is directly visible in cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.static import remarks
from repro.ir import Branch, Cmp, Function, Jump, Module, Temp
from repro.ir.cfg import predecessors, successors
from repro.ir.dataflow import def_use_counts
from repro.ir.loops import loop_depths

_INVERSE_CMP = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "gt": "le", "le": "gt"}


def _likely_successor(
    label: str,
    succs: List[str],
    depth: Dict[str, int],
    edge_weight=None,
) -> Optional[str]:
    """Which successor execution probably continues into.

    With a profile (``edge_weight(src, dst) -> count``), the hottest
    edge wins; otherwise the classic static heuristic applies: prefer
    staying at (or entering) deeper loop nesting, since the loop-exit
    arm is the unlikely one.
    """
    if not succs:
        return None
    if len(succs) == 1:
        return succs[0]
    if edge_weight is not None:
        weights = {s: edge_weight(label, s) for s in succs}
        if any(w > 0 for w in weights.values()):
            return max(succs, key=lambda s: weights[s])
    return max(succs, key=lambda s: depth.get(s, 0))


def reorder_blocks(module: Module, config=None, profile=None) -> int:
    """Lay out each function's blocks along likely chains.

    ``profile`` is an optional :class:`repro.ir.interp.EdgeProfile`; when
    present, layout follows measured edge frequencies instead of static
    heuristics (profile-guided layout).
    """
    changed = 0
    for func in module.functions.values():
        edge_weight = None
        if profile is not None:
            name = func.name

            def edge_weight(src, dst, _name=name):
                return profile.edge_count(_name, src, dst)

        changed += _reorder_function(func, edge_weight)
    return changed


def _reorder_function(func: Function, edge_weight=None) -> int:
    succ = successors(func)
    depth = loop_depths(func)
    placed: Set[str] = set()
    order: List[str] = []

    # Seed chains from the entry, then from any unplaced block, hottest
    # first so loop bodies stay contiguous.
    seeds = [func.entry.label] + sorted(
        (b.label for b in func.blocks), key=lambda l: -depth.get(l, 0)
    )
    for seed in seeds:
        label: Optional[str] = seed
        while label is not None and label not in placed:
            placed.add(label)
            order.append(label)
            nxt = _likely_successor(
                label,
                [s for s in succ[label] if s not in placed],
                depth,
                edge_weight,
            )
            label = nxt

    old_order = [b.label for b in func.blocks]
    func.blocks = [func.block(label) for label in order]
    func.reindex()
    moved = int(order != old_order)
    fixed = _fix_branch_polarity(func)
    if remarks.enabled():
        if moved or fixed:
            remarks.emit(
                "reorder",
                "fired",
                func.name,
                func.entry.label,
                f"relaid out blocks (moved={moved});"
                f" inverted {fixed} branch(es) for fall-through",
                benefit=float(moved + fixed),
                moved=moved,
                inverted=fixed,
            )
        else:
            remarks.emit(
                "reorder",
                "declined",
                func.name,
                func.entry.label,
                "layout already follows likely chains",
            )
    return moved + fixed


def _fix_branch_polarity(func: Function) -> int:
    """Invert branches whose unlikely arm is the fall-through."""
    defs, uses = def_use_counts(func)
    position = {b.label: i for i, b in enumerate(func.blocks)}
    fixed = 0
    for i, block in enumerate(func.blocks):
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        fallthrough = (
            func.blocks[i + 1].label if i + 1 < len(func.blocks) else None
        )
        if term.then_target != fallthrough or term.else_target == fallthrough:
            continue
        # then-arm is the fall-through: invert so the branch is taken only
        # on the (presumably unlikely) else path...  but only when the
        # condition is a comparison used solely by this branch, so
        # inverting cannot perturb other users.
        cond = term.cond
        if not isinstance(cond, Temp):
            continue
        if defs.get(cond, 0) != 1 or uses.get(cond, 0) != 1:
            continue
        cmp_instr = None
        for instr in reversed(block.instrs):
            if instr.defs() == cond:
                if isinstance(instr, Cmp) and instr.op in _INVERSE_CMP:
                    cmp_instr = instr
                break
        if cmp_instr is None:
            continue
        cmp_instr.op = _INVERSE_CMP[cmp_instr.op]
        block.set_terminator(
            Branch(cond, term.else_target, term.then_target)
        )
        fixed += 1
    return fixed
