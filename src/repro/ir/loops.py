"""Natural-loop detection and preheader insertion.

A back edge is an edge ``t -> h`` where ``h`` dominates ``t``; the natural
loop of the back edge is ``h`` plus every block that can reach ``t``
without passing through ``h``.  Loops sharing a header are merged.  The
unroller, LICM, strength reduction and the prefetcher all operate on these
loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.ir.cfg import predecessors, successors
from repro.ir.dominators import immediate_dominators
from repro.ir.function import Function
from repro.ir.instructions import Jump


@dataclass
class Loop:
    """One natural loop."""

    header: str
    #: All block labels in the loop, including the header.
    body: Set[str]
    #: Sources of back edges into the header.
    latches: List[str]
    #: The unique preheader label, if one exists / has been created.
    preheader: Optional[str] = None
    #: Loops strictly nested inside this one.
    children: List["Loop"] = field(default_factory=list)
    parent: Optional["Loop"] = None

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def body_in_layout_order(self, func: Function) -> List[str]:
        """Loop-body labels in the function's block layout order.

        ``body`` is a set of strings, so iterating it directly follows
        string-hash order — which varies with ``PYTHONHASHSEED`` across
        processes.  Any pass whose *emitted code order* depends on the
        visit order must use this instead, or the same point measures
        differently in different processes (breaking the batch backend's
        serial/parallel bit-identity and the cross-process cache).
        """
        return [b.label for b in func.blocks if b.label in self.body]

    def exits(self, func: Function) -> List[str]:
        """Labels of blocks outside the loop targeted from inside."""
        succ = successors(func)
        out: List[str] = []
        for label in self.body_in_layout_order(func):
            for s in succ[label]:
                if s not in self.body and s not in out:
                    out.append(s)
        return out


def _loop_body(header: str, latch: str, preds: Dict[str, List[str]]) -> Set[str]:
    body = {header, latch}
    stack = [latch]
    while stack:
        label = stack.pop()
        if label == header:
            continue
        for p in preds[label]:
            if p not in body:
                body.add(p)
                stack.append(p)
    return body


def natural_loops(func: Function) -> List[Loop]:
    """All natural loops, with the nesting forest populated.

    Returned in outermost-first order.
    """
    idom = immediate_dominators(func)
    preds = predecessors(func)
    succ = successors(func)

    def dominates(a: str, b: str) -> bool:
        if b not in idom:
            return False  # unreachable block: no dominance facts
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            node = idom.get(node)
        return False

    by_header: Dict[str, Loop] = {}
    for block in func.blocks:
        if block.label not in idom:
            continue  # unreachable code cannot form loops we care about
        for target in succ[block.label]:
            if dominates(target, block.label):
                body = _loop_body(target, block.label, preds)
                if target in by_header:
                    by_header[target].body |= body
                    by_header[target].latches.append(block.label)
                else:
                    by_header[target] = Loop(
                        header=target, body=body, latches=[block.label]
                    )

    loops = list(by_header.values())
    # Establish nesting: loop A is inside B iff A's header is in B's body
    # and A != B; parent is the smallest enclosing loop.
    for loop in loops:
        enclosing = [
            other
            for other in loops
            if other is not loop and loop.header in other.body
        ]
        if enclosing:
            loop.parent = min(enclosing, key=lambda l: len(l.body))
            loop.parent.children.append(loop)
    loops.sort(key=lambda l: l.depth)
    return loops


def loop_depths(func: Function) -> Dict[str, int]:
    """Each block's loop nesting depth (0 outside every loop)."""
    depth = {b.label: 0 for b in func.blocks}
    for loop in natural_loops(func):
        for label in loop.body:
            depth[label] = max(depth[label], loop.depth)
    return depth


def ensure_preheader(func: Function, loop: Loop) -> str:
    """Guarantee the loop has a dedicated preheader block; return its label.

    A preheader is the unique out-of-loop predecessor of the header and
    falls through to it.  If the header has multiple outside predecessors
    (or the predecessor has other successors), a fresh block is inserted
    and all outside edges are redirected to it.
    """
    preds = predecessors(func)
    outside = [p for p in preds[loop.header] if p not in loop.body]
    if len(outside) == 1:
        candidate = func.block(outside[0])
        if candidate.terminator.targets() == [loop.header]:
            loop.preheader = candidate.label
            return candidate.label

    pre = func.new_block("pre")
    pre.set_terminator(Jump(loop.header))
    for label in outside:
        block = func.block(label)
        block.set_terminator(
            block.terminator.retarget({loop.header: pre.label})
        )
    # Keep layout sensible: place the preheader right before the header.
    func.blocks.remove(pre)
    header_pos = func.blocks.index(func.block(loop.header))
    func.blocks.insert(header_pos, pre)
    loop.preheader = pre.label
    return pre.label
