"""Flat-array trace representation and per-executable static tables.

The per-event simulator loops (:mod:`repro.sim.ooo`) used to chase
attributes per instruction: ``trace[i]`` tuple unpacking, ``cls_tab[pc]``
table lookups, ``TEXT_BASE + pc * INSTR_BYTES`` arithmetic, block-index
divisions.  This module hoists all of that into numpy-precomputed flat
tables built once per (executable, trace) and reused across every SMARTS
window and every microarchitecture sharing the trace:

* :class:`PackedTrace` -- the dynamic trace as two parallel numpy arrays
  (``pcs``, ``eas``).  :func:`repro.sim.func.execute` returns its trace
  in this form.  It behaves as a sequence of
  ``(pc, ea)`` tuples, so existing consumers (``instruction_mix``,
  ``detailed_statistics``, tests) keep working unchanged.
* :class:`TraceTables` -- per-position pcs, addresses and branch
  outcomes, per-``issue_width`` op records (the timing loop's view of
  each instruction), plus per-``block_size`` instruction-block ids and
  the merged *event list* (positions where the cache/predictor kernel
  must touch a cache, the predictor, the BTB or the RAS -- everything
  else is skipped entirely).

Tables are attached to the ``Executable`` object (``_repro_*``
attributes), so they live and die with the binary+trace cache entry in
:class:`repro.harness.measure.MeasurementEngine` and are shared by every
``OooTimingModel`` built on the same binary.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.codegen.isa import OpClass, RA, ZERO
from repro.codegen.linker import Executable, INSTR_BYTES, TEXT_BASE

# Class codes shared with repro.sim.ooo (indexable, faster than Enum).
# The memory classes come last, so one compare sends every other class
# to its plain latency in the timing loop.
IALU, IMULT, FPALU, FPMULT, BRANCH, JUMP, CALL, RET, NOP, LOAD, STORE, PF = range(12)

CLASS_CODE = {
    OpClass.IALU: IALU,
    OpClass.IMULT: IMULT,
    OpClass.FPALU: FPALU,
    OpClass.FPMULT: FPMULT,
    OpClass.LOAD: LOAD,
    OpClass.STORE: STORE,
    OpClass.BRANCH: BRANCH,
    OpClass.JUMP: JUMP,
    OpClass.CALL: CALL,
    OpClass.RET: RET,
    OpClass.PREFETCH: PF,
    OpClass.NOP: NOP,
}

#: Register slots of the timing loop's readiness table.  Registers are
#: 0-63; an absent source reads ``NO_SRC``, which nothing writes, so it
#: is ready at cycle 0, and an absent destination writes ``NO_DST``,
#: which nothing reads.
NO_SRC, NO_DST = 64, 65
N_REG_SLOTS = 66

#: ``(class code, source, source, destination, latency)``.
OpRecord = Tuple[int, int, int, int, int]

#: Event kinds (ordered: the instruction-block event of a position must
#: be processed before the same position's data/control event).  Loads,
#: stores and prefetches are all ``EV_DATA``.
EV_INST, EV_DATA, EV_BRANCH, EV_CALL, EV_RET, EV_JUMP = range(6)


def op_record(instr, mdesc) -> OpRecord:
    """The timing loop's view of one instruction on one machine.

    Sources exclude ``r0`` (hardwired zero, never waited on); a call
    writes the return-address register.  Raises ``ValueError`` for a
    register id outside 0-63 or for more than two sources, which the
    loop's two source slots and spare register slots cannot represent.
    """
    code = CLASS_CODE[instr.op_class]
    srcs = [r for r in instr.srcs if r != ZERO]
    dst = RA if code == CALL else instr.dst
    if len(srcs) > 2:
        raise ValueError(f"{instr.op} reads more than two registers: {srcs}")
    regs = srcs if dst is None else srcs + [dst]
    if not all(0 <= r < NO_SRC for r in regs):
        raise ValueError(f"{instr.op}: a register id in {regs} is not in 0-63")
    s0, s1 = srcs + [NO_SRC] * (2 - len(srcs))
    return (
        code,
        s0,
        s1,
        NO_DST if dst is None else dst,
        mdesc.latency(instr.op_class),
    )


class PackedTrace:
    """A dynamic trace as two parallel flat arrays.

    Duck-types as a ``Sequence[Tuple[int, int]]`` so it can replace the
    list-of-tuples trace everywhere, while exposing the numpy arrays
    :class:`TraceTables` is built from.
    """

    __slots__ = ("pcs", "eas")

    def __init__(self, pcs: np.ndarray, eas: np.ndarray):
        self.pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        self.eas = np.ascontiguousarray(eas, dtype=np.int64)
        if self.pcs.shape != self.eas.shape:
            raise ValueError("pcs and eas must have the same length")

    # -- construction ---------------------------------------------------
    @classmethod
    def from_pairs(cls, trace: Sequence[Tuple[int, int]]) -> "PackedTrace":
        if isinstance(trace, PackedTrace):
            return trace
        n = len(trace)
        # fromiter over a flattened chain is ~3x faster than assigning a
        # list of tuples into a 2-D array.
        flat = np.fromiter(
            itertools.chain.from_iterable(trace), dtype=np.int64, count=2 * n
        )
        return cls(flat[0::2].copy(), flat[1::2].copy())

    # -- sequence protocol (compat with list-of-tuples consumers) -------
    def __len__(self) -> int:
        return int(self.pcs.shape[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(self.pcs[i].tolist(), self.eas[i].tolist()))
        return (self.pcs.item(i), self.eas.item(i))

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(self.pcs.tolist(), self.eas.tolist()))


def static_digest(exe: Executable) -> str:
    """Content digest of everything :func:`~repro.sim.func.execute`
    reads from an executable.

    Covers the entry pc, the initial stack pointer, each initialised
    global's address and values, and every field of every instruction
    the timing model reads: opcode/class, registers, immediates, branch
    targets and instruction order (hence code layout).  The digest
    therefore fixes the trace: two workload inputs that differ only in
    initialised data (mcf's ``train`` and ``ref``) get different
    digests, while two compiler configurations that emit the same image
    share one -- the hook the artifact store and the cross-point memo
    layers key on.
    """
    cached = getattr(exe, "_repro_static_digest", None)
    if cached is not None:
        return cached
    h = hashlib.md5(
        f"{exe.entry_pc!r}|{exe.stack_base!r}\n".encode(), usedforsecurity=False
    )
    for sym in exe.symbols.values():
        if sym.init:
            h.update(f"{sym.address!r}|{sym.init!r}\n".encode())
    for instr in exe.instrs:
        h.update(
            (
                f"{instr.op}|{instr.dst}|{instr.srcs}|{instr.imm}|"
                f"{instr.target_pc}\n"
            ).encode()
        )
    digest = h.hexdigest()
    exe._repro_static_digest = digest  # type: ignore[attr-defined]
    return digest


def _objects(table: Sequence) -> np.ndarray:
    """``table`` as a numpy object array (each item kept as one object)."""
    objects = np.empty(len(table), dtype=object)
    for i, value in enumerate(table):
        objects[i] = value
    return objects


def _gather(objects: np.ndarray, index: np.ndarray) -> Tuple:
    """``tuple(objects[i] for i in index)``, gathered in C.

    Equal positions hold the same object, so a position costs one
    pointer, and a tuple of ints (or of tuples of ints) drops out of the
    cyclic garbage collector's tracking after the first collection that
    sees it -- a list is walked by every full collection.
    """
    return tuple(objects[index].tolist())


class TraceTables:
    """Per-(executable, trace) flattened lookup tables.

    Every per-position table is a tuple (fast scalar indexing) built by
    one vectorized numpy pass.  Those that hold pcs or pc-derived values
    (``pcs``, ``next_pc``, block ids, op records) take their items from
    a pc-indexed object table, so equal values share one object.
    Per-``block_size`` artifacts (block ids, event lists) and
    per-``issue_width`` op records are cached in dicts, since those are
    the only microarchitectural parameters the tables depend on.
    """

    def __init__(self, exe: Executable, trace: PackedTrace):
        self.exe = exe
        self.trace = trace
        n = len(trace)
        self.n = n
        pcs = trace.pcs
        self._cls_pc = np.array(
            [CLASS_CODE[instr.op_class] for instr in exe.instrs], dtype=np.int64
        )
        # One int object per pc, and one for the pc past the text.
        pc_objects = _objects(range(len(exe.instrs) + 1))
        # Per-position flattening.
        self.pcs: Tuple[int, ...] = _gather(pc_objects, pcs)
        self.eas: Tuple[int, ...] = tuple(trace.eas.tolist())
        # taken[i]: the control transfer at position i changed the pc
        # stream (next_pc != pc + 1); the final position counts as not
        # taken, exactly as the per-event loops treated it.
        if n:
            nxt = np.empty(n, dtype=np.int64)
            nxt[:-1] = pcs[1:]
            nxt[-1] = pcs[-1] + 1
            self.taken: Tuple[bool, ...] = tuple((nxt != pcs + 1).tolist())
            self.next_pc: Tuple[int, ...] = _gather(pc_objects, nxt)
        else:
            self.taken = ()
            self.next_pc = ()
        self._ops: Dict[int, Tuple[OpRecord, ...]] = {}
        self._blocks: Dict[int, Tuple[int, ...]] = {}
        self._events: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}

    # -- per-issue-width op records -------------------------------------
    def ops_for(self, mdesc) -> Tuple[OpRecord, ...]:
        """Per-position op records for one machine description.

        Position ``i`` holds the record of the instruction at pc
        ``pcs[i]`` (see :func:`op_record`); equal pcs share one record.
        """
        width = mdesc.issue_width
        hit = self._ops.get(width)
        if hit is not None:
            return hit
        records = _objects([op_record(instr, mdesc) for instr in self.exe.instrs])
        ops = _gather(records, self.trace.pcs)
        self._ops[width] = ops
        return ops

    # -- per-block-size artifacts ---------------------------------------
    def _block_pc(self, block_size: int) -> np.ndarray:
        """Instruction-block id per pc."""
        pcs = np.arange(len(self.exe.instrs), dtype=np.int64)
        return (pcs * INSTR_BYTES + TEXT_BASE) // block_size

    def blocks_for(self, block_size: int) -> Tuple[int, ...]:
        """Instruction-block id per position."""
        hit = self._blocks.get(block_size)
        if hit is not None:
            return hit
        blocks = _gather(
            _objects(self._block_pc(block_size).tolist()), self.trace.pcs
        )
        self._blocks[block_size] = blocks
        return blocks

    def events_for(self, block_size: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Merged event list for one block size.

        Returns parallel tuples ``(positions, kinds)`` sorted by
        ``(position, kind)``: instruction-block-change events
        (``EV_INST``) precede the same position's data/control event,
        the order a pipeline fetches, then executes.  Position 0 never
        carries an ``EV_INST`` entry: a window starts with no current
        fetch block, so the kernel adds its first access itself.
        """
        hit = self._events.get(block_size)
        if hit is not None:
            return hit
        pcs = self.trace.pcs
        blocks = np.take(self._block_pc(block_size), pcs)
        cls = np.take(self._cls_pc, pcs)
        change = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1
        pos_parts = [change]
        kind_parts = [np.full(change.shape, EV_INST, dtype=np.int64)]
        for code, kind in (
            (LOAD, EV_DATA),
            (STORE, EV_DATA),
            (PF, EV_DATA),
            (BRANCH, EV_BRANCH),
            (CALL, EV_CALL),
            (RET, EV_RET),
            (JUMP, EV_JUMP),
        ):
            where = np.flatnonzero(cls == code)
            pos_parts.append(where)
            kind_parts.append(np.full(where.shape, kind, dtype=np.int64))
        pos = np.concatenate(pos_parts)
        kind = np.concatenate(kind_parts)
        order = np.lexsort((kind, pos))
        result = (tuple(pos[order].tolist()), tuple(kind[order].tolist()))
        self._events[block_size] = result
        return result


def tables_for(exe: Executable, trace: Sequence[Tuple[int, int]]) -> TraceTables:
    """The (cached) flat tables for one (executable, trace) pair.

    Tables are attached to the executable keyed by trace identity, so
    repeated simulations of the same binary across many design points
    build them exactly once.  The keyed traces are also kept alive by
    the attachment -- they are the same objects the measurement engine's
    LRU holds, so nothing outlives the binary+trace cache entry.
    """
    registry: Dict[int, Tuple[object, TraceTables]] = getattr(
        exe, "_repro_trace_tables", None
    )
    if registry is None:
        registry = {}
        exe._repro_trace_tables = registry  # type: ignore[attr-defined]
    hit = registry.get(id(trace))
    if hit is not None and hit[0] is trace:
        return hit[1]
    packed = PackedTrace.from_pairs(trace)
    tables = TraceTables(exe, packed)
    registry[id(trace)] = (trace, tables)
    if packed is not trace:
        registry[id(packed)] = (packed, tables)
    return tables
