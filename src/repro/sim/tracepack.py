"""The packed trace and the per-trace tables the timing model reads.

The simulator loops (:mod:`repro.sim.ooo`) index flat tables built once
per trace with numpy and reused by every SMARTS window and every
microarchitecture that measures the trace:

* :class:`PackedTrace` -- the dynamic trace as two parallel int64
  arrays (``pcs``, ``eas``).  :func:`repro.sim.func.execute` returns its
  trace in this form, and it is the only form the simulator takes;
  :meth:`PackedTrace.from_pairs` packs a hand-built list of ``(pc, ea)``
  pairs.
* :class:`TraceTables` -- per issue width, one op record per position
  (the timing loop's view of each instruction, shared per pc); per
  block size, the trace's *event list* as :class:`EventColumns`: the
  positions where the cache/predictor kernel must touch a cache, the
  predictor, the BTB or the RAS, and one column per field the kernel
  reads there.  Every other position is skipped, so nothing per
  position is kept beside the op records and the packed trace.

The trace owns its tables (:func:`tables_for`), so they are shared by
every ``OooTimingModel`` that simulates the trace and die with it, that
is when :class:`repro.harness.measure.MeasurementEngine` moves to
another binary.  The tables keep the trace's arrays and the binary's
instruction list, never the trace or the binary: with a reference back,
a released binary would stay resident until a full garbage collection.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Optional, Sequence, Tuple

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
    """A dynamic trace as two parallel flat arrays, and the owner of the
    timing model's tables for it (``tables``; see :func:`tables_for`)."""

    __slots__ = ("pcs", "eas", "tables")

    def __init__(self, pcs: np.ndarray, eas: np.ndarray):
        self.pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        self.eas = np.ascontiguousarray(eas, dtype=np.int64)
        if self.pcs.shape != self.eas.shape:
            raise ValueError("pcs and eas must have the same length")
        self.tables: Optional[TraceTables] = None

    @classmethod
    def from_pairs(cls, trace: Sequence[Tuple[int, int]]) -> "PackedTrace":
        """Pack a sequence of ``(pc, ea)`` pairs."""
        n = len(trace)
        # fromiter over a flattened chain is ~3x faster than assigning a
        # list of tuples into a 2-D array.
        flat = np.fromiter(
            itertools.chain.from_iterable(trace), dtype=np.int64, count=2 * n
        )
        return cls(flat[0::2].copy(), flat[1::2].copy())

    def __len__(self) -> int:
        return int(self.pcs.shape[0])


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


#: The event kind of each class code; -1 for the classes (ALU, NOP)
#: whose only event is a new instruction block.
_EVENT_OF_CLASS = np.full(12, -1, dtype=np.int64)
_EVENT_OF_CLASS[[LOAD, STORE, PF]] = EV_DATA
_EVENT_OF_CLASS[[BRANCH, CALL, RET, JUMP]] = [EV_BRANCH, EV_CALL, EV_RET, EV_JUMP]


class EventColumns:
    """One block size's event list, one column per field.

    Event ``e`` happens at trace position ``pos[e]``.  Events are sorted
    by ``(position, kind)``: an instruction-block change (``EV_INST``)
    precedes the same position's data or control event, the order a
    pipeline fetches, then executes.  Position 0 never carries an
    ``EV_INST`` event: a walk starts with no current fetch block, so
    the kernel makes its first access itself.

    * ``pos`` -- int64 positions; a walk bounds its slice with
      ``searchsorted``;
    * ``kind`` -- uint8 ``EV_*`` codes;
    * ``arg`` -- int64 operand: the block number of an ``EV_INST`` or
      ``EV_DATA`` event, the pc of a branch, call or jump, the return
      target of a return;
    * ``target`` -- int64 next pc of a branch (0 for other kinds);
    * ``refetch`` -- bool, true where a control transfer's next
      position is in the same instruction block, so fetching it again
      is an MRU hit with no ``EV_INST`` event (false at the trace's
      last position).
    """

    __slots__ = ("pos", "kind", "arg", "target", "refetch")

    def __init__(
        self, pcs: np.ndarray, eas: np.ndarray, kind_pc: np.ndarray, block_size: int
    ):
        n = len(pcs)
        blocks = (pcs * INSTR_BYTES + TEXT_BASE) // block_size
        kind_at = kind_pc[pcs]
        own = np.flatnonzero(kind_at >= 0)
        change = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1
        # Both runs are sorted, so the stable sort of (position, kind)
        # keys is one merge.
        keys = np.concatenate((change * 8 + EV_INST, own * 8 + kind_at[own]))
        keys.sort(kind="stable")
        pos = keys >> 3
        kind = keys & 7
        after = np.minimum(pos + 1, n - 1)
        next_pc = np.where(pos + 1 < n, pcs[after], pcs[pos] + 1)
        self.pos = pos
        self.kind = kind.astype(np.uint8)
        self.arg = np.select(
            (kind == EV_INST, kind == EV_DATA, kind == EV_RET),
            (blocks[pos], eas[pos] // block_size, next_pc),
            pcs[pos],
        )
        self.target = np.where(kind == EV_BRANCH, next_pc, 0)
        self.refetch = (
            (kind >= EV_BRANCH) & (pos + 1 < n) & (blocks[after] == blocks[pos])
        )


class TraceTables:
    """The timing model's tables for one trace of one binary.

    Per issue width, :meth:`ops_for` holds one op record per position;
    per block size, :meth:`events_for` holds the event list as
    :class:`EventColumns`.  Those are the only microarchitectural
    parameters the tables depend on.  The tables keep the trace's
    arrays and the binary's instruction list, never the
    :class:`PackedTrace` or the ``Executable``: the trace holds them
    (see :func:`tables_for`), and a reference back would make a cycle
    that outlives the trace until a full garbage collection.
    """

    def __init__(self, instrs: Sequence, pcs: np.ndarray, eas: np.ndarray):
        self.instrs = instrs
        self.pcs = pcs
        self.eas = eas
        self._ops: Dict[int, Tuple[OpRecord, ...]] = {}
        self._events: Dict[int, EventColumns] = {}

    def ops_for(self, mdesc) -> Tuple[OpRecord, ...]:
        """Per-position op records for one machine description.

        Position ``i`` holds the record of the instruction at pc
        ``pcs[i]`` (see :func:`op_record`).  Records are built once per
        pc, so equal pcs share one record and a position costs one
        pointer.
        """
        width = mdesc.issue_width
        ops = self._ops.get(width)
        if ops is None:
            records = _objects([op_record(instr, mdesc) for instr in self.instrs])
            # A tuple of shared records: the garbage collector stops
            # tracking it after one collection; a list it would walk in
            # every full one.
            ops = self._ops[width] = tuple(records[self.pcs].tolist())
        return ops

    def events_for(self, block_size: int) -> EventColumns:
        """The event list for one block size (see :class:`EventColumns`)."""
        events = self._events.get(block_size)
        if events is None:
            kind_pc = _EVENT_OF_CLASS[
                [CLASS_CODE[instr.op_class] for instr in self.instrs]
            ]
            events = self._events[block_size] = EventColumns(
                self.pcs, self.eas, kind_pc, block_size
            )
        return events


def tables_for(
    exe: Executable, trace: PackedTrace, block_size: int, mdesc
) -> TraceTables:
    """The tables of ``trace`` run by ``exe``, with the op records of
    ``mdesc`` and the events of ``block_size`` built.

    The trace keeps its tables, so repeated simulations of it across
    many design points build each table exactly once; they are rebuilt
    only when the trace is handed with another binary's instruction
    list.
    """
    tables = trace.tables
    if tables is None or tables.instrs is not exe.instrs:
        tables = trace.tables = TraceTables(exe.instrs, trace.pcs, trace.eas)
    tables.ops_for(mdesc)
    tables.events_for(block_size)
    return tables
