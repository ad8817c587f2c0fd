"""The packed trace and the per-trace tables the timing model reads.

The simulator loops (:mod:`repro.sim.ooo`) index flat tables built once
per trace with numpy and reused by every SMARTS window and every
microarchitecture that measures the trace:

* :class:`PackedTrace` -- the dynamic trace as two parallel int64
  arrays (``pcs``, ``eas``).  :func:`repro.sim.func.execute` returns its
  trace in this form, and it is the only form the simulator takes;
  :meth:`PackedTrace.from_pairs` packs a hand-built list of ``(pc, ea)``
  pairs.
* :class:`TraceTables` -- per issue width, one op record per pc (the
  timing loop's view of an instruction), from which a detailed window
  gathers its positions' records; per block size, the trace's *event
  list* as :class:`EventColumns`: the positions where the
  cache/predictor kernel must touch a cache, the predictor, the BTB or
  the RAS, and one column per field the kernel reads there, built a
  chunk of positions at a time.  Every other position is skipped, so
  nothing per position is kept beside the packed trace.

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
    timing model's tables for it (``tables``; see :func:`tables_for`).

    Nothing writes into a trace's arrays, so they may be read-only: a
    trace loaded from the artifact store wraps the stored bytes.
    """

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


#: Positions an :class:`EventColumns` build handles at a time: only
#: temporaries of this many positions exist at once.
_CHUNK = 1 << 16


def _chunk_events(
    pcs: np.ndarray,
    eas: np.ndarray,
    kind_pc: np.ndarray,
    block_size: int,
    a: int,
    b: int,
) -> Tuple[np.ndarray, ...]:
    """The :class:`EventColumns` columns of positions ``[a, b)``.

    Reads one position of context on each side: the block of position
    ``a - 1`` decides a block change at ``a``, and position ``b`` gives
    position ``b - 1`` its next pc and refetch flag.
    """
    lo = a - 1 if a else 0
    p = pcs[lo : b + 1]
    # Position ``a + i`` is ``p[off + i]``.
    off = a - lo
    m = b - a
    blocks = (p * INSTR_BYTES + TEXT_BASE) // block_size
    kind_at = kind_pc[p[off : off + m]]
    own = np.flatnonzero(kind_at >= 0)
    change = np.flatnonzero(blocks[1 : off + m] != blocks[: off + m - 1]) + 1 - off
    # Both runs are sorted, so the stable sort of (position, kind) keys
    # is one merge.
    keys = np.concatenate((change * 8 + EV_INST, own * 8 + kind_at[own]))
    keys.sort(kind="stable")
    rel = keys >> 3
    kind = keys & 7
    at = rel + off
    has_next = at + 1 < len(p)
    after = np.minimum(at + 1, len(p) - 1)
    next_pc = np.where(has_next, p[after], p[at] + 1)
    here = blocks[at]
    return (
        (rel + a).astype(np.int32),
        kind.astype(np.uint8),
        np.select(
            (kind == EV_INST, kind == EV_DATA, kind == EV_RET),
            (here, eas[rel + a] // block_size, next_pc),
            p[at],
        ),
        np.where(kind == EV_BRANCH, next_pc, 0).astype(np.int32),
        (kind >= EV_BRANCH) & has_next & (blocks[after] == here),
    )


class EventColumns:
    """One block size's event list, one column per field.

    Event ``e`` happens at trace position ``pos[e]``.  Events are sorted
    by ``(position, kind)``: an instruction-block change (``EV_INST``)
    precedes the same position's data or control event, the order a
    pipeline fetches, then executes.  Position 0 never carries an
    ``EV_INST`` event: a walk starts with no current fetch block, so
    the kernel makes its first access itself.

    * ``pos`` -- int32 positions; a walk bounds its slice with
      ``searchsorted``;
    * ``kind`` -- uint8 ``EV_*`` codes;
    * ``arg`` -- int64 operand: the block number of an ``EV_INST`` or
      ``EV_DATA`` event, the pc of a branch, call or jump, the return
      target of a return;
    * ``target`` -- int32 next pc of a branch (0 for other kinds);
    * ``refetch`` -- bool, true where a control transfer's next
      position is in the same instruction block, so fetching it again
      is an MRU hit with no ``EV_INST`` event (false at the trace's
      last position).

    The columns are built :data:`_CHUNK` positions at a time, so the
    build's temporaries stay that size whatever the trace's length.
    Raises ``ValueError`` for a trace of 2**31 or more positions, whose
    positions int32 cannot hold.
    """

    __slots__ = ("pos", "kind", "arg", "target", "refetch")

    def __init__(
        self, pcs: np.ndarray, eas: np.ndarray, kind_pc: np.ndarray, block_size: int
    ):
        n = len(pcs)
        if n >= 1 << 31:
            raise ValueError(
                f"a trace of {n} positions: int32 event positions need fewer "
                "than 2**31"
            )
        parts = {name: [] for name in self.__slots__}
        # An empty trace makes one empty chunk, which gives the columns
        # their dtypes.
        for a in range(0, n or 1, _CHUNK):
            b = min(a + _CHUNK, n)
            columns = _chunk_events(pcs, eas, kind_pc, block_size, a, b)
            for name, column in zip(self.__slots__, columns):
                parts[name].append(column)
        # Each column's chunks are freed as soon as they are joined.
        for name in self.__slots__:
            setattr(self, name, np.concatenate(parts.pop(name)))


class TraceTables:
    """The timing model's tables for one trace of one binary.

    Per issue width, :meth:`ops_for` holds one op record per pc; per
    block size, :meth:`events_for` holds the event list as
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
        self._ops: Dict[int, np.ndarray] = {}
        self._events: Dict[int, EventColumns] = {}

    def ops_for(self, mdesc) -> np.ndarray:
        """The op records of one machine description, one per pc.

        Item ``pc`` of the object array is the record of the instruction
        at that pc (see :func:`op_record`), so a window gathers its
        positions' records with one take, ``records[pcs[start:end]]``,
        and equal pcs share one record.
        """
        width = mdesc.issue_width
        records = self._ops.get(width)
        if records is None:
            records = self._ops[width] = _objects(
                [op_record(instr, mdesc) for instr in self.instrs]
            )
        return records

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
