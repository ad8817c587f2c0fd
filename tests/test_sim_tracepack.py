"""The event list is exact at every chunk edge.

:class:`repro.sim.tracepack.EventColumns` builds its columns
``_CHUNK`` positions at a time, reading one position of context on
each side of a chunk.  ``tests/tracepack_reference.py`` keeps the
one-pass build over the whole trace, and every column must equal its
reference, in the dtype the class documents.

Cases: the seven programs at O2; traces of 0, 1 and 2 positions;
prefixes of mcf's trace of chunk - 1, chunk, chunk + 1 and 2 chunk + 3
positions; a block change at a chunk's first position; each kind of
control transfer at a chunk's last position, with its next pc in the
next chunk in the same block or another; and generated programs with
the chunk patched down to a few positions, so every trace crosses many
chunk edges.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import compile_module
from repro.codegen.linker import INSTR_BYTES, TEXT_BASE
from repro.minic import compile_source
from repro.opt.flags import O2
from repro.sim import tracepack
from repro.sim.config import TYPICAL
from repro.sim.func import execute
from repro.sim.tracepack import (
    CLASS_CODE,
    EV_BRANCH,
    EV_CALL,
    EV_DATA,
    EV_INST,
    EV_JUMP,
    EV_RET,
    EventColumns,
)
from repro.workgen import default_grammar
from repro.workloads import get_workload
from tests.tracepack_reference import ReferenceEventColumns

GRAMMAR = default_grammar()
PROGRAMS = ["art", "bzip2", "gzip", "mcf", "mesa", "vortex", "vpr"]
DTYPES = {
    "pos": np.int32,
    "kind": np.uint8,
    "arg": np.int64,
    "target": np.int32,
    "refetch": np.bool_,
}
CHUNK = tracepack._CHUNK
BLOCK = TYPICAL.block_size

#: A hand-built program's event kinds by pc: pcs 0-7 plain, 8 a load,
#: then a branch, a call, a return and a jump (-1: no event of its own).
KIND_PC = np.array(
    [-1] * 8 + [EV_DATA, EV_BRANCH, EV_CALL, EV_RET, EV_JUMP] + [-1] * 51
)
PLAIN = 0
#: pcs in another instruction block than pcs 8-15, and in the same one.
FAR, NEAR = 40, 15


def _assert_exact(pcs, eas, kind_pc, block_size=BLOCK) -> EventColumns:
    """Build the columns both ways, check they agree, and return them."""
    pcs = np.asarray(pcs, dtype=np.int64)
    eas = np.asarray(eas, dtype=np.int64)
    events = EventColumns(pcs, eas, kind_pc, block_size)
    reference = ReferenceEventColumns(pcs, eas, kind_pc, block_size)
    for name, dtype in DTYPES.items():
        column = getattr(events, name)
        assert column.dtype == dtype, name
        assert np.array_equal(column, getattr(reference, name)), name
    return events


def _kind_pc(exe) -> np.ndarray:
    return tracepack._EVENT_OF_CLASS[
        [CLASS_CODE[instr.op_class] for instr in exe.instrs]
    ]


@lru_cache(maxsize=None)
def _program(name: str):
    exe = compile_module(get_workload(name).module("train"), O2, issue_width=4)
    return exe, execute(exe).trace


def _event(events, position, kind):
    """The index of the event of ``kind`` at ``position``."""
    (index,) = np.flatnonzero((events.pos == position) & (events.kind == kind))
    return index


@pytest.mark.parametrize("name", PROGRAMS)
def test_a_programs_columns_equal_the_reference(name):
    exe, trace = _program(name)
    assert len(trace) > 2 * CHUNK
    _assert_exact(trace.pcs, trace.eas, _kind_pc(exe))


@pytest.mark.parametrize(
    "pcs",
    [[], [PLAIN], [8], [9], [11], [PLAIN, PLAIN], [PLAIN, FAR], [9, NEAR], [11, FAR]],
)
def test_a_tiny_traces_columns_equal_the_reference(pcs):
    eas = [0x100000 + 8 * i for i in range(len(pcs))]
    events = _assert_exact(pcs, eas, KIND_PC)
    if pcs and pcs[-1] in (9, 11):
        # A transfer at the trace's last position: its next pc is the
        # fall-through, and nothing is re-fetched.
        last = events.kind.size - 1
        assert events.pos[last] == len(pcs) - 1 and not events.refetch[last]


@pytest.mark.parametrize("length", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_an_mcf_prefixs_columns_equal_the_reference(length):
    exe, trace = _program("mcf")
    _assert_exact(trace.pcs[:length], trace.eas[:length], _kind_pc(exe))


def test_a_block_change_at_a_chunks_first_position():
    pcs = [PLAIN] * CHUNK + [FAR] * 3
    events = _assert_exact(pcs, [0] * len(pcs), KIND_PC)
    block = (FAR * INSTR_BYTES + TEXT_BASE) // BLOCK
    assert events.arg[_event(events, CHUNK, EV_INST)] == block


@pytest.mark.parametrize("next_pc", [NEAR, FAR])
@pytest.mark.parametrize(
    "pc, kind", [(9, EV_BRANCH), (10, EV_CALL), (11, EV_RET), (12, EV_JUMP)]
)
def test_a_transfer_at_a_chunks_last_position(pc, kind, next_pc):
    """Its next pc, refetch flag and return target are read from the
    next chunk's first position."""
    pcs = [PLAIN] * (CHUNK - 1) + [pc, next_pc, next_pc]
    events = _assert_exact(pcs, [0] * len(pcs), KIND_PC)
    e = _event(events, CHUNK - 1, kind)
    assert events.refetch[e] == (next_pc == NEAR)
    if kind == EV_BRANCH:
        assert events.target[e] == next_pc
    if kind == EV_RET:
        assert events.arg[e] == next_pc


@lru_cache(maxsize=64)
def _generated(family: str, seed: int):
    program = GRAMMAR.generate(family, seed)
    exe = compile_module(compile_source(program.source), O2, issue_width=4)
    return _kind_pc(exe), execute(exe).trace


@settings(max_examples=40, deadline=None)
@given(
    program=st.tuples(st.sampled_from(GRAMMAR.families), st.integers(0, 15)),
    chunk=st.integers(1, 7),
    block_size=st.sampled_from([8, 16, 32, 64, 128]),
    data=st.data(),
)
def test_tiny_chunks_equal_the_reference(program, chunk, block_size, data):
    kind_pc, trace = _generated(*program)
    n = len(trace)
    start = data.draw(st.integers(0, n))
    end = data.draw(st.integers(start, min(n, start + 3000)))
    with mock.patch.object(tracepack, "_CHUNK", chunk):
        _assert_exact(trace.pcs[start:end], trace.eas[start:end], kind_pc, block_size)


def test_a_trace_of_2_31_positions_is_refused():
    class Huge:
        def __len__(self):
            return 1 << 31

    with pytest.raises(ValueError, match="2\\*\\*31"):
        EventColumns(Huge(), Huge(), KIND_PC, BLOCK)
