"""Differential tests of the detailed timing loop.

:meth:`OooTimingModel.simulate_window` only times the outcome codes a
``warm`` walk recorded: the warm-up segment, then the measured segment
to the window's end.  It reads one per-pc op record per instruction
and moves fetch, fills the RUU and purges the store buffer without
per-instruction tests.  ``tests/ooo_reference.py`` keeps the loop it
replaced, which walks the window itself and tests every bound on every
instruction; it is called with ``measure_to=end``.  ``warm`` then
``simulate_window`` and the reference must report the same
``TimingResult`` for every window, flush the same ``sim.ooo.*``
counters, count the same memory accesses and leave the same cache,
predictor, BTB and RAS state.  A window on its own leaves that state,
and the walk's counters, as it found them.

Inputs: generated programs of every workgen family and prefixes of
built-in workloads, compiled with seeded random flag vectors at issue
widths 2, 4 and 8; configurations from the Table-2 levels plus the
paper's three named ones and an 8-wide one; and random windows.
Hand-built programs cover a full store buffer, a load whose block was
purged from the store buffer, a load issuing on the cycle a store to
its block drains, a one-entry RUU, an instruction with no sources, one
reading its own destination and ``jal``.  Bounds outside the window,
codes of another length and instructions the op records cannot
represent raise.
"""

import copy
import random
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import random_config
from repro.codegen import compile_module
from repro.codegen.isa import RA, MachineInstr
from repro.codegen.linker import DATA_BASE, Executable
from repro.minic import compile_source
from repro.obs import counter
from repro.sim import MicroarchConfig, OooTimingModel
from repro.sim.config import AGGRESSIVE, CONSTRAINED, TYPICAL
from repro.sim.func import execute
from repro.sim.tracepack import (
    CALL,
    IALU,
    NO_DST,
    NO_SRC,
    RET,
    STORE,
    PackedTrace,
    tables_for,
)
from repro.space.tables import microarch_space
from repro.workgen import default_grammar
from repro.workloads import get_workload
from tests.ooo_reference import simulate_window_reference

GRAMMAR = default_grammar()
COUNTERS = (
    "sim.ooo.instructions",
    "sim.ooo.branch_mispredicts",
    "sim.ooo.icache_stall_cycles",
    "sim.ooo.ruu_stalls",
)
WIDE = replace(AGGRESSIVE, issue_width=8, ruu_size=256)
NAMED = [CONSTRAINED, TYPICAL, AGGRESSIVE, WIDE]
TABLE2 = st.fixed_dictionaries(
    {v.name: st.sampled_from(v.level_values()) for v in microarch_space().variables}
).map(MicroarchConfig.from_point)
#: Built-in workloads, cut to a prefix so windows can reach the end.
PREFIX = 40_000
#: Longest window drawn: long enough to fill the largest RUU many times.
MAX_WINDOW = 2_500


@lru_cache(maxsize=None)
def _builtin(name: str, flag_seed: int, issue_width: int):
    config = random_config(random.Random(flag_seed))
    exe = compile_module(
        get_workload(name).module("train"), config, issue_width=issue_width
    )
    full = execute(exe).trace
    return exe, PackedTrace(full.pcs[:PREFIX].copy(), full.eas[:PREFIX].copy())


def _generated(family: str, program_seed: int, flag_seed: int, issue_width: int):
    program = GRAMMAR.generate(family, program_seed)
    config = random_config(random.Random(flag_seed))
    exe = compile_module(
        compile_source(program.source), config, issue_width=issue_width
    )
    return exe, execute(exe).trace


def _state(model):
    """Cache, predictor, BTB and RAS state with their counters."""
    h, bp = model.hierarchy, model.bpred
    return {
        "caches": [(c._sets, c.hits, c.misses) for c in (h.il1, h.dl1, h.ul2)],
        "bpred": (bp._bimodal, bp._gshare, bp._chooser, bp._history),
        "bpred_stats": (bp.lookups, bp.mispredictions),
        "btb": (model.btb._tags, model.btb._targets),
        "ras": list(model.ras._stack),
    }


def _timed(model, trace, start, end, measure_from):
    """``warm`` over the window, then ``simulate_window`` over its codes."""
    codes = bytearray(end - start)
    model.warm(trace, start, end, codes)
    return model.simulate_window(trace, start, end, codes, measure_from)


def _run(simulate, model, trace, *window):
    """``simulate``'s result with its counter and memory-access deltas."""
    before = [counter(name).value for name in COUNTERS]
    accesses = model.hierarchy.memory_accesses
    result = simulate(model, trace, *window)
    deltas = [counter(name).value - b for name, b in zip(COUNTERS, before)]
    return result, deltas, model.hierarchy.memory_accesses - accesses


def _assert_windows_match(exe, trace, config, windows):
    """Both loops on their own model, window after window."""
    new = OooTimingModel(exe, config)
    ref = OooTimingModel(exe, config)
    for start, end, measure_from in windows:
        window = (start, end, measure_from)
        got = _run(_timed, new, trace, *window)
        want = _run(simulate_window_reference, ref, trace, *window, end)
        assert got == want, window
        assert _state(new) == _state(ref), window
    return new


@st.composite
def windows(draw, n: int):
    """``start <= measure_from <= end <= n``, with ``measure_from <
    end`` unless the window is empty (the reference reports the whole
    window for zero instructions there)."""
    size = draw(st.integers(0, min(n, MAX_WINDOW)))
    start = draw(st.sampled_from([0, n - size]) | st.integers(0, n - size))
    end = start + size
    if size == 0:
        return start, end, start
    return start, end, draw(st.integers(start, end - 1))


PROGRAMS = st.one_of(
    st.tuples(
        st.sampled_from(GRAMMAR.families),
        st.integers(0, 2**31 - 2),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 4, 8]),
    ).map(lambda args: _generated(*args)),
    st.tuples(
        st.sampled_from([("mcf", 2), ("art", 4), ("vortex", 8)]),
        st.integers(0, 1),
    ).map(lambda args: _builtin(args[0][0], args[1], args[0][1])),
)


@settings(max_examples=100, deadline=None)
@given(
    program=PROGRAMS,
    config=st.sampled_from(NAMED) | TABLE2,
    data=st.data(),
)
def test_windows_match_reference(program, config, data):
    exe, trace = program
    n = len(trace)
    drawn = data.draw(st.lists(windows(n), min_size=1, max_size=4))
    _assert_windows_match(exe, trace, config, drawn)


# ----------------------------------------------------------------------
# Hand-built programs
# ----------------------------------------------------------------------
def ins(op, dst=None, srcs=(), imm=None, target_pc=None):
    return MachineInstr(op, dst=dst, srcs=srcs, imm=imm, target_pc=target_pc)


def _exe(instrs):
    return Executable(
        instrs=list(instrs), entry_pc=0, symbols={}, function_entries={"main": 0}
    )


def _whole_and_split(exe, config, start=0):
    """A window over ``[0, start)`` to warm the caches, then ``[start,
    n)`` whole and split into warm-up and measured at a few points."""
    trace = execute(exe).trace
    n = len(trace)
    cuts = sorted({start, (start + n) // 2, n - 1})
    windows = [(0, start, 0)] + [(start, n, cut) for cut in cuts]
    return _assert_windows_match(exe, trace, config, windows), trace


BASE = ins("la", dst=9, imm=DATA_BASE)
HALT = ins("halt")
F = 32  # the first float register


def _chain(reg, n):
    """``n`` dependent multiplies of ``reg`` by 1 (three cycles each)."""
    return [ins("li", dst=reg, imm=1)] + [
        ins("mul", dst=reg, srcs=(reg, reg)) for _ in range(n)
    ]


def test_full_store_buffer():
    # Twelve stores to twelve cold blocks: each drains only after a
    # memory round trip, so a two-entry buffer stalls the stores.
    stores = [ins("st", srcs=(9, 0), imm=64 * k) for k in range(12)]
    exe = _exe([BASE, *stores, HALT])
    small = replace(TYPICAL, store_buffer_size=2)
    _whole_and_split(exe, small)
    trace = execute(exe).trace
    full = OooTimingModel(exe, small).simulate_trace(trace).cycles
    roomy = OooTimingModel(exe, TYPICAL).simulate_trace(trace).cycles
    assert full > roomy


def test_load_of_a_block_a_later_store_purged():
    # Two passes over the same code, the first to fill the I-cache.  In
    # the second, timed in a window of its own, ``st A`` misses to
    # memory, so it drains late.  ``st B`` waits for a chain of integer
    # multiplies, issues after A has drained and purges A's entry.
    # ``ld A`` issues early, before A's drain cycle: with the entry gone
    # it is not forwarded.  Its result heads a longer chain of float
    # multiplies, on units of their own, so its completion reaches the
    # last commit.  A is a new block in each pass.
    body = [
        ins("st", srcs=(9, 0), imm=0),  # st A
        *_chain(12, 60),
        ins("st", srcs=(9, 12), imm=4096),  # st B
        ins("ld", dst=13, srcs=(9,), imm=8),  # ld A
        ins("itof", dst=F, srcs=(13,)),
        *[ins("fmul", dst=F, srcs=(F, F)) for _ in range(80)],
        ins("addi", dst=9, srcs=(9,), imm=8192),
        ins("addi", dst=14, srcs=(14,), imm=-1),
    ]
    loop = 2
    exe = _exe(
        [
            BASE,
            ins("li", dst=14, imm=2),
            *body,
            ins("bnez", srcs=(14,), target_pc=loop),
            HALT,
        ]
    )
    _whole_and_split(exe, TYPICAL, start=loop + len(body) + 1)


def test_load_issuing_as_a_store_drains_is_not_forwarded():
    # On the second pass the caches are warm: ``st`` hits DL1 and
    # drains at its issue cycle plus the DL1 latency, the very cycle the
    # load issues, its base having come through two one-cycle adds.  A
    # store that drains as the load issues no longer forwards, so the
    # load goes to the cache, and a multiply chain on its result carries
    # that cycle to the last commit.
    exe = _exe(
        [
            BASE,
            ins("st", srcs=(9, 0), imm=0),
            ins("addi", dst=10, srcs=(9,), imm=0),
            ins("addi", dst=10, srcs=(10,), imm=0),
            ins("ld", dst=13, srcs=(10,), imm=8),
            *[ins("mul", dst=13, srcs=(13, 13)) for _ in range(10)],
            HALT,
        ]
    )
    trace = execute(exe).trace
    n = len(trace)
    _assert_windows_match(exe, trace, TYPICAL, [(0, n, 0)] * 2)


def test_one_entry_ruu():
    exe, trace = _builtin("art", 0, 4)
    n = len(trace)
    windows = [(0, 3000, 0), (n - 2000, n, n - 1500), (5000, 7000, 5100)]
    _assert_windows_match(exe, trace, replace(TYPICAL, ruu_size=1), windows)


def test_no_sources_own_destination_and_jal():
    exe = _exe(
        [
            ins("li", dst=8, imm=0),  # 0: no sources
            ins("addi", dst=8, srcs=(8,), imm=1),  # 1: reads its destination
            ins("jal", target_pc=6),  # 2: call
            ins("cmplt", dst=10, srcs=(8, 11)),  # 3
            ins("bnez", srcs=(10,), target_pc=1),  # 4
            HALT,  # 5
            ins("li", dst=11, imm=40),  # 6: no sources
            ins("jr", srcs=(RA,)),  # 7: return
        ]
    )
    model, trace = _whole_and_split(exe, CONSTRAINED)
    tables = tables_for(exe, trace, CONSTRAINED.block_size, model.mdesc)
    ops = tables.ops_for(model.mdesc)
    records = {pc: op for pc, op in zip(tables.pcs.tolist(), ops)}
    assert records[0] == (IALU, NO_SRC, NO_SRC, 8, 1)
    assert records[1] == (IALU, 8, NO_SRC, 8, 1)
    assert records[2] == (CALL, NO_SRC, NO_SRC, RA, 1)
    assert records[7] == (RET, RA, NO_SRC, NO_DST, 1)
    assert records[3][1:3] == (8, 11)


def test_store_reads_base_and_value_and_writes_nothing():
    stores = [ins("st", srcs=(9, 0), imm=0), ins("st", srcs=(9, 9), imm=0)]
    exe = _exe([BASE, *stores, HALT])
    trace = execute(exe).trace
    mdesc = OooTimingModel(exe, TYPICAL).mdesc
    ops = tables_for(exe, trace, TYPICAL.block_size, mdesc).ops_for(mdesc)
    assert ops[1] == (STORE, 9, NO_SRC, NO_DST, 1)  # r0 is never waited on
    assert ops[2] == (STORE, 9, 9, NO_DST, 1)


# ----------------------------------------------------------------------
# Rejected inputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small():
    return _builtin("mcf", 0, 4)


@pytest.mark.parametrize(
    "window",
    [
        (-1, 100, None),  # start before the trace
        (50, 40, None),  # end before start
        (10, 100, 5),  # measure_from before start
        (0, 100, -1),  # measure_from before the trace
        (PREFIX + 1, PREFIX + 1, None),  # an empty window past the trace
        (10, 100, 101),  # measure_from past end
        (0, PREFIX + 1, None),  # end past the trace
    ],
)
def test_bounds_outside_the_window_raise(small, window):
    exe, trace = small
    start, end, measure_from = window
    codes = bytearray(max(end - start, 0))
    with pytest.raises(ValueError, match="window bounds"):
        OooTimingModel(exe, TYPICAL).simulate_window(
            trace, start, end, codes, measure_from=measure_from
        )


@pytest.mark.parametrize("length", [0, 99, 101])
def test_codes_of_another_length_raise(small, length):
    exe, trace = small
    with pytest.raises(ValueError, match="codes must hold 100 entries"):
        OooTimingModel(exe, TYPICAL).simulate_window(
            trace, 200, 300, bytearray(length)
        )


WALK_COUNTERS = ("sim.ooo.walk.events", "sim.ooo.walk.skipped")


@pytest.mark.parametrize(
    "config", NAMED, ids=["constrained", "typical", "aggressive", "wide"]
)
def test_a_window_changes_no_cache_or_predictor_state(small, config):
    """Windows anywhere over a walk's codes, measured from anywhere,
    leave the tag arrays, the predictor, BTB and RAS tables and their
    counters, and the walk's own counters, as the walk left them."""
    exe, trace = small
    n = len(trace)
    model = OooTimingModel(exe, config)
    codes = bytearray(n)
    model.warm(trace, 0, n, codes)
    before = copy.deepcopy(_state(model))
    walked = [counter(name).value for name in WALK_COUNTERS]
    for start, end, measure_from in [
        (0, n, 0),
        (0, 1000, 400),
        (17_000, 19_500, 18_000),
        (n - 700, n, n - 1),
        (n, n, n),
    ]:
        model.simulate_window(trace, start, end, codes[start:end], measure_from)
    assert _state(model) == before
    assert [counter(name).value for name in WALK_COUNTERS] == walked


def test_empty_measurement_at_the_window_end(small):
    exe, trace = small
    model = OooTimingModel(exe, TYPICAL)
    codes = bytearray(500)
    model.warm(trace, 0, 500, codes)
    result = model.simulate_window(trace, 0, 500, codes, measure_from=500)
    assert (result.cycles, result.instructions) == (0, 0)
    # The reference timed the whole window and reported its last commit.
    stale = simulate_window_reference(
        OooTimingModel(exe, TYPICAL), trace, 0, 500, measure_from=500, measure_to=500
    )
    assert stale.instructions == 0 and stale.cycles > 0


@pytest.mark.parametrize(
    "instr",
    [
        ins("add", dst=8, srcs=(1, 2, 3)),  # three sources
        ins("addi", dst=64, srcs=(1,)),  # destination past r63
        ins("addi", dst=8, srcs=(65,)),  # source past r63
        ins("addi", dst=-1, srcs=(1,)),  # negative destination
    ],
)
def test_unrepresentable_instructions_raise(instr):
    exe = _exe([instr, HALT])
    trace = PackedTrace(np.array([0, 1]), np.array([0, 0]))
    with pytest.raises(ValueError, match="register"):
        OooTimingModel(exe, TYPICAL).simulate_window(trace, 0, 2, bytearray(2))


def test_third_source_is_ignored_by_execute_but_rejected_by_timing():
    exe = _exe([ins("li", dst=3, imm=5), ins("add", dst=1, srcs=(3, 3, 2)), HALT])
    run = execute(exe)
    assert run.return_value == 10
    with pytest.raises(ValueError, match="more than two"):
        OooTimingModel(exe, TYPICAL).simulate_trace(run.trace)
