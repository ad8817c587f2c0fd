"""Differential test of the simulator's cache/predictor kernel.

:meth:`OooTimingModel._walk` updates the tag arrays, predictor tables,
BTB and RAS from the trace's event list only, with the caches' MRU hits
inlined, and counts in bulk the events that change only a counter: L1
repeats, jumps and the conditional branches it proves saturated.  The
reference here walks every instruction through the component classes
instead -- the front end's fetch rule written out: ``warm_inst`` at the
window start, at each instruction-block change and after each taken or
mispredicted transfer; ``warm_data`` for loads, stores and prefetches;
``predict_and_update``; BTB ``predict``/``update``; RAS ``push``/``pop``
-- and writes each position's outcome code.  Windows start anywhere:
after a gap, over positions already walked, or before the last window.
After each window both models must hold the same state and the same
counters, whichever public method drove the kernel; ``warm`` must return
the same outcome counts with and without codes, and the codes it writes
must be the reference's.
"""

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codegen import compile_module
from repro.codegen.isa import OpClass
from repro.minic import compile_source
from repro.opt.flags import O2
from repro.sim import MicroarchConfig, OooTimingModel
from repro.sim.func import execute
from repro.sim.ooo import (
    COUNTED,
    DL1_L2,
    DL1_MEM,
    IL1_L2,
    IL1_MEM,
    MISPREDICT,
    REDIRECT,
)
from tests.util import ALL_PROGRAMS

RECURSIVE = """
int depth(int n) {
    if (n == 0) { return 0; }
    return depth(n - 1) + (n & 3);
}
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 12; i = i + 1) { s = s + depth(i * 3); }
    return s;
}
"""

STREAM = """
int a[2048];
int b[2048];
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 2048; i = i + 1) { a[i] = i * 7; }
    for (i = 0; i < 2048; i = i + 1) { b[i] = a[i] + a[(i * 37) & 2047]; }
    for (i = 0; i < 2048; i = i + 4) { s = s + b[i]; }
    return s;
}
"""

PROGRAMS = dict(ALL_PROGRAMS, recursive=RECURSIVE, stream=STREAM)


@lru_cache(maxsize=None)
def _build(name: str, inline: bool, unroll: bool, prefetch: bool):
    compiler = replace(
        O2,
        inline_functions=inline,
        unroll_loops=unroll,
        prefetch_loop_arrays=prefetch,
    )
    exe = compile_module(compile_source(PROGRAMS[name]), compiler, issue_width=4)
    return exe, execute(exe, collect_trace=True).trace


def _reference_walk(model, exe, trace, start, end):
    """Per-instruction walk through the component classes; returns the
    outcome code of each position of trace[start:end]."""
    hierarchy, bpred, btb, ras = model.hierarchy, model.bpred, model.btb, model.ras
    block_size = model.config.block_size
    pcs, eas = trace.pcs.tolist(), trace.eas.tolist()
    codes = []
    refetch = True
    prev_block = None
    for i in range(start, end):
        pc, ea = pcs[i], eas[i]
        addr = exe.pc_to_byte_addr(pc)
        code = 0
        if refetch or addr // block_size != prev_block:
            # Where the access is served, read before it is made.
            if not hierarchy.il1.probe(addr):
                code = IL1_L2 if hierarchy.ul2.probe(addr) else IL1_MEM
            hierarchy.warm_inst(addr)
        prev_block = addr // block_size
        next_pc = pcs[i + 1] if i + 1 < len(pcs) else pc + 1
        taken = next_pc != pc + 1
        op = exe.instrs[pc].op_class
        refetch = op in (OpClass.JUMP, OpClass.CALL, OpClass.RET)
        if op in (OpClass.LOAD, OpClass.STORE, OpClass.PREFETCH):
            if not hierarchy.dl1.probe(ea):
                code |= DL1_L2 if hierarchy.ul2.probe(ea) else DL1_MEM
            hierarchy.warm_data(ea)
        elif op is OpClass.BRANCH:
            predicted = bpred.predict_and_update(pc, taken)
            mispredicted = predicted != taken or (
                taken and btb.predict(pc) != next_pc
            )
            if taken:
                btb.update(pc, next_pc)
            refetch = taken or mispredicted
            if mispredicted:
                code |= MISPREDICT
            elif taken:
                code |= REDIRECT
        elif op is OpClass.CALL:
            ras.push(pc + 1)
            code |= REDIRECT
        elif op is OpClass.RET:
            code |= REDIRECT if ras.pop() == next_pc else MISPREDICT
        elif op is OpClass.JUMP:
            code |= REDIRECT
        codes.append(code)
    return codes


def _counts(codes):
    """How many positions carry each :data:`COUNTED` outcome."""
    return tuple(sum(1 for c in codes if c & outcome) for outcome in COUNTED)


def _state(model):
    h, bp = model.hierarchy, model.bpred
    caches = [
        (c._sets, c.hits, c.misses) for c in (h.il1, h.dl1, h.ul2)
    ]
    return {
        "caches": caches,
        "bpred": (bp._bimodal, bp._gshare, bp._chooser, bp._history),
        "bpred_stats": (bp.lookups, bp.mispredictions),
        "btb": (model.btb._tags, model.btb._targets),
        "ras": list(model.ras._stack),
    }


GEOMETRY = st.fixed_dictionaries(
    {
        "block_size": st.sampled_from([16, 32, 64]),
        "icache_size": st.sampled_from([512, 1024, 8192]),
        "icache_assoc": st.sampled_from([1, 2]),
        "dcache_size": st.sampled_from([512, 2048, 32768]),
        "dcache_assoc": st.sampled_from([1, 2, 4]),
        "l2_size": st.sampled_from([4096, 16384, 1 << 20]),
        "l2_assoc": st.sampled_from([1, 2, 8]),
        "bpred_size": st.sampled_from([2, 64, 2048]),
        "btb_entries": st.sampled_from([1, 8, 2048]),
    }
)


#: How a window drives the kernel: ``warm`` without or with codes, or
#: ``simulate_window``.
METHODS = ("warm", "warm_codes", "simulate_window")


#: Small direct-mapped caches with 64-byte blocks: conflicts everywhere,
#: and unrolling off leaves jumps that land in their own block.
SMALL = {
    "block_size": 64,
    "icache_size": 512,
    "icache_assoc": 1,
    "dcache_size": 512,
    "dcache_assoc": 1,
    "l2_size": 4096,
    "l2_assoc": 1,
    "bpred_size": 64,
    "btb_entries": 8,
}


@settings(max_examples=60, deadline=None)
@example(
    name="nested_loops",
    flags=(False, False, False),
    geometry=SMALL,
    windows=[
        (0.5, 0.3, "warm"),
        (0.2, 0.5, "warm_codes"),
        (None, 1.0, "warm"),
        (0.1, 0.4, "warm_codes"),
        (0.3, 0.2, "simulate_window"),
    ],
)
@example(
    name="stream",
    flags=(True, False, True),
    geometry=SMALL,
    windows=[(0.4, 0.1, "warm"), (0.1, 0.2, "warm"), (None, 0.05, "warm_codes")],
)
# One walk over the whole trace, as a SMARTS run makes: a large
# predictor saturates most branches, and with one BTB entry a taken
# branch finds its target only after the same branch was taken last.
@example(
    name="calls_and_branches",
    flags=(False, False, False),
    geometry=dict(SMALL, bpred_size=2048, btb_entries=1),
    windows=[(None, 1.0, "warm_codes")],
)
@given(
    name=st.sampled_from(sorted(PROGRAMS)),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    geometry=GEOMETRY,
    windows=st.lists(
        st.tuples(
            # None: start where the last window ended (0 at first).
            st.one_of(st.none(), st.floats(0.0, 1.0)),
            st.floats(0.0, 1.0),
            st.sampled_from(METHODS),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_kernel_matches_per_instruction_reference(name, flags, geometry, windows):
    exe, trace = _build(name, *flags)
    config = MicroarchConfig(**geometry)
    n = len(trace)
    kernel = OooTimingModel(exe, config)
    reference = OooTimingModel(exe, config)
    end = 0
    for at, length, method in windows:
        start = end if at is None else int(at * n)
        end = start + int(length * (n - start))
        want = _reference_walk(reference, exe, trace, start, end)
        if method == "simulate_window":
            kernel.simulate_window(trace, start, end)
        elif method == "warm":
            assert kernel.warm(trace, start, end) == _counts(want), (start, end)
        else:
            codes = bytearray(end - start)
            assert kernel.warm(trace, start, end, codes) == _counts(want), (start, end)
            assert list(codes) == want, (method, start, end)
        assert _state(kernel) == _state(reference), (method, start, end)


def test_warm_rejects_more_codes_than_positions():
    exe, trace = _build("recursive", False, False, False)
    n = len(trace)
    model = OooTimingModel(exe, MicroarchConfig())
    for start, end, codes in [
        (500, 600, bytearray(400)),
        # ``codes`` holds exactly one entry per position of the window.
        (500, 600, bytearray(50)),
        (600, 500, bytearray(1)),
        # The window lies inside the trace.
        (600, 500, None),
        (-5, 10, None),
        (n, n + 10, None),
        (n - 5, n + 5, bytearray(10)),
    ]:
        with pytest.raises(ValueError):
            model.warm(trace, start, end, codes)
    # Nothing was walked.
    assert model.hierarchy.il1.accesses == 0
    codes = bytearray(100)
    assert model.warm(trace, 500, 600, codes) == _counts(codes)
    # A window may end at the trace's end, or be empty there.
    codes = bytearray(10)
    assert model.warm(trace, n - 10, n, codes) == _counts(codes)
    assert model.warm(trace, n, n) == (0,) * len(COUNTED)
