"""Differential test of the simulator's cache/predictor kernel.

:meth:`OooTimingModel._walk` updates the tag arrays, predictor tables,
BTB and RAS from the trace's event list only, with the caches' MRU hits
inlined.  The reference here walks every instruction through the
component classes instead -- the front end's fetch rule written out:
``warm_inst`` at the window start, at each instruction-block change and
after each taken or mispredicted transfer; ``warm_data`` for loads,
stores and prefetches; ``predict_and_update``; BTB ``predict``/``update``;
RAS ``push``/``pop``.  After each of the same windows, both models must
hold the same state and the same counters, whichever public method
(``warm``, ``simulate_window``) drove the kernel.
"""

from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import compile_module
from repro.codegen.isa import OpClass
from repro.minic import compile_source
from repro.opt.flags import O2
from repro.sim import MicroarchConfig, OooTimingModel
from repro.sim.func import execute
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
    """Per-instruction walk through the component classes."""
    hierarchy, bpred, btb, ras = model.hierarchy, model.bpred, model.btb, model.ras
    block_size = model.config.block_size
    pcs, eas = trace.pcs.tolist(), trace.eas.tolist()
    refetch = True
    prev_block = None
    for i in range(start, end):
        pc, ea = pcs[i], eas[i]
        addr = exe.pc_to_byte_addr(pc)
        if refetch or addr // block_size != prev_block:
            hierarchy.warm_inst(addr)
        prev_block = addr // block_size
        next_pc = pcs[i + 1] if i + 1 < len(pcs) else pc + 1
        taken = next_pc != pc + 1
        op = exe.instrs[pc].op_class
        refetch = op in (OpClass.JUMP, OpClass.CALL, OpClass.RET)
        if op in (OpClass.LOAD, OpClass.STORE, OpClass.PREFETCH):
            hierarchy.warm_data(ea)
        elif op is OpClass.BRANCH:
            predicted = bpred.predict_and_update(pc, taken)
            mispredicted = predicted != taken or (
                taken and btb.predict(pc) != next_pc
            )
            if taken:
                btb.update(pc, next_pc)
            refetch = taken or mispredicted
        elif op is OpClass.CALL:
            ras.push(pc + 1)
        elif op is OpClass.RET:
            ras.pop()


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


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(PROGRAMS)),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    geometry=GEOMETRY,
    cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
    methods=st.lists(
        st.sampled_from(["warm", "simulate_window"]),
        min_size=5,
        max_size=5,
    ),
)
def test_kernel_matches_per_instruction_reference(
    name, flags, geometry, cuts, methods
):
    exe, trace = _build(name, *flags)
    config = MicroarchConfig(**geometry)
    n = len(trace)
    bounds = sorted({0, n, *(int(c * n) for c in cuts)})
    kernel = OooTimingModel(exe, config)
    reference = OooTimingModel(exe, config)
    for (start, end), method in zip(zip(bounds, bounds[1:]), methods):
        getattr(kernel, method)(trace, start, end)
        _reference_walk(reference, exe, trace, start, end)
        assert _state(kernel) == _state(reference), (method, start, end)
