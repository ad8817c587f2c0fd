"""Allocation discipline of the simulator's cold path.

A cold design point compiles, traces and times a new binary.  Every
container object that survives on that path is one more object the
cyclic garbage collector counts towards a collection and walks in every
full one, and every byte a trace's tables take stays resident as long
as the measurement engine keeps the binary.  So the hot structures
allocate no container per instruction and none per cache set:

* ``execute`` keeps no per-instruction container: what it allocates
  grows with the static code, not with the run;
* a trace's tables cost at most 16 bytes per position beside the
  packed trace itself, and keep one op record per pc, which every
  position with that pc shares;
* building them peaks at most 32 bytes per position above the trace,
  on each of the seven programs: the event list is built a chunk of
  positions at a time;
* a trace loaded from the artifact store wraps the stored bytes
  read-only instead of copying them, and simulates exactly as the
  trace it was stored from, so nothing writes into a trace;
* the trace owns its tables, and they hold no reference to the trace
  or its binary, so a binary and its trace are freed the moment the
  measurement engine moves to another binary, not at the next full
  collection, and simulating a trace leaves its binary as it was;
* the measurement engine holds one binary at a time;
* a cache set stays the shared empty tuple until its first fill, so a
  timing model over an 8 MB direct-mapped L2 (262,144 sets) is a
  handful of objects.

Counts are ``len(gc.get_objects())`` deltas with the collector off, so
nothing is collected while they are taken.  The eviction tests run with
the collector off too, so only reference counting can free a binary.
Peaks are ``tracemalloc``'s, which sees numpy's array buffers too.
"""

import gc
import pickle
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.codegen import compile_module
from repro.codegen.machine_desc import MachineDescription
from repro.harness.artifacts import ArtifactStore
from repro.harness.measure import MeasurementEngine
from repro.opt.flags import O2
from repro.sim import MicroarchConfig, OooTimingModel, smarts_simulate
from repro.sim.cache import Cache
from repro.sim.config import TYPICAL
from repro.sim.func import execute
from repro.sim.tracepack import PackedTrace, tables_for
from repro.workloads import get_workload


@contextmanager
def tracked_growth():
    """Yields a list that receives the growth in GC-tracked objects."""
    growth = []
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        yield growth
        growth.append(len(gc.get_objects()) - before)
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@lru_cache(maxsize=None)
def _binary(name: str):
    return compile_module(get_workload(name).module("train"), O2, issue_width=4)


def test_timing_model_over_a_huge_l2_is_a_handful_of_objects():
    config = MicroarchConfig(l2_size=8 << 20, l2_assoc=1, block_size=32)
    exe = _binary("art")
    with tracked_growth() as growth:
        model = OooTimingModel(exe, config)
    assert model.hierarchy.ul2.n_sets == 262_144
    assert growth[0] < 100


@pytest.mark.parametrize("collect_trace", [True, False])
def test_execute_allocates_with_static_not_dynamic_size(collect_trace):
    exe = _binary("gzip")
    execute(exe, collect_trace=False)  # warm imports and caches
    with tracked_growth() as growth:
        result = execute(exe, collect_trace=collect_trace)
    assert result.instruction_count > 100 * len(exe.instrs)
    assert growth[0] < 4 * len(exe.instrs)
    if collect_trace:
        assert isinstance(result.trace, PackedTrace)
        assert len(result.trace) == result.instruction_count


def _deep_size(root, skip) -> int:
    """Bytes of ``root`` and everything it reaches, each object once,
    leaving out the objects in ``skip`` and classes."""
    seen = {id(obj) for obj in skip}
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, np.ndarray):
            # An array counts its data only where it owns it.
            if obj.base is not None:
                stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return total


def test_trace_tables_cost_at_most_16_bytes_per_position():
    exe = _binary("mcf")
    trace = execute(exe).trace
    config = MicroarchConfig()
    smarts_simulate(exe, config, trace, interval=3)
    mdesc = MachineDescription.for_issue_width(config.issue_width)
    tables = tables_for(exe, trace, config.block_size, mdesc)
    # The packed trace and the instruction list are the trace's and the
    # binary's, whatever tables are built on them.
    size = _deep_size(tables, skip=(trace.pcs, trace.eas, exe.instrs))
    assert size <= 16 * len(trace)
    # One op record per pc; a window's records are gathered from them,
    # so equal pcs share one record.
    records = tables.ops_for(mdesc)
    assert len(records) == len(exe.instrs)
    pcs = trace.pcs[:20_000]
    for pc, op in zip(pcs.tolist(), records.take(pcs).tolist()):
        assert op is records[pc]


@pytest.mark.parametrize(
    "name", ["art", "bzip2", "gzip", "mcf", "mesa", "vortex", "vpr"]
)
def test_building_a_traces_tables_peaks_at_most_32_bytes_per_position(name):
    exe = _binary(name)
    trace = execute(exe).trace
    mdesc = MachineDescription.for_issue_width(TYPICAL.issue_width)
    gc.collect()
    tracemalloc.start()
    try:
        tables_for(exe, trace, TYPICAL.block_size, mdesc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * len(trace)


def _stored_and_loaded(tmp_path, exe):
    """The executed run of ``exe`` and the same run stored in, then
    loaded from, a fresh artifact store."""
    functional = execute(exe)
    store = ArtifactStore(tmp_path)
    store.store_trace(exe, functional)
    return functional, store.load_trace(exe)


def test_a_loaded_trace_wraps_the_stored_bytes_read_only(tmp_path):
    exe = _binary("gzip")
    functional, loaded = _stored_and_loaded(tmp_path, exe)
    n = len(functional.trace)
    assert len(loaded.trace) == n
    for array, executed in (
        (loaded.trace.pcs, functional.trace.pcs),
        (loaded.trace.eas, functional.trace.eas),
    ):
        assert np.array_equal(array, executed)
        assert not array.flags.writeable and not array.flags.owndata
        # The unpickled bytes object is the array's buffer.
        assert isinstance(array.base, bytes) and len(array.base) == 8 * n


def test_a_loaded_trace_simulates_like_the_executed_one(tmp_path):
    exe = _binary("art")
    functional, loaded = _stored_and_loaded(tmp_path, exe)
    config = MicroarchConfig()
    # A write into the read-only arrays would raise.
    assert smarts_simulate(exe, config, loaded.trace) == smarts_simulate(
        exe, config, functional.trace
    )
    assert OooTimingModel(exe, config).simulate_trace(
        loaded.trace
    ) == OooTimingModel(exe, config).simulate_trace(functional.trace)


def test_an_evicted_binary_and_its_trace_are_freed_at_once():
    engine = MeasurementEngine()
    config = MicroarchConfig()
    with collector_off():
        engine.measure_configs("art", O2, config)
        exe, functional = engine.compile_and_trace(
            "art", "train", O2, config.issue_width
        )
        assert engine.compilations == 1  # the measured binary, still held
        binary = weakref.ref(exe)
        pcs = weakref.ref(functional.trace.pcs)
        del exe, functional
        engine.measure_configs("gzip", O2, config)
        assert binary() is None
        assert pcs() is None


def test_an_engine_holds_only_the_binary_it_measured_last():
    engine = MeasurementEngine()
    config = MicroarchConfig()
    refs = {}
    with collector_off():
        for name in ("art", "gzip", "mcf"):
            engine.measure_configs(name, O2, config)
            exe, functional = engine.compile_and_trace(
                name, "train", O2, config.issue_width
            )
            refs[name] = (weakref.ref(exe), weakref.ref(functional.trace.pcs))
            del exe, functional
        assert engine.compilations == 3
        for name in ("art", "gzip"):
            assert [ref() for ref in refs[name]] == [None, None], name
        assert all(ref() is not None for ref in refs["mcf"])


def test_simulating_a_trace_leaves_its_binary_unchanged():
    exe = _binary("art")
    trace = execute(exe).trace
    before = pickle.dumps(exe)
    smarts_simulate(exe, TYPICAL, trace, interval=3)
    assert pickle.dumps(exe) == before
    assert trace.tables.instrs is exe.instrs


def test_a_trace_rebuilds_its_tables_only_for_another_binary():
    exe = _binary("art")
    trace = execute(exe).trace
    mdesc = MachineDescription.for_issue_width(TYPICAL.issue_width)
    tables = tables_for(exe, trace, TYPICAL.block_size, mdesc)
    assert tables_for(exe, trace, TYPICAL.block_size, mdesc) is tables
    twin = replace(exe, instrs=list(exe.instrs))
    rebuilt = tables_for(twin, trace, TYPICAL.block_size, mdesc)
    assert rebuilt is not tables and trace.tables is rebuilt
    assert rebuilt.ops_for(mdesc).tolist() == tables.ops_for(mdesc).tolist()


class TestNeverTouchedSets:
    def test_sets_start_as_the_shared_empty_tuple(self):
        c = Cache(1024, 2, 32)
        assert all(ways == () for ways in c._sets)

    def test_access_block_fills_a_fresh_set(self):
        c = Cache(1024, 2, 32)
        assert not c.access_block(5)
        assert c.access_block(5)
        assert (c.hits, c.misses) == (1, 1)
        assert c._sets[5 % c.n_sets] == [5 // c.n_sets]
        # Only the touched set was materialized.
        assert sum(1 for ways in c._sets if ways != ()) == 1

    def test_probe_does_not_materialize(self):
        c = Cache(1024, 2, 32)
        assert not c.probe(4096)
        assert all(ways == () for ways in c._sets)
        assert (c.hits, c.misses) == (0, 0)

    def test_miss_rate_of_an_untouched_cache(self):
        c = Cache(1024, 2, 32)
        assert c.miss_rate() == 0.0
        c.access(0)
        assert c.miss_rate() == 1.0

    def test_eviction_after_lazy_fill(self):
        c = Cache(64, 2, 32)  # one set, two ways
        for addr in (0, 32, 64):
            assert not c.access(addr)
        assert not c.probe(0)
        assert c.probe(32) and c.probe(64)
