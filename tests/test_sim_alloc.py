"""Allocation discipline of the simulator's cold path.

A cold design point compiles, traces and times a new binary.  Every
container object that survives on that path is one more object the
cyclic garbage collector counts towards a collection and walks in every
full one, so the hot structures allocate none per instruction and none
per cache set:

* ``execute`` keeps no per-instruction container: what it allocates
  grows with the static code, not with the run;
* the per-position tables of ``TraceTables`` are tuples, equal pcs
  are one shared int object, and equal pcs share one op record;
* a cache set stays the shared empty tuple until its first fill, so a
  timing model over an 8 MB direct-mapped L2 (262,144 sets) is a
  handful of objects.

Counts are ``len(gc.get_objects())`` deltas with the collector off, so
nothing is collected while they are taken.
"""

import gc
from contextlib import contextmanager
from functools import lru_cache

import pytest

from repro.codegen import compile_module
from repro.opt.flags import O2
from repro.sim import MicroarchConfig, OooTimingModel
from repro.sim.cache import Cache
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


def test_trace_tables_are_tuples_of_shared_ints():
    exe = _binary("mcf")
    tables = tables_for(exe, execute(exe).trace)
    ops = tables.ops_for(OooTimingModel(exe, MicroarchConfig()).mdesc)
    per_position = {
        "pcs": tables.pcs,
        "eas": tables.eas,
        "ops": ops,
        "taken": tables.taken,
        "next_pc": tables.next_pc,
        "blocks": tables.blocks_for(32),
        "event positions": tables.events_for(32)[0],
        "event kinds": tables.events_for(32)[1],
    }
    for name, table in per_position.items():
        assert type(table) is tuple, name
    assert len(tables.pcs) == len(tables.next_pc) == tables.n
    # Equal values are one object (ints above 256 are not interned).
    for table in (tables.pcs, tables.next_pc, tables.blocks_for(32)):
        first = {}
        for value in table:
            assert first.setdefault(value, value) is value
    assert max(tables.pcs) > 256
    seen = {pc: pc for pc in tables.pcs}
    assert all(seen[pc] is pc for pc in tables.next_pc[:-1])
    # Equal pcs share one op record.
    record = {}
    for pc, op in zip(tables.pcs, ops):
        assert record.setdefault(pc, op) is op


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
