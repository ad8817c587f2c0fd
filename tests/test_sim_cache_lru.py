"""LRU bookkeeping audit for :mod:`repro.sim.cache`.

The simulator's cache/predictor kernel (``OooTimingModel._walk``)
inlines only the MRU-hit fast path and sends every other access through
``Cache.access_block``, so the semantics pinned here are the ones every
simulated access gets: a *hit must refresh recency*, ``probe`` must be
pure, and the stats must be safe on the empty cache.
"""

import pytest

from repro.sim.cache import Cache, CacheHierarchy
from repro.sim.config import TYPICAL


def _two_way():
    # 2 ways x 1 set x 16B blocks: addresses 0, 16, 32, ... all map to
    # the single set, so eviction order is fully observable.
    return Cache(size=32, assoc=2, block_size=16, name="t")


class TestLruRecency:
    def test_hit_refreshes_recency(self):
        c = _two_way()
        c.access(0)  # miss: [0]
        c.access(16)  # miss: [0, 16]
        assert c.access(0)  # hit must move block 0 to MRU: [16, 0]
        c.access(32)  # evicts the LRU block, which is now 16
        assert c.probe(0), "block 0 was hit most recently yet got evicted"
        assert not c.probe(16)

    def test_without_refresh_order_would_differ(self):
        """The insertion-order counterfactual: if hits did not refresh,
        block 0 (inserted first) would be the victim instead of 16."""
        c = _two_way()
        c.access(0)
        c.access(16)
        c.access(0)
        c.access(32)
        assert c.probe(32) and c.probe(0)

    def test_fill_evicts_in_lru_order(self):
        c = Cache(size=64, assoc=4, block_size=16)
        for addr in (0, 16, 32, 48):
            assert not c.access(addr)
        c.access(64)  # 5th block in a 4-way set: victim is block 0
        assert not c.probe(0)
        for addr in (16, 32, 48, 64):
            assert c.probe(addr)

    def test_repeated_hits_keep_single_copy(self):
        """A hit must re-insert the tag exactly once -- a duplicate
        would inflate occupancy and change later eviction decisions."""
        c = _two_way()
        c.access(0)
        for _ in range(3):
            c.access(0)
        c.access(16)
        c.access(32)  # if 0 were duplicated, 16 would now be evicted
        assert c.probe(32) and c.probe(16)
        assert not c.probe(0)


class TestProbePurity:
    def test_probe_does_not_touch_stats(self):
        c = _two_way()
        c.access(0)
        hits, misses = c.hits, c.misses
        c.probe(0)
        c.probe(999)
        assert (c.hits, c.misses) == (hits, misses)

    def test_probe_does_not_refresh_recency(self):
        c = _two_way()
        c.access(0)
        c.access(16)  # LRU order: [0, 16]
        c.probe(0)  # must NOT promote block 0
        c.access(32)  # victim must still be block 0
        assert not c.probe(0)
        assert c.probe(16) and c.probe(32)

    def test_probe_does_not_allocate(self):
        c = _two_way()
        assert not c.probe(0)
        assert not c.probe(0), "probe of a missing block allocated it"
        assert c.accesses == 0


class TestStats:
    def test_miss_rate_zero_accesses(self):
        c = _two_way()
        assert c.accesses == 0
        assert c.miss_rate() == 0.0

    def test_miss_rate_counts(self):
        c = _two_way()
        c.access(0)
        c.access(0)
        c.access(16)
        assert (c.hits, c.misses) == (1, 2)
        assert c.miss_rate() == pytest.approx(2 / 3)
        c.reset_stats()
        assert c.miss_rate() == 0.0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache(size=100, assoc=3, block_size=16)


class TestHierarchyWarmup:
    def test_warm_data_touches_both_levels_on_miss(self):
        h = CacheHierarchy(TYPICAL)
        h.warm_data(0)
        assert h.dl1.probe(0) and h.ul2.probe(0)
        assert h.memory_accesses == 0, "functional warming must not use the bus"

    def test_warm_inst_hits_skip_l2(self):
        h = CacheHierarchy(TYPICAL)
        h.warm_inst(0)
        l2_misses = h.ul2.misses
        h.warm_inst(0)  # IL1 hit: the L2 must not be touched again
        assert h.ul2.misses == l2_misses
        assert h.ul2.accesses == l2_misses
