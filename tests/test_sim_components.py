"""Tests for caches, branch predictors and the functional simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import compile_module
from repro.codegen.isa import OpClass
from repro.minic import compile_source
from repro.opt import CompilerConfig
from repro.sim import Cache, CombinedPredictor, MicroarchConfig, OooTimingModel
from repro.sim.bpred import BranchTargetBuffer, ReturnAddressStack
from repro.sim.func import SimulationError, execute
from repro.sim.ooo import FRONT_DEPTH
from repro.sim.tracepack import PackedTrace
from tests.util import ALL_PROGRAMS


class TestCache:
    def test_cold_miss_then_hit(self):
        c = Cache(1024, 2, 32)
        assert not c.access(0)
        assert c.access(0)
        assert c.access(31)  # same block
        assert not c.access(32)  # next block

    def test_direct_mapped_conflict(self):
        c = Cache(1024, 1, 32)  # 32 sets
        a, b = 0, 1024  # same set, different tags
        c.access(a)
        c.access(b)
        assert not c.access(a)  # evicted

    def test_associativity_resolves_conflict(self):
        c = Cache(2048, 2, 32)  # same #sets as above, 2 ways
        a, b = 0, 2048
        c.access(a)
        c.access(b)
        assert c.access(a)

    def test_lru_order(self):
        c = Cache(2 * 32, 2, 32)  # one set, two ways
        c.access(0)
        c.access(64)
        c.access(0)  # refresh 0
        c.access(128)  # evicts 64, not 0
        assert c.access(0)
        assert not c.access(64)

    def test_capacity_matches_size(self):
        c = Cache(4096, 4, 32)
        blocks = 4096 // 32
        for i in range(blocks):
            c.access(i * 32)
        c.reset_stats()
        for i in range(blocks):
            assert c.access(i * 32)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache(1000, 3, 32)

    def test_miss_rate(self):
        c = Cache(1024, 1, 32)
        c.access(0)
        c.access(0)
        assert c.miss_rate() == 0.5

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=200))
    def test_matches_reference_lru_model(self, addrs):
        """Tag-array implementation equals a straightforward LRU model."""
        c = Cache(512, 2, 32)
        reference = {}  # set -> list of tags (LRU first)
        clock = 0
        for addr in addrs:
            block = addr // 32
            set_i, tag = block % c.n_sets, block // c.n_sets
            ways = reference.setdefault(set_i, [])
            expect_hit = tag in ways
            if expect_hit:
                ways.remove(tag)
            ways.append(tag)
            if len(ways) > 2:
                ways.pop(0)
            assert c.access(addr) == expect_hit


#: One strided read loop: with prefetching on, the binary holds both a
#: load and a prefetch instruction for the single-instruction traces
#: below.
PROBE = """
int g[4096];
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 4096; i = i + 1) { s = s + g[i]; }
    return s;
}
"""


def _trace(*pairs):
    """A hand-built trace of ``(pc, ea)`` pairs."""
    return PackedTrace.from_pairs(pairs)


def _probe(**microarch):
    """A timing model, plus the pcs of a load and a prefetch in its binary."""
    exe = compile_module(
        compile_source(PROBE),
        CompilerConfig(prefetch_loop_arrays=True),
        issue_width=4,
    )
    pcs = {instr.op_class: pc for pc, instr in enumerate(exe.instrs)}
    model = OooTimingModel(exe, MicroarchConfig(**microarch))
    return model, pcs[OpClass.LOAD], pcs[OpClass.PREFETCH]


class TestHierarchy:
    """Latency composition, seen through the timing model: one load whose
    code is already in IL1 issues ``FRONT_DEPTH`` cycles into a window
    and commits when its data arrives."""

    def test_latency_composition(self):
        model, load, _ = _probe()
        cfg = model.config
        model.warm(_trace((load, 0)), 0, 1)
        hit = FRONT_DEPTH + cfg.dcache_latency
        cold = model.simulate_trace(_trace((load, 1 << 20))).cycles
        assert cold == hit + cfg.l2_latency + cfg.memory_latency
        assert model.simulate_trace(_trace((load, 1 << 20))).cycles == hit

    def test_l2_hit_path(self):
        model, load, _ = _probe(dcache_size=8 * 1024, dcache_assoc=1)
        cfg = model.config
        model.warm(_trace((load, 0)), 0, 1)
        # Evict from dl1 but not from l2: a conflicting dl1 address.
        model.warm(_trace((load, 8 * 1024)), 0, 1)
        lat = model.simulate_trace(_trace((load, 0))).cycles
        assert lat == FRONT_DEPTH + cfg.dcache_latency + cfg.l2_latency

    def test_prefetch_fills_quietly(self):
        model, load, prefetch = _probe()
        model.warm(_trace((prefetch, 0), (load, 0)), 0, 2)
        # The prefetch goes to memory; the load right behind it hits.
        result = model.simulate_trace(_trace((prefetch, 64), (load, 64)))
        assert result.cycles == FRONT_DEPTH + model.config.dcache_latency
        assert model.hierarchy.memory_accesses == 1


class TestPredictor:
    def test_learns_constant_direction(self):
        p = CombinedPredictor(512)
        for _ in range(8):
            p.predict_and_update(100, True)
        assert p.predict(100) is True

    def test_learns_alternation_via_history(self):
        p = CombinedPredictor(4096)
        outcome = True
        for _ in range(200):
            p.predict_and_update(64, outcome)
            outcome = not outcome
        # After training, the gshare side should track the alternation.
        correct = 0
        for _ in range(20):
            pred = p.predict_and_update(64, outcome)
            if pred == outcome:
                correct += 1
            outcome = not outcome
        assert correct >= 18

    def test_size_power_of_two_required(self):
        with pytest.raises(ValueError):
            CombinedPredictor(1000)

    def test_misprediction_rate_tracked(self):
        p = CombinedPredictor(512)
        for _ in range(10):
            p.predict_and_update(4, True)
        assert 0.0 <= p.misprediction_rate() <= 1.0

    def test_btb(self):
        btb = BranchTargetBuffer(512)
        assert btb.predict(10) is None
        btb.update(10, 99)
        assert btb.predict(10) == 99

    def test_ras_lifo(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)  # overflows, drops 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None


class TestFunctionalSim:
    def run(self, src, config=None):
        module = compile_source(src)
        exe = compile_module(module, config or CompilerConfig())
        return execute(exe)

    def test_return_value(self):
        assert self.run("int main() { return 41 + 1; }").return_value == 42

    def test_global_initializers_visible(self):
        assert self.run("int g = 17; int main() { return g; }").return_value == 17

    def test_uninitialized_memory_is_zero(self):
        src = "int a[4]; int main() { return a[2]; }"
        assert self.run(src).return_value == 0

    def test_trace_length_matches_count(self):
        r = self.run(ALL_PROGRAMS["sum_loop"])
        assert len(r.trace) == r.instruction_count

    def test_trace_memory_addresses(self):
        src = "int a[4]; int main() { a[1] = 5; return a[1]; }"
        r = self.run(src, CompilerConfig(omit_frame_pointer=True))
        mem_addrs = [ea for ea in r.trace.eas.tolist() if ea >= 0]
        assert len(mem_addrs) >= 2
        assert mem_addrs[-1] == mem_addrs[-2]  # store then load same addr

    def test_infinite_loop_guard(self):
        src = "int main() { while (1) { } return 0; }"
        module = compile_source(src)
        exe = compile_module(module, CompilerConfig())
        with pytest.raises(SimulationError):
            execute(exe, max_instructions=10_000)

    def test_float_computation(self):
        src = """
        float x = 2.5;
        int main() { return (int)(x * 4.0); }
        """
        assert self.run(src).return_value == 10

    def test_division_semantics_match_ir(self):
        src = "int main() { return (0 - 7) / 2; }"
        assert self.run(src).return_value == -3

    def test_wraparound(self):
        src = """
        int main() {
            int big = 1;
            int i;
            for (i = 0; i < 63; i = i + 1) { big = big * 2; }
            return (int)(big < 0);
        }
        """
        assert self.run(src).return_value == 1
