"""Tests for the measurement engine and harness plumbing."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.codegen import COMPILER_VERSION
from repro.harness.configs import (
    TABLE5_CONFIGS,
    joint_point,
    microarch_point,
    split_point,
)
from repro.harness.measure import MeasurementEngine
from repro.opt import CompilerConfig, O2, O3
from repro.sim.config import MicroarchConfig
from repro.space import full_space
from repro.workloads import get_workload


class TestConfigs:
    def test_split_point_roundtrip(self):
        space = full_space()
        rng = np.random.default_rng(0)
        point = space.random_point(rng)
        compiler, microarch = split_point(point)
        rebuilt = joint_point(compiler, microarch)
        assert rebuilt == point

    def test_table5_configs_match_paper(self):
        c = TABLE5_CONFIGS["constrained"]
        assert c.issue_width == 2
        assert c.ruu_size == 16
        assert c.l2_size == 256 * 1024
        a = TABLE5_CONFIGS["aggressive"]
        assert a.bpred_size == 8192
        assert a.memory_latency == 150
        t = TABLE5_CONFIGS["typical"]
        assert t.l2_size == 1024 * 1024

    def test_o3_is_o2_plus_inline_prefetch(self):
        assert not O2.inline_functions and not O2.prefetch_loop_arrays
        assert O3.inline_functions and O3.prefetch_loop_arrays
        assert O3.schedule_insns2 and O3.gcse

    def test_compiler_config_from_point_rounding(self):
        cfg = CompilerConfig.from_point(
            {"inline_functions": 1.0, "max_unroll_times": 8.0}
        )
        assert cfg.inline_functions is True
        assert cfg.max_unroll_times == 8

    def test_microarch_from_point_partial(self):
        mc = MicroarchConfig.from_point({"ruu_size": 128.0})
        assert mc.ruu_size == 128
        assert mc.issue_width == 4  # default retained


class TestMeasurementEngine:
    def test_measure_caches_results(self):
        engine = MeasurementEngine()
        space = full_space()
        point = space.decode(np.zeros(space.dim))
        a = engine.measure("art", point)
        sims_after_first = engine.simulations
        b = engine.measure("art", point)
        assert engine.simulations == sims_after_first
        assert a.cycles == b.cycles

    def test_trace_shared_across_microarch(self):
        engine = MeasurementEngine(jobs=1)
        m1, m2, m3 = engine.measure_many(
            [
                ("art", O2, TABLE5_CONFIGS[name], "train")
                for name in ("typical", "constrained", "aggressive")
            ]
        )
        # Different issue width -> new binary; same width -> reuse, even
        # though constrained comes between them in request order.
        assert engine.compilations == 2
        assert m1.checksum == m2.checksum == m3.checksum

    def test_checksum_invariant_across_points(self):
        engine = MeasurementEngine()
        space = full_space()
        rng = np.random.default_rng(3)
        checksums = {
            engine.measure("gzip", space.random_point(rng)).checksum
            for _ in range(3)
        }
        assert len(checksums) == 1

    def test_disk_cache_roundtrip(self, tmp_path):
        space = full_space()
        point = space.decode(np.zeros(space.dim))
        engine1 = MeasurementEngine(cache_dir=str(tmp_path))
        a = engine1.measure("art", point)
        engine1.save()
        engine2 = MeasurementEngine(cache_dir=str(tmp_path))
        b = engine2.measure("art", point)
        assert engine2.simulations == 0
        assert a.cycles == b.cycles

    def test_shared_artifacts_keep_inputs_apart(self, tmp_path):
        """mcf's train and ref inputs differ only in initialised data, so
        their O2 binaries have identical code: the stored trace of one
        must not be served for the other."""
        shared = str(tmp_path / "artifacts")
        typical = TABLE5_CONFIGS["typical"]
        width = typical.issue_width
        MeasurementEngine(artifact_dir=shared).compile_and_trace(
            "mcf", "train", O2, width
        )
        served = MeasurementEngine(artifact_dir=shared).measure_configs(
            "mcf", O2, typical, "ref"
        )
        _, alone = MeasurementEngine().compile_and_trace("mcf", "ref", O2, width)
        assert served.checksum == alone.return_value
        assert served.instructions == alone.instruction_count

    def test_keys_without_the_simulator_version_are_never_served(self, tmp_path):
        """Before traces were keyed on initialised data, mcf ``ref``
        could be timed on ``train``'s trace: 362,512 cycles and checksum
        241 at O2/TYPICAL.  Such entries sit in ``measurements.json``
        under keys that name only the compiler version; measurement keys
        also name the simulator version, so none of them is served."""
        typical = TABLE5_CONFIGS["typical"]
        stale_key = "|".join(
            [
                "mcf",
                "ref",
                get_workload("mcf").fingerprint("ref"),
                f"cc{COMPILER_VERSION}",
                "smarts",
                "3",
            ]
            + [str(v) for v in O2.cache_key()]
            # The 11 Table 2 values of TYPICAL, as keys of that time
            # spelled the microarchitecture.
            + ["4", "2048", "64", "32768", "32768", "1", "2", "1048576"]
            + ["4", "10", "100"]
        )
        # mcf train's measurement at O2/TYPICAL.
        stale = {
            "cycles": 362511.6716091548,
            "checksum": 241,
            "instructions": 851283,
            "sampling_error": 0.051792686053224714,
            "code_size": 299,
        }
        (tmp_path / "measurements.json").write_text(json.dumps({stale_key: stale}))
        engine = MeasurementEngine(cache_dir=str(tmp_path), jobs=1)
        m = engine.measure_configs("mcf", O2, typical, "ref")
        assert engine.simulations == 1
        # The IR interpreter's checksum of mcf on input ref.
        assert m.checksum == -5262

    def test_structural_fields_key_the_result_cache(self):
        """Two microarchitectures that differ only outside Table 2 time
        differently, so one engine must not serve the first one's result
        for the second.  Keyed on the 11 Table 2 values, the second call
        returned the first call's 12,341.8 cycles instead of 14,446.4."""
        typical = TABLE5_CONFIGS["typical"]
        slow = replace(typical, mispredict_penalty=12, bus_transfer_cycles=40)
        engine = MeasurementEngine(jobs=1)
        first = engine.measure_configs("gen-branchy-3", O2, typical)
        second = engine.measure_configs("gen-branchy-3", O2, slow)
        fresh = MeasurementEngine(jobs=1).measure_configs(
            "gen-branchy-3", O2, slow
        )
        assert engine.simulations == 2
        assert second == fresh
        assert second.cycles > first.cycles

    def test_oracle_interface(self):
        engine = MeasurementEngine()
        space = full_space()
        oracle = engine.oracle("art")
        point = space.decode(np.zeros(space.dim))
        assert oracle(point) == engine.cycles("art", point)

    def test_detailed_mode(self):
        engine = MeasurementEngine(mode="detailed")
        space = full_space()
        point = space.decode(np.zeros(space.dim))
        m = engine.measure("art", point)
        assert m.sampling_error == 0.0
