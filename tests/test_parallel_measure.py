"""Tests for the process-pool measurement backend and the
concurrent-writer-safe persistent cache."""

import json
import multiprocessing
import os
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.harness.configs import TABLE5_CONFIGS
from repro.harness.measure import (
    _BATCH_LOST_CHUNKS,
    _BATCH_SUBMITTED,
    EngineOracle,
    Measurement,
    MeasurementEngine,
    default_jobs,
)
from repro.obs.ledger import Ledger, reset_default_ledger, set_default_ledger
from repro.opt import O2, O3
from repro.pipeline import measure_points
from repro.sim.config import TYPICAL
from repro.space import full_space
from repro.workloads import get_workload


def _random_points(n, seed=0):
    space = full_space()
    rng = np.random.default_rng(seed)
    return space, [space.random_point(rng) for _ in range(n)]


class TestMeasureBatch:
    def test_parallel_identical_to_serial(self):
        """jobs=4 must reproduce the serial engine measurement-for-
        measurement (a point's measurement is a pure function of its
        cache key, whatever process computes it)."""
        _, points = _random_points(5)
        serial = MeasurementEngine()
        expected = [serial.measure("art", p) for p in points]
        parallel = MeasurementEngine()
        got = parallel.measure_batch("art", points, jobs=4)
        assert got == expected

    def test_jobs_one_stays_in_process(self):
        _, points = _random_points(3, seed=1)
        engine = MeasurementEngine()
        got = engine.measure_batch("art", points, jobs=1)
        assert engine.simulations == 3
        assert got == [engine.measure("art", p) for p in points]

    def test_serial_batch_measures_in_binary_order(self):
        """The engine holds one binary, so a serial batch measures its
        misses in binary order: a last point that comes back to the first
        point's binary after six others reuses it instead of compiling it
        again."""
        compilers = [replace(O2, max_inline_insns_auto=100 + k) for k in range(7)]
        requests = [("gen-branchy-3", c, TYPICAL, "train") for c in compilers]
        slow = replace(TYPICAL, mispredict_penalty=12)
        requests.append(("gen-branchy-3", compilers[0], slow, "train"))
        engine = MeasurementEngine(jobs=1)
        got = engine.measure_many(requests)
        assert engine.compilations == 7
        assert engine.simulations == 8
        one_by_one = MeasurementEngine(jobs=1)
        assert got == [one_by_one.measure_configs(*r) for r in requests]

    def test_batch_dedups_and_serves_cache(self):
        _, points = _random_points(2, seed=2)
        engine = MeasurementEngine()
        got = engine.measure_batch(
            "art", [points[0], points[0], points[1]], jobs=2
        )
        assert engine.simulations == 2  # duplicate measured once
        assert got[0] == got[1]
        again = engine.measure_batch("art", points, jobs=2)
        assert engine.simulations == 2  # warm batch: all cache hits
        assert again == got[::2]

    def test_batch_results_are_persisted(self, tmp_path):
        _, points = _random_points(2, seed=3)
        engine = MeasurementEngine(cache_dir=str(tmp_path))
        engine.measure_batch("art", points, jobs=2)
        engine.save()
        fresh = MeasurementEngine(cache_dir=str(tmp_path))
        fresh.measure_batch("art", points, jobs=2)
        assert fresh.simulations == 0

    def test_measure_many_mixed_configs(self):
        engine = MeasurementEngine()
        micro = TABLE5_CONFIGS["typical"]
        o2, o3, o2_again = engine.measure_many(
            [
                ("art", O2, micro, "train"),
                ("art", O3, micro, "train"),
                ("art", O2, micro, "train"),
            ],
            jobs=2,
        )
        assert o2 == o2_again
        assert o2 == engine.measure_configs("art", O2, micro)
        assert o3 == engine.measure_configs("art", O3, micro)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert MeasurementEngine().jobs == 3
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() >= 1

    def test_zero_jobs_means_all_cores(self, monkeypatch):
        """``--jobs 0`` and ``REPRO_JOBS=0`` read the same: all cores."""
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        cores = os.cpu_count() or 1
        assert MeasurementEngine(jobs=0).jobs == cores
        assert MeasurementEngine(jobs=-1).jobs == cores
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == cores


class TestDeadWorker:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the dying worker inherits its patch through fork",
    )
    def test_dead_worker_loses_no_points(self, monkeypatch, tmp_path):
        """A worker that dies mid-batch (an OOM kill, a crash) breaks the
        pool.  The finished chunks are kept, the lost ones are measured
        again in the parent, and the batch equals a serial engine's."""
        requests = [
            (workload, compiler, TYPICAL, "train")
            for workload in ("gen-chase-3", "gen-loopnest-5")
            for compiler in (O2, O3)
        ]
        expected = MeasurementEngine().measure_many(requests, jobs=1)
        parent = os.getpid()
        real = MeasurementEngine._measure_keyed

        def dying(self, key, workload, *args, **kwargs):
            if os.getpid() != parent and workload == "gen-chase-3":
                os._exit(1)
            return real(self, key, workload, *args, **kwargs)

        monkeypatch.setattr(MeasurementEngine, "_measure_keyed", dying)
        ledger = Ledger(tmp_path / "ledger.jsonl")
        set_default_ledger(ledger)
        try:
            before = _BATCH_LOST_CHUNKS.value
            got = MeasurementEngine().measure_many(requests, jobs=2)
        finally:
            reset_default_ledger()
        assert got == expected
        lost = _BATCH_LOST_CHUNKS.value - before
        assert lost in (1, 2)  # the pool may take the other chunk down too
        (event,) = ledger.events()
        assert event.kind == "measure_batch"
        assert event.attrs["lost_chunks"] == lost


class TestChunkPlanning:
    """The 0.39x regression came from one future per point: every task
    paid pool pickling + telemetry overhead and points sharing a binary
    were recompiled in different workers.  The planner must emit at most
    one chunk per worker, keep same-binary points contiguous, and split
    at cost-model boundaries."""

    @staticmethod
    def _pending(engine, requests):
        pending = OrderedDict()
        for i, (w, comp, micro, inp) in enumerate(requests):
            key = engine._result_key(w, inp, comp, micro, engine.mode)
            pending.setdefault(key, []).append(i)
        return pending

    def test_one_chunk_per_worker_and_same_binary_contiguous(self):
        engine = MeasurementEngine()
        micro = TABLE5_CONFIGS["typical"]
        # Same issue width => O2 points share one binary, O3 points
        # another, interleaved in request order.
        micro_b = replace(micro, memory_latency=micro.memory_latency + 50)
        requests = [
            ("art", O2, micro, "train"),
            ("art", O3, micro, "train"),
            ("art", O2, micro_b, "train"),
            ("art", O3, micro_b, "train"),
        ]
        pending = self._pending(engine, requests)
        chunks = engine._plan_chunks(requests, pending, 2)
        assert len(chunks) == 2, "must submit exactly one chunk per worker"
        planned = sorted(t[0] for chunk in chunks for t in chunk)
        assert planned == sorted(pending), "chunks must cover pending exactly"
        for chunk in chunks:
            compilers = {t[2].cache_key() for t in chunk}
            assert len(compilers) == 1, (
                "points sharing a binary were split across workers"
            )

    def test_chunks_split_at_cost_boundaries(self):
        engine = MeasurementEngine()
        # art points are 5x the cost of gzip points: the planner must
        # not hand one worker all the expensive ones plus half the rest.
        engine._point_cost[("art", "train")] = 5.0
        engine._point_cost[("gzip", "train")] = 1.0
        micro = TABLE5_CONFIGS["typical"]
        requests = [
            ("art", O2, micro, "train"),
            ("gzip", O2, micro, "train"),
            ("art", O3, micro, "train"),
            ("gzip", O3, micro, "train"),
        ]
        pending = self._pending(engine, requests)
        chunks = engine._plan_chunks(requests, pending, 2)
        assert len(chunks) == 2
        costs = [
            sum(engine._estimated_cost(t[1], t[4]) for t in chunk)
            for chunk in chunks
        ]
        assert max(costs) <= 0.75 * sum(costs), (
            f"cost-imbalanced chunks: {costs}"
        )

    def test_planner_caps_chunks_at_pending_count(self):
        engine = MeasurementEngine()
        micro = TABLE5_CONFIGS["typical"]
        requests = [("art", O2, micro, "train")]
        pending = self._pending(engine, requests)
        chunks = engine._plan_chunks(requests, pending, 8)
        assert len(chunks) == 1

    def test_pool_submits_at_most_one_task_per_worker(self):
        """End-to-end regression test: a 4-point cold batch at jobs=2
        must enqueue at most 2 pool tasks (the old backend enqueued 4)."""
        _, points = _random_points(4, seed=6)
        serial = MeasurementEngine()
        expected = [serial.measure("art", p) for p in points]
        engine = MeasurementEngine()
        before = _BATCH_SUBMITTED.value
        got = engine.measure_batch("art", points, jobs=2)
        submitted = _BATCH_SUBMITTED.value - before
        assert submitted <= 2, (
            f"{submitted} pool tasks submitted for a 4-point batch at jobs=2"
        )
        assert got == expected


class TestBatchOracleProtocol:
    def test_measure_points_prefers_batch(self):
        space = full_space()
        calls = []

        class FakeOracle:
            def __call__(self, point):
                raise AssertionError("batched oracle must not be "
                                     "called point-at-a-time")

            def measure_many(self, points):
                calls.append(len(points))
                return [float(i) for i in range(len(points))]

        coded = np.zeros((4, space.dim))
        y = measure_points(FakeOracle(), space, coded)
        assert calls == [4]
        assert y.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_measure_points_plain_callable_fallback(self):
        space = full_space()
        coded = np.zeros((3, space.dim))
        y = measure_points(lambda point: 7.0, space, coded)
        assert y.tolist() == [7.0, 7.0, 7.0]

    def test_measure_points_rejects_wrong_batch_shape(self):
        space = full_space()

        class BadOracle:
            def __call__(self, point):
                return 0.0

            def measure_many(self, points):
                return [1.0]  # wrong length

        with pytest.raises(ValueError):
            measure_points(BadOracle(), space, np.zeros((2, space.dim)))

    def test_engine_oracle_batch_matches_scalar(self):
        _, points = _random_points(3, seed=4)
        engine = MeasurementEngine()
        oracle = engine.oracle("art")
        assert isinstance(oracle, EngineOracle)
        batched = oracle.measure_many(points)
        assert batched == [oracle(p) for p in points]

    def test_code_size_oracle_response(self):
        _, points = _random_points(1, seed=5)
        engine = MeasurementEngine()
        oracle = engine.code_size_oracle("art")
        assert oracle(points[0]) == float(
            engine.measure("art", points[0]).code_size
        )


class TestConcurrentSave:
    def _fake(self, cycles):
        return Measurement(
            cycles=cycles,
            checksum=1,
            instructions=10,
            sampling_error=0.0,
            code_size=4,
        )

    def test_disjoint_writers_both_survive(self, tmp_path):
        """Two engines loaded from the same (empty) cache dir save
        disjoint keys; the merge-on-save keeps both on disk."""
        e1 = MeasurementEngine(cache_dir=str(tmp_path))
        e2 = MeasurementEngine(cache_dir=str(tmp_path))
        e1._result_cache["k1"] = self._fake(1.0)
        e1._dirty = True
        e2._result_cache["k2"] = self._fake(2.0)
        e2._dirty = True
        e1.save()
        e2.save()  # last writer: must not discard e1's entry
        raw = json.loads((tmp_path / "measurements.json").read_text())
        assert set(raw) == {"k1", "k2"}
        fresh = MeasurementEngine(cache_dir=str(tmp_path))
        assert fresh._result_cache["k1"].cycles == 1.0
        assert fresh._result_cache["k2"].cycles == 2.0

    def test_memory_wins_on_conflict(self, tmp_path):
        e1 = MeasurementEngine(cache_dir=str(tmp_path))
        e1._result_cache["k"] = self._fake(1.0)
        e1._dirty = True
        e1.save()
        e2 = MeasurementEngine(cache_dir=str(tmp_path))
        e2._result_cache["k"] = self._fake(9.0)
        e2._dirty = True
        e2.save()
        raw = json.loads((tmp_path / "measurements.json").read_text())
        assert raw["k"]["cycles"] == 9.0

    def test_save_absorbs_disk_entries(self, tmp_path):
        e1 = MeasurementEngine(cache_dir=str(tmp_path))
        e1._result_cache["k1"] = self._fake(1.0)
        e1._dirty = True
        e2 = MeasurementEngine(cache_dir=str(tmp_path))
        e2._result_cache["k2"] = self._fake(2.0)
        e2._dirty = True
        e1.save()
        e2.save()
        assert e2._result_cache["k1"].cycles == 1.0

    def test_clean_engine_save_is_noop(self, tmp_path):
        engine = MeasurementEngine(cache_dir=str(tmp_path))
        engine.save()
        assert not (tmp_path / "measurements.json").exists()

    def test_interleaved_writers_across_processes(self, tmp_path):
        """The acceptance scenario: two real processes interleave saves
        to one cache dir; no entry may be lost."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.harness.measure import Measurement, MeasurementEngine\n"
            "tag = sys.argv[1]\n"
            "e = MeasurementEngine(cache_dir=sys.argv[2])\n"
            "for i in range(5):\n"
            "    e._result_cache[f'{tag}-{i}'] = Measurement(\n"
            "        cycles=float(i), checksum=0, instructions=1,\n"
            "        sampling_error=0.0)\n"
            "    e._dirty = True\n"
            "    e.save()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag, str(tmp_path)],
                env={**__import__("os").environ, "PYTHONPATH": "src"},
                cwd=str(Path(__file__).resolve().parent.parent),
            )
            for tag in ("a", "b")
        ]
        for p in procs:
            assert p.wait() == 0
        raw = json.loads((tmp_path / "measurements.json").read_text())
        expected = {f"{tag}-{i}" for tag in ("a", "b") for i in range(5)}
        assert set(raw) == expected


class TestCrossProcessDeterminism:
    def test_compile_is_hash_seed_independent(self):
        """Emitted code must not depend on PYTHONHASHSEED: set-order
        iteration over loop bodies once decided LICM/prefetch/strength
        emission order, so the same point measured differently in
        different processes (breaking serial/parallel bit-identity and
        poisoning the shared cache)."""
        import os
        import subprocess
        import sys

        script = (
            "import hashlib\n"
            "from repro.codegen import compile_module\n"
            "from repro.workloads import get_workload\n"
            "from repro.opt import O2\n"
            "exe = compile_module(get_workload('gzip').module('train'),\n"
            "                     O2, issue_width=4)\n"
            "print(hashlib.sha256(exe.disassemble().encode()).hexdigest())\n"
        )
        digests = set()
        for seed in ("1", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": "src",
                     "PYTHONHASHSEED": seed},
                cwd=str(Path(__file__).resolve().parent.parent),
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestFingerprintFips:
    def test_fingerprint_stable(self):
        import hashlib

        art = get_workload("art")
        a = art.fingerprint("train")
        art._fingerprints.pop("train")
        b = art.fingerprint("train")
        assert a == b and len(a) == 10
        # The spelling every stored measurement and artifact key holds.
        source = art.source("train").encode()
        assert a == hashlib.md5(source, usedforsecurity=False).hexdigest()[:10]

    def test_md5_digests_are_fips_safe(self, monkeypatch):
        """FIPS-mode OpenSSL refuses md5 unless the caller declares a
        non-security use.  Every md5 the package takes is a cache key or
        checksum: each must pass ``usedforsecurity=False`` and yield the
        same digest as before."""
        import hashlib

        from repro.codegen import compile_module
        from repro.minic import compile_source
        from repro.models import LinearModel
        from repro.serve.serialize import model_to_payload
        from repro.sim import static_digest
        from repro.sim.config import TYPICAL
        from repro.workgen import corpus_digest, default_grammar
        from tests.util import SUM_LOOP

        exe = compile_module(compile_source(SUM_LOOP), O2, issue_width=4)
        x = np.random.default_rng(0).uniform(-1, 1, (40, full_space().dim))
        model = LinearModel().fit(x, x.sum(axis=1))

        def digests():
            get_workload("art")._fingerprints.pop("train", None)
            exe.__dict__.pop("_repro_static_digest", None)
            program = default_grammar().generate("chase", 3)
            return (
                get_workload("art").fingerprint("train"),
                program.source,
                program.digest(),
                corpus_digest([program]),
                model_to_payload(model, space=full_space())[0],
                static_digest(exe),
                MeasurementEngine()._run_key(exe, TYPICAL),
            )

        plain = digests()
        real_md5 = hashlib.md5

        def fips_md5(data=b"", *, usedforsecurity=True):
            if usedforsecurity:
                raise ValueError("unsupported hash type md5 in FIPS mode")
            return real_md5(data, usedforsecurity=False)

        monkeypatch.setattr(hashlib, "md5", fips_md5)
        assert digests() == plain
