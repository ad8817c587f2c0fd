"""Bit-identity, key-soundness and size tests for the timing memo.

``tests/data/golden_measure_pr8.json`` holds 27 SMARTS measurements.
Their checksums, instruction counts and code sizes were captured
*before* the hot-loop rewrite and the memo/artifact caches existed.
Their cycles and sampling errors were captured again when the sampler
began to time unit 0 exactly, walk every position once and estimate
the total by regression, at interval 8 (``SIM_MEMO_VERSION`` 2); every
one moved towards the exhaustive cycles.  Every cached path -- fresh
engine, artifact-store warm engine, run memo hit -- must reproduce
those numbers exactly: the caches are allowed to make measurement
cheaper, never different.

The memo belongs to :class:`MeasurementEngine`, which looks a run up as
soon as it has the binary, so a hit loads no trace and runs no
simulator.  It keeps whole runs only.  Files written while its key also
held a digest of the trace serve nothing, and their entries are dropped
on the next save.
"""

import json
import math
import shutil
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.harness import measure
from repro.harness.measure import MeasurementEngine
from repro.obs import counter
from repro.opt import O2
from repro.sim import TimingMemo, static_digest, timing_key
from repro.sim.config import AGGRESSIVE, TYPICAL, MicroarchConfig
from repro.sim.memo import SIM_MEMO_VERSION

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_measure_pr8.json").read_text()
)

#: A stored run, as the engine writes it.
RUN = {
    "cycles": 123.5,
    "checksum": 7,
    "instructions": 100,
    "sampling_error": float("inf"),
}


def _check(m, entry):
    label = entry["label"]
    assert m.cycles == entry["cycles"], label
    assert m.checksum == entry["checksum"], label
    assert m.instructions == entry["instructions"], label
    assert m.sampling_error == entry["sampling_error"], label
    assert m.code_size == entry["code_size"], label


def _memo_engine(directory):
    return MeasurementEngine(memo_path=str(directory / "sim_memo.json"))


@pytest.fixture(scope="module")
def golden_stores(tmp_path_factory):
    """A cache directory populated by a cold engine measuring every
    golden point; the cold engine must match the golden numbers too."""
    root = tmp_path_factory.mktemp("golden")
    cold = MeasurementEngine(cache_dir=str(root))
    for entry in GOLDEN:
        _check(cold.measure(entry["workload"], entry["point"]), entry)
    cold.save()
    return root


class TestGoldenBitIdentity:
    def test_all_cached_paths_reproduce_pre_memo_measurements(self, golden_stores):
        """A fresh engine served entirely from the on-disk stores must
        match the pre-optimization golden numbers bit for bit."""
        # No measurement cache -- only the artifact store and the timing
        # memo persist.  Every simulation collapses to a run-level memo
        # hit and no compile may happen.
        warm = MeasurementEngine(
            artifact_dir=str(golden_stores / "artifacts"),
            memo_path=str(golden_stores / "sim_memo.json"),
        )
        for entry in GOLDEN:
            _check(warm.measure(entry["workload"], entry["point"]), entry)
        assert warm.compilations == 0, "warm engine recompiled a binary"

    def test_memo_hits_need_no_trace(self, golden_stores, monkeypatch):
        """With every stored trace deleted, a fresh engine over the
        binaries and the memo still serves all golden points: it neither
        compiles, executes nor samples a SMARTS unit."""
        shutil.rmtree(golden_stores / "artifacts" / "trace")
        (golden_stores / "artifacts" / "trace").mkdir()

        def refuse(*args, **kwargs):
            raise AssertionError("a memo hit compiled or executed")

        monkeypatch.setattr(measure, "execute", refuse)
        monkeypatch.setattr(measure, "compile_module", refuse)
        names = (
            "smarts.units.sampled",
            "sim.memo.run.hits",
            "measure.artifacts.trace_hits",
            "measure.artifacts.trace_misses",
        )
        before = [counter(n).value for n in names]
        warm = MeasurementEngine(
            artifact_dir=str(golden_stores / "artifacts"),
            memo_path=str(golden_stores / "sim_memo.json"),
        )
        for entry in GOLDEN:
            _check(warm.measure(entry["workload"], entry["point"]), entry)
        deltas = [counter(n).value - b for n, b in zip(names, before)]
        assert deltas == [0, len(GOLDEN), 0, 0]


class TestFlagNoiseCollapse:
    def test_codegen_inert_flag_pairs_share_one_memo_entry(self, tmp_path):
        """Heuristic knobs whose governing flag is off (O2 has inlining,
        unrolling and prefetching disabled) cannot change the emitted
        code, so their design points must collapse to one memo entry --
        and every memoized result must equal its memo-less counterpart."""
        variants = [
            O2,
            replace(O2, max_inline_insns_auto=250),
            replace(O2, inline_unit_growth=80),
            replace(O2, inline_call_cost=4),
            replace(O2, max_unroll_times=2),
            replace(O2, max_unrolled_insns=50),
            replace(O2, omit_frame_pointer=False),  # codegen-relevant
        ]
        # One artifact store: the memo-less engine compiles and traces
        # each variant once for both engines.
        artifacts = str(tmp_path / "artifacts")
        plain = MeasurementEngine(artifact_dir=artifacts)
        memoized = MeasurementEngine(
            artifact_dir=artifacts, memo_path=str(tmp_path / "sim_memo.json")
        )
        digests = set()
        for cfg in variants:
            m = plain.measure_configs("art", cfg, TYPICAL)
            assert memoized.measure_configs("art", cfg, TYPICAL) == m, (
                f"memo changed the result for {cfg}"
            )
            exe, _ = plain.compile_and_trace("art", "train", cfg, 4)
            digests.add(static_digest(exe))
        assert len(digests) < len(variants), (
            "expected at least one codegen-inert flag pair"
        )
        assert memoized.memo.n_runs == len(digests), (
            "distinct binaries and memo entries must correspond 1:1"
        )


class TestCrossMicroarchKeys:
    def test_every_config_field_changes_the_timing_key(self):
        base = timing_key(TYPICAL)
        assert base.startswith(f"v{SIM_MEMO_VERSION}|")
        for f in fields(MicroarchConfig):
            bumped = replace(TYPICAL, **{f.name: getattr(TYPICAL, f.name) + 1})
            assert timing_key(bumped) != base, (
                f"{f.name} does not participate in the timing key: two "
                f"microarchitectures could collide in the memo"
            )

    def test_shared_memo_keeps_microarchs_apart(self, tmp_path):
        """TYPICAL and AGGRESSIVE share an issue width, hence one binary;
        the memo must keep two entries for it."""
        engine = _memo_engine(tmp_path)
        typ = engine.measure_configs("art", O2, TYPICAL)
        agg = engine.measure_configs("art", O2, AGGRESSIVE)
        assert typ.cycles != agg.cycles
        assert engine.compilations == 1
        assert engine.memo.n_runs == 2
        engine.save()
        # A fresh engine over the same memo is served both runs.
        hits = counter("sim.memo.run.hits").value
        fresh = _memo_engine(tmp_path)
        assert fresh.measure_configs("art", O2, TYPICAL) == typ
        assert fresh.measure_configs("art", O2, AGGRESSIVE) == agg
        assert counter("sim.memo.run.hits").value - hits == 2


class TestPersistence:
    def test_round_trip_including_inf(self, tmp_path):
        path = tmp_path / "memo.json"
        m = TimingMemo(path)
        m.put_run("rk", RUN)
        m.save()
        got = TimingMemo(path).get_run("rk")
        assert math.isinf(got["sampling_error"])
        assert got == RUN

    def test_version_mismatch_ignored(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text(json.dumps({"version": -1, "runs": {"rk": {}}}))
        assert TimingMemo(path).get_run("rk") is None

    def test_concurrent_writers_merge(self, tmp_path):
        path = tmp_path / "memo.json"
        a = TimingMemo(path)
        b = TimingMemo(path)
        a.put_run("ra", {**RUN, "cycles": 1.0})
        b.put_run("rb", {**RUN, "cycles": 2.0})
        a.save()
        b.save()  # must absorb a's entry, not clobber it
        fresh = TimingMemo(path)
        assert fresh.n_runs == 2
        assert fresh.get_run("ra") == {**RUN, "cycles": 1.0}
        assert fresh.get_run("rb") == {**RUN, "cycles": 2.0}

    def test_clean_memo_save_is_noop(self, tmp_path):
        path = tmp_path / "memo.json"
        TimingMemo(path).save()
        assert not path.exists()

    def test_parent_format_file_serves_nothing_and_is_shed(self, tmp_path):
        """A memo file written while run keys also held a trace digest
        (entries under ``runs``, units under ``units``) serves nothing --
        not even an entry planted under a current key -- and the next
        save keeps only the current entries."""
        plain = MeasurementEngine()
        exe, _ = plain.compile_and_trace("art", "train", O2, 4)
        current_key = plain._run_key(exe, TYPICAL)
        old_run = {
            "estimated_cycles": 1.0,
            "cpi": 1.0,
            "relative_error": 0.0,
            "sampled_units": 1,
            "instructions": 1,
        }
        path = tmp_path / "sim_memo.json"
        path.write_text(
            json.dumps(
                {
                    "version": SIM_MEMO_VERSION,
                    "runs": {current_key: old_run, "r0": old_run},
                    "units": {f"u{i}": [4200 + i, 1000] for i in range(40)},
                }
            )
        )
        engine = _memo_engine(tmp_path)
        assert engine.memo.n_runs == 0
        m = engine.measure_configs("art", O2, TYPICAL)
        assert m == plain.measure_configs("art", O2, TYPICAL)
        engine.save()
        raw = json.loads(path.read_text())
        assert set(raw) == {"version", "binary_runs"}
        assert list(raw["binary_runs"]) == [current_key]

    def test_stored_run_is_small(self, tmp_path):
        """One real SMARTS run leaves at most 300 bytes in the file."""
        engine = _memo_engine(tmp_path)
        engine.measure_configs("art", O2, TYPICAL)
        engine.save()
        assert engine.memo.n_runs == 1
        assert (tmp_path / "sim_memo.json").stat().st_size <= 300
