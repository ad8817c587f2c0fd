"""Bench harness (repro.obs.bench): schema round-trip and regression gate.

The gate's contract is the PR acceptance criterion "demonstrably fails
on an injected slowdown": the two-run test below writes a baseline,
re-runs the same scenario 3x slower, and asserts the second run
reports a regression while improvements and sub-threshold drift pass.
"""

import inspect
import json
import math
import os

import pytest

from repro.obs.bench import (
    SCHEMA_VERSION,
    BenchScenario,
    bench_json_path,
    compare_against_baseline,
    discover_scenarios,
    load_bench_json,
    run_scenarios,
    write_bench_json,
)

REPO_ROOT = __import__("pathlib").Path(__file__).resolve().parents[1]


def _scenario(run=None, gates=None, threshold_pct=50.0, name="toy"):
    return BenchScenario(
        name=name,
        description="toy scenario for tests",
        run=run or (lambda: {"elapsed_ms": 10.0}),
        gates=gates if gates is not None else {"elapsed_ms": "lower"},
        threshold_pct=threshold_pct,
    )


# ----------------------------------------------------------------------
# Schema round-trip
# ----------------------------------------------------------------------
class TestSchema:
    def test_write_then_load_round_trips(self, tmp_path):
        sc = _scenario()
        path = write_bench_json(tmp_path, sc, {"elapsed_ms": 12.5}, elapsed_s=0.3)
        assert path == bench_json_path(tmp_path, "toy")
        assert path.name == "BENCH_toy.json"
        payload = load_bench_json(path)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["name"] == "toy"
        assert "quick" not in payload
        assert payload["metrics"] == {"elapsed_ms": 12.5}
        assert payload["gates"] == {"elapsed_ms": "lower"}
        assert payload["threshold_pct"] == 50.0
        assert payload["env"]["cpu_count"] >= 1
        # Atomic write leaves no tmp file behind.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_load_missing_file_is_none(self, tmp_path):
        assert load_bench_json(tmp_path / "BENCH_nope.json") is None

    def test_load_corrupt_file_is_none(self, tmp_path):
        p = tmp_path / "BENCH_bad.json"
        p.write_text("{not json")
        assert load_bench_json(p) is None
        p.write_text(json.dumps([1, 2, 3]))
        assert load_bench_json(p) is None

    def test_load_wrong_schema_version_is_none(self, tmp_path):
        sc = _scenario()
        path = write_bench_json(tmp_path, sc, {"elapsed_ms": 1.0}, elapsed_s=0.1)
        payload = json.loads(path.read_text())
        payload["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert load_bench_json(path) is None

    def test_invalid_gate_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            _scenario(gates={"elapsed_ms": "sideways"})


# ----------------------------------------------------------------------
# Gate semantics
# ----------------------------------------------------------------------
class TestGate:
    def _baseline(self, tmp_path, metrics):
        sc = _scenario()
        write_bench_json(tmp_path, sc, metrics, elapsed_s=0.1)
        return load_bench_json(bench_json_path(tmp_path, sc.name))

    def test_lower_direction_regression_and_improvement(self, tmp_path):
        base = self._baseline(tmp_path, {"elapsed_ms": 100.0})
        sc = _scenario()
        # 3x slower: +200% > 50% threshold -> regressed.
        (worse,) = compare_against_baseline(sc, {"elapsed_ms": 300.0}, base)
        assert worse.regressed and worse.change_pct == pytest.approx(200.0)
        assert "REGRESSED" in worse.describe()
        # 2x faster: improvement, negative change_pct.
        (better,) = compare_against_baseline(sc, {"elapsed_ms": 50.0}, base)
        assert not better.regressed
        assert better.change_pct == pytest.approx(-50.0)
        # Within threshold: drift, not a regression.
        (drift,) = compare_against_baseline(sc, {"elapsed_ms": 140.0}, base)
        assert not drift.regressed

    def test_higher_direction_flips_the_sign(self, tmp_path):
        sc = _scenario(gates={"preds_per_s": "higher"})
        write_bench_json(tmp_path, sc, {"preds_per_s": 1000.0}, elapsed_s=0.1)
        base = load_bench_json(bench_json_path(tmp_path, sc.name))
        # Throughput fell 2.5x: that's +150% in the bad direction.
        (f,) = compare_against_baseline(sc, {"preds_per_s": 400.0}, base)
        assert f.regressed and f.change_pct == pytest.approx(150.0)
        # Throughput doubled: improvement.
        (g,) = compare_against_baseline(sc, {"preds_per_s": 2000.0}, base)
        assert not g.regressed and g.change_pct == pytest.approx(-50.0)

    def test_a_rate_can_fail_a_threshold_above_100_pct(self, tmp_path):
        """A rate 5x below its baseline must trip CI's 300% threshold,
        as a time 5x above its baseline does."""
        sc = _scenario(gates={"preds_per_s": "higher", "elapsed_ms": "lower"})
        base = self._baseline(tmp_path, {"preds_per_s": 1000.0, "elapsed_ms": 100.0})
        rate, time_ = compare_against_baseline(
            sc, {"preds_per_s": 200.0, "elapsed_ms": 500.0}, base, threshold_pct=300.0
        )
        assert rate.regressed and rate.change_pct == pytest.approx(400.0)
        assert time_.change_pct == pytest.approx(rate.change_pct)
        (zero,) = compare_against_baseline(
            _scenario(gates={"preds_per_s": "higher"}), {"preds_per_s": 0.0}, base
        )
        assert zero.regressed and zero.change_pct == math.inf
        negative = self._baseline(tmp_path, {"preds_per_s": -0.5})
        (drop,) = compare_against_baseline(
            _scenario(gates={"preds_per_s": "higher"}), {"preds_per_s": -1.0}, negative
        )
        assert drop.change_pct == pytest.approx(100.0)

    def test_missing_metrics_and_zero_baseline_skipped(self, tmp_path):
        base = self._baseline(tmp_path, {"other": 1.0, "zeroed": 0.0})
        sc = _scenario(gates={"elapsed_ms": "lower", "zeroed": "lower"})
        assert compare_against_baseline(sc, {"elapsed_ms": 5.0, "zeroed": 9.0}, base) == []

    def test_no_baseline_means_no_findings(self):
        sc = _scenario()
        assert compare_against_baseline(sc, {"elapsed_ms": 5.0}, None) == []

    def test_threshold_override(self, tmp_path):
        base = self._baseline(tmp_path, {"elapsed_ms": 100.0})
        sc = _scenario()
        (f,) = compare_against_baseline(
            sc, {"elapsed_ms": 120.0}, base, threshold_pct=10.0
        )
        assert f.regressed and f.threshold_pct == 10.0


# ----------------------------------------------------------------------
# run_scenarios: baseline-before-write and the injected-slowdown gate
# ----------------------------------------------------------------------
class TestRunScenarios:
    def test_injected_slowdown_fails_the_gate(self, tmp_path):
        logs = []
        fast = _scenario(run=lambda: {"elapsed_ms": 100.0})
        written, regressions = run_scenarios([fast], tmp_path, log=logs.append)
        assert len(written) == 1 and regressions == []  # first run: no baseline

        slow = _scenario(run=lambda: {"elapsed_ms": 300.0})
        written, regressions = run_scenarios([slow], tmp_path, log=logs.append)
        assert len(regressions) == 1
        assert regressions[0].metric == "elapsed_ms"
        assert regressions[0].regressed
        # The slow result still replaced the baseline on disk.
        assert load_bench_json(written[0])["metrics"]["elapsed_ms"] == 300.0

    def test_separate_baseline_dir(self, tmp_path):
        baseline_dir = tmp_path / "committed"
        out_dir = tmp_path / "fresh"
        run_scenarios(
            [_scenario(run=lambda: {"elapsed_ms": 100.0})],
            baseline_dir,
            log=lambda _: None,
        )
        _, regressions = run_scenarios(
            [_scenario(run=lambda: {"elapsed_ms": 300.0})],
            out_dir,
            baseline_dir=baseline_dir,
            log=lambda _: None,
        )
        assert len(regressions) == 1
        # Baseline dir untouched by the new run.
        base = load_bench_json(bench_json_path(baseline_dir, "toy"))
        assert base["metrics"]["elapsed_ms"] == 100.0

    def test_failing_scenario_does_not_hide_the_rest(self, tmp_path, capsys):
        """A scenario that raises (say, a speed floor's assert) writes
        no file, the scenarios after it still run and write theirs, and
        `repro bench` exits nonzero naming the failed one."""
        from repro.cli import main

        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_a_floor.py").write_text(
            "from repro.obs.bench import BenchScenario\n"
            "def _run():\n"
            "    raise AssertionError('only 82x faster')\n"
            "BENCH_SCENARIO = BenchScenario(\n"
            "    name='floor', description='d', run=_run, gates={'v': 'lower'})\n"
        )
        (bench_dir / "bench_b_good.py").write_text(
            "from repro.obs.bench import BenchScenario\n"
            "BENCH_SCENARIO = BenchScenario(\n"
            "    name='good', description='d',\n"
            "    run=lambda: {'v': 1.0}, gates={'v': 'lower'})\n"
        )
        out = tmp_path / "out"
        rc = main(["bench", "--bench-dir", str(bench_dir), "--out", str(out)])
        assert rc == 1
        assert load_bench_json(bench_json_path(out, "good"))["metrics"] == {
            "v": 1.0
        }
        assert not bench_json_path(out, "floor").exists()
        assert "floor: AssertionError: only 82x faster" in capsys.readouterr().out

    def test_missed_floor_still_writes_the_file(self, tmp_path, capsys):
        """A scenario under its floor writes its result file, the next
        scenario still runs, and `repro bench` exits 1 naming the floor,
        the metric's value and the scenario.  Floors stay out of the
        file."""
        from repro.cli import main

        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_a_floor.py").write_text(
            "from repro.obs.bench import BenchScenario\n"
            "BENCH_SCENARIO = BenchScenario(\n"
            "    name='floor', description='d',\n"
            "    run=lambda: {'speedup': 82.0, 'corr': 0.9},\n"
            "    gates={'speedup': 'higher'},\n"
            "    floors={'speedup': 100.0, 'corr': 0.8})\n"
        )
        (bench_dir / "bench_b_good.py").write_text(
            "from repro.obs.bench import BenchScenario\n"
            "BENCH_SCENARIO = BenchScenario(\n"
            "    name='good', description='d',\n"
            "    run=lambda: {'v': 1.0}, gates={'v': 'lower'},\n"
            "    floors={'v': 1.0})\n"
        )
        out = tmp_path / "out"
        rc = main(["bench", "--bench-dir", str(bench_dir), "--out", str(out)])
        assert rc == 1
        payload = load_bench_json(bench_json_path(out, "floor"))
        assert payload["metrics"] == {"speedup": 82.0, "corr": 0.9}
        assert "floors" not in payload
        assert load_bench_json(bench_json_path(out, "good"))["metrics"] == {
            "v": 1.0
        }
        printed = capsys.readouterr().out
        assert "2 result file(s) written" in printed
        assert "floor: speedup = 82 below its floor 100" in printed
        assert "corr" not in printed.split("SCENARIOS FAILED")[1]
        assert "good:" not in printed.split("SCENARIOS FAILED")[1]

    @pytest.mark.parametrize("option", ["--quick", "--no-gate"])
    def test_removed_options_are_usage_errors(self, tmp_path, option):
        """Every scenario runs at one size and every run is gated, so
        neither option exists."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", option, "--bench-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_floor_metric_is_a_miss(self):
        from repro.obs.bench import floor_misses

        sc = _scenario()
        sc.floors = {"speedup": 100.0}
        assert floor_misses(sc, {"speedup": 100.0}) == []
        assert floor_misses(sc, {}) == ["speedup missing (floor 100)"]
        (nan,) = floor_misses(sc, {"speedup": float("nan")})
        assert "below its floor" in nan


# ----------------------------------------------------------------------
# Discovery over the real benchmarks/ directory
# ----------------------------------------------------------------------
class TestDiscovery:
    def test_repo_benchmarks_publish_scenarios(self):
        scenarios = discover_scenarios(REPO_ROOT / "benchmarks")
        names = {s.name for s in scenarios}
        assert {"obs_overhead", "serve_throughput", "parallel_measure"} <= names
        for s in scenarios:
            assert s.gates, f"{s.name} has no gated metric"
            assert all(d in ("lower", "higher") for d in s.gates.values())

    def test_every_scenario_runs_at_one_size(self):
        """A scenario's ``run`` takes no argument: it runs at the size
        its committed baseline was measured at, and nothing picks
        another."""
        for s in discover_scenarios(REPO_ROOT / "benchmarks"):
            assert not inspect.signature(s.run).parameters, s.name

    def test_acceptance_bounds_are_floors(self):
        """The bounds that the benchmarks' own pytest functions and CI
        used to assert are each scenario's floors.  Floors are minimums,
        so an upper bound is a floor on a ratio."""
        scenarios = {
            s.name: s for s in discover_scenarios(REPO_ROOT / "benchmarks")
        }
        serve = scenarios["serve_throughput"].floors
        assert serve["cold_preds_per_s"] >= 10_000
        assert serve["warm_over_cold"] >= 0.5
        # Tracing at most doubles a measurement.
        assert scenarios["obs_overhead"].floors["disabled_over_enabled"] >= 0.5
        pool = scenarios["parallel_measure"].floors
        assert pool["single_point_speedup"] >= 10.0
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        if cpus >= 2:
            assert pool["speedup_jobs2"] >= 1.5
        if cpus >= 4:
            assert pool["speedup_jobs4"] >= 1.8

    def test_committed_baselines_carry_every_declared_gate(self):
        """``compare_against_baseline`` skips a gated metric the baseline
        lacks, so a gate added without regenerating the committed
        ``BENCH_<name>.json`` would never gate in CI."""
        committed = sorted(REPO_ROOT.glob("BENCH_*.json"))
        scenarios = {
            s.name: s for s in discover_scenarios(REPO_ROOT / "benchmarks")
        }
        assert committed
        for path in committed:
            payload = load_bench_json(path)
            assert payload is not None, path.name
            scenario = scenarios[payload["name"]]
            assert path == bench_json_path(REPO_ROOT, scenario.name)
            assert payload["gates"] == scenario.gates, path.name
            missing = sorted(set(scenario.gates) - set(payload["metrics"]))
            assert not missing, f"{path.name} lacks gated metrics {missing}"

    def test_files_without_scenario_are_skipped(self, tmp_path):
        (tmp_path / "bench_plain.py").write_text("X = 1\n")
        (tmp_path / "bench_good.py").write_text(
            "from repro.obs.bench import BenchScenario\n"
            "BENCH_SCENARIO = BenchScenario(\n"
            "    name='good', description='d',\n"
            "    run=lambda: {'v': 1.0}, gates={'v': 'lower'})\n"
        )
        (tmp_path / "not_a_bench.py").write_text(
            "raise RuntimeError('must not be imported')\n"
        )
        scenarios = discover_scenarios(tmp_path)
        assert [s.name for s in scenarios] == ["good"]
