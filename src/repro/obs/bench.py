"""Machine-readable benchmark harness with a regression gate.

``repro bench`` runs the scenarios published by ``benchmarks/bench_*.py``
and writes one schema-versioned ``BENCH_<name>.json`` per scenario at
the repo root -- environment metadata, wall-clock, and the scenario's
own metrics (throughput, latency, speedup...).  Committing those files
turns the perf trajectory into reviewable diffs: every PR's bench run
compares against the previous JSON and the gate fails on metrics that
moved more than the scenario's threshold in the bad direction.

A benchmark module opts in by defining a module-level ``BENCH_SCENARIO``
(a :class:`BenchScenario`); its ``run()`` callable returns a flat
``{metric_name: float}`` dict.  ``gates`` names the metrics the
regression gate watches and which direction is good::

    BENCH_SCENARIO = BenchScenario(
        name="serve_throughput",
        description="predictions/s through the serve tier",
        run=_bench,                      # () -> {"warm_preds_per_s": ...}
        gates={"warm_preds_per_s": "higher"},
        threshold_pct=50.0,
    )

A scenario runs at one size: the size its committed baseline was
measured at, so the gate always compares like with like.

Ungated metrics are recorded for trend-watching but never fail the run.
Thresholds are deliberately generous by default -- CI machines vary a
lot; the gate exists to catch *catastrophic* regressions (an accidental
O(n^2), a lost cache), not 5% noise.

``floors`` (``{metric: minimum}``) are absolute acceptance bounds that
hold whatever the baseline says.  They live in the scenario's code, not
in its result file, and are checked after the file is written, so a
missed floor still leaves the numbers that missed it on disk.
"""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import store

PathLike = Union[str, Path]

#: Bump when the BENCH_*.json layout changes incompatibly.
SCHEMA_VERSION = 1

#: Gate directions: which way is *good* for a metric.
_DIRECTIONS = ("lower", "higher")


@dataclass
class BenchScenario:
    """One runnable benchmark scenario.

    ``run()`` must return a flat ``{metric: float}`` dict.
    """

    name: str
    description: str
    run: Callable[[], Dict[str, float]]
    #: ``{metric: "lower"|"higher"}`` -- which direction is good.
    gates: Dict[str, str] = field(default_factory=dict)
    #: Regression threshold: gate fails when a gated metric worsens by
    #: more than this percentage versus the baseline.
    threshold_pct: float = 50.0
    #: ``{metric: minimum}`` -- the scenario fails when a metric is below
    #: its floor (or missing), after its result file is written.
    floors: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for metric, direction in self.gates.items():
            if direction not in _DIRECTIONS:
                raise ValueError(
                    f"gate {metric!r}: direction must be one of "
                    f"{_DIRECTIONS}, got {direction!r}"
                )


@dataclass
class GateFinding:
    """One gated-metric comparison against a baseline."""

    scenario: str
    metric: str
    direction: str
    baseline: float
    current: float
    #: Percent change in the *bad* direction (negative = improvement).
    change_pct: float
    threshold_pct: float
    regressed: bool

    def describe(self) -> str:
        verb = "REGRESSED" if self.regressed else "ok"
        return (
            f"[{verb}] {self.scenario}.{self.metric} "
            f"({self.direction} is better): "
            f"{self.baseline:.4g} -> {self.current:.4g} "
            f"({self.change_pct:+.1f}% vs threshold {self.threshold_pct:.0f}%)"
        )


class ScenarioFailures(Exception):
    """Raised by :func:`run_scenarios`, after every scenario has run,
    when at least one scenario's ``run`` raised or missed a floor.

    Carries what the other scenarios produced, so a caller can still
    report their files and gate findings.
    """

    def __init__(
        self,
        failed: Dict[str, str],
        written: List[Path],
        regressions: List[GateFinding],
    ):
        super().__init__(f"scenario(s) failed: {', '.join(failed)}")
        #: ``{scenario name: "ExceptionType: message"}``, or the floors
        #: it missed.
        self.failed = failed
        self.written = written
        self.regressions = regressions


def bench_environment() -> Dict[str, object]:
    """Host/environment metadata recorded alongside each result."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
    }


def bench_json_path(out_dir: PathLike, name: str) -> Path:
    return Path(out_dir) / f"BENCH_{name}.json"


def write_bench_json(
    out_dir: PathLike,
    scenario: BenchScenario,
    metrics: Dict[str, float],
    *,
    elapsed_s: float,
) -> Path:
    """Write (atomically) the schema-versioned result file for one run."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "name": scenario.name,
        "description": scenario.description,
        "created_unix": time.time(),
        "elapsed_s": elapsed_s,
        "env": bench_environment(),
        "metrics": {k: float(v) for k, v in metrics.items()},
        "gates": dict(scenario.gates),
        "threshold_pct": scenario.threshold_pct,
    }
    path = bench_json_path(out_dir, scenario.name)
    store.write_json(path, payload, newline=True, indent=2, sort_keys=True)
    return path


def load_bench_json(path: PathLike) -> Optional[Dict[str, object]]:
    """Load a result file; None when absent/corrupt/incompatible."""
    payload = store.read_json(path)
    if payload is None or payload.get("schema_version") != SCHEMA_VERSION:
        return None
    return payload


def compare_against_baseline(
    scenario: BenchScenario,
    metrics: Dict[str, float],
    baseline: Optional[Dict[str, object]],
    threshold_pct: Optional[float] = None,
) -> List[GateFinding]:
    """Evaluate every gated metric against a baseline payload.

    Metrics missing on either side are skipped (a new metric cannot
    regress; a deleted one no longer gates).  ``change_pct`` is
    normalized so positive always means *worse*, regardless of the
    gate direction: a lower-is-better metric by its relative rise, a
    higher-is-better one by the factor it fell by, so a rate 5x below
    its baseline reads +400% like a time 5x above it.  A rate that
    falls to zero or below from a positive baseline reads +inf; a
    negative baseline keeps the relative drop.
    """
    if baseline is None:
        return []
    base_metrics = baseline.get("metrics", {})
    if not isinstance(base_metrics, dict):
        return []
    threshold = (
        scenario.threshold_pct if threshold_pct is None else threshold_pct
    )
    findings = []
    for metric, direction in scenario.gates.items():
        if metric not in metrics or metric not in base_metrics:
            continue
        base = float(base_metrics[metric])
        cur = float(metrics[metric])
        if base == 0.0:
            continue  # no meaningful relative change
        if direction == "lower":
            change_pct = (cur - base) / abs(base) * 100.0
        elif base < 0:
            change_pct = (base - cur) / abs(base) * 100.0
        elif cur > 0:
            change_pct = (base / cur - 1.0) * 100.0
        else:
            change_pct = math.inf
        findings.append(
            GateFinding(
                scenario=scenario.name,
                metric=metric,
                direction=direction,
                baseline=base,
                current=cur,
                change_pct=change_pct,
                threshold_pct=threshold,
                regressed=change_pct > threshold,
            )
        )
    return findings


def floor_misses(
    scenario: BenchScenario, metrics: Dict[str, float]
) -> List[str]:
    """One message per floor of ``scenario`` that ``metrics`` miss."""
    misses = []
    for metric, minimum in scenario.floors.items():
        value = metrics.get(metric)
        if value is None:
            misses.append(f"{metric} missing (floor {minimum:g})")
        elif not value >= minimum:
            misses.append(f"{metric} = {value:.4g} below its floor {minimum:g}")
    return misses


def discover_scenarios(bench_dir: PathLike) -> List[BenchScenario]:
    """Import ``bench_*.py`` files and collect their ``BENCH_SCENARIO``.

    Files without the attribute (plain pytest benches) are skipped.
    Modules are loaded under ``repro_bench_<stem>`` to avoid colliding
    with anything importable as ``benchmarks.*``.
    """
    bench_dir = Path(bench_dir)
    scenarios = []
    for path in sorted(bench_dir.glob("bench_*.py")):
        mod_name = f"repro_bench_{path.stem}"
        spec = importlib.util.spec_from_file_location(mod_name, path)
        if spec is None or spec.loader is None:
            continue
        module = importlib.util.module_from_spec(spec)
        # Registered so dataclasses/pickling inside the module resolve.
        sys.modules[mod_name] = module
        spec.loader.exec_module(module)
        scenario = getattr(module, "BENCH_SCENARIO", None)
        if isinstance(scenario, BenchScenario):
            scenarios.append(scenario)
    return scenarios


def run_scenarios(
    scenarios: Sequence[BenchScenario],
    out_dir: PathLike,
    *,
    baseline_dir: Optional[PathLike] = None,
    threshold_pct: Optional[float] = None,
    log: Callable[[str], None] = print,
) -> Tuple[List[Path], List[GateFinding]]:
    """Run scenarios, write their JSON, and apply the regression gate.

    Baselines are read from ``baseline_dir`` (default: ``out_dir``,
    i.e. the previous committed result) *before* the new file
    overwrites them.  Returns the written paths and the regressed
    findings (empty = gate passed).

    A scenario whose ``run`` raises writes no file; its traceback is
    logged and the remaining scenarios still run, so one failing
    scenario cannot hide the others.  A scenario whose metrics miss one
    of its ``floors`` has its file written first and fails the same way.
    :class:`ScenarioFailures` is raised at the end, naming every failed
    scenario.
    """
    baseline_dir = Path(baseline_dir) if baseline_dir is not None else Path(out_dir)
    written: List[Path] = []
    regressions: List[GateFinding] = []
    failed: Dict[str, str] = {}
    for scenario in scenarios:
        log(f"bench {scenario.name}: {scenario.description}")
        baseline = load_bench_json(bench_json_path(baseline_dir, scenario.name))
        t0 = time.perf_counter()
        try:
            metrics = scenario.run()
        except Exception as exc:  # noqa: BLE001 - logged, raised after the rest
            log(traceback.format_exc().rstrip())
            failed[scenario.name] = f"{type(exc).__name__}: {exc}"
            continue
        elapsed = time.perf_counter() - t0
        for key in sorted(metrics):
            log(f"  {key} = {metrics[key]:.6g}")
        findings = compare_against_baseline(
            scenario, metrics, baseline, threshold_pct=threshold_pct
        )
        for finding in findings:
            log("  " + finding.describe())
            if finding.regressed:
                regressions.append(finding)
        written.append(
            write_bench_json(out_dir, scenario, metrics, elapsed_s=elapsed)
        )
        log(f"  wrote {written[-1]} ({elapsed:.2f}s)")
        misses = floor_misses(scenario, metrics)
        for miss in misses:
            log(f"  [FLOOR MISSED] {scenario.name}.{miss}")
        if misses:
            failed[scenario.name] = "; ".join(misses)
    if failed:
        raise ScenarioFailures(failed, written, regressions)
    return written, regressions
