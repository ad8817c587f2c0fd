"""Telemetry overhead: tracing disabled vs enabled on the measure path.

The obs layer's contract is that disabled instrumentation is free (the
unit suite bounds it at <5% of a build_model run); this benchmark
records the actual enabled-vs-disabled wall time of a full measurement
(compile + functional run + SMARTS simulation of art at O2 on the
typical machine, best of two) into the committed
``BENCH_obs_overhead.json``, so any future instrumentation creep shows
up in the BENCH trajectory.  ``disabled_ms`` is gated; the floor on
``disabled_over_enabled`` says that enabled tracing, which spans
per-SMARTS-unit work, at most doubles a measurement.
"""

import time

from repro.harness.configs import TABLE5_CONFIGS
from repro.harness.measure import MeasurementEngine
from repro.obs import BenchScenario, get_tracer
from repro.opt import O2

WORKLOAD = "art"
REPEATS = 2


def _one_measurement() -> None:
    # A fresh engine each time: every run pays compile + trace + simulate.
    engine = MeasurementEngine(cache_dir=None)
    engine.measure_configs(WORKLOAD, O2, TABLE5_CONFIGS["typical"])


def _timed() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _one_measurement()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench() -> dict:
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.disable()
    tracer.reset()
    try:
        disabled = _timed()
        tracer.enable()
        enabled = _timed()
        n_spans = len(tracer.spans)
    finally:
        tracer.reset()
        tracer.enabled = was_enabled
    return {
        "disabled_ms": disabled * 1e3,
        "enabled_ms": enabled * 1e3,
        "overhead_pct": (enabled / disabled - 1.0) * 100.0,
        "disabled_over_enabled": disabled / enabled,
        "spans_recorded": float(n_spans),
    }


BENCH_SCENARIO = BenchScenario(
    name="obs_overhead",
    description="telemetry overhead on the measure path (tracing off vs on)",
    run=_bench,
    gates={"disabled_ms": "lower"},
    threshold_pct=50.0,
    floors={"disabled_over_enabled": 0.5},
)
