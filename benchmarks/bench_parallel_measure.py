"""Wall-clock of the measurement stack: serial, pooled, and warm-cache.

Three legs over one ``N_POINTS`` random design of art, all
bit-identity-checked against each other:

* **cold serial** -- a fresh engine with empty artifact/memo stores
  measures the design point-at-a-time, paying full compile + trace +
  simulate cost (and populating the stores).
* **warm single-point** -- a *fresh engine* re-measures the same design
  against the now-populated on-disk artifact store and timing memo.
  This is the cross-worker/cross-engine reuse scenario the caching
  layers exist for (see ``docs/SIMULATOR.md``): the binary and trace
  load from the content-addressed store and the simulation collapses to
  a run-level memo hit.  The headline floor lives here: the warm path
  must be >= ``SINGLE_POINT_SPEEDUP_FLOOR`` times cheaper than the
  committed pre-optimization serial baseline
  (``PRE_OPT_SERIAL_POINT_MS``).
* **cold pool** -- ``jobs=2`` and ``jobs=4`` on fresh stores.  On a
  host with >= 2 usable cores the jobs=2 pool must beat the serial path
  by ``POOL_SPEEDUP_FLOOR``, and on one with >= 4 the jobs=4 pool by
  ``POOL4_SPEEDUP_FLOOR``; on starved runners the numbers are still
  recorded for trend tracking but have no floor (a 1-core host cannot
  show pool speedup by construction).

``repro bench --baseline .`` gates ``serial_point_ms`` /
``warm_point_ms`` against the committed ``BENCH_parallel_measure.json``
and checks the floors after it writes the result file, so a miss still
records the numbers that missed.
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.harness.measure import MeasurementEngine
from repro.obs import BenchScenario
from repro.space import full_space

N_POINTS = 16
WORKLOAD = "art"

#: Per-point serial wall-clock (ms) recorded in the committed
#: ``BENCH_parallel_measure.json`` before the caching/hot-loop
#: optimization work, on this host class.  The absolute floor below
#: divides by it, so the floor survives baseline regeneration.
PRE_OPT_SERIAL_POINT_MS = 938.7

#: The warm-cache path must be at least this many times cheaper than
#: the pre-optimization serial baseline.
SINGLE_POINT_SPEEDUP_FLOOR = 10.0

#: Cold-store pool floor at jobs=2 on a multi-core host.
POOL_SPEEDUP_FLOOR = 1.5

#: Cold-store pool floor at jobs=4 on a host with 4 or more cores.
POOL4_SPEEDUP_FLOOR = 1.8


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _points():
    space = full_space()
    rng = np.random.default_rng(20070313)
    return [space.random_point(rng) for _ in range(N_POINTS)]


def _measure(jobs: int, store_dir: Path):
    """Measure the design with on-disk stores rooted at ``store_dir``.

    The engine is always fresh (no in-memory reuse across legs); only
    the artifact store and timing memo under ``store_dir`` persist, so
    a leg is "cold" or "warm" purely by whether the directory was
    populated before.
    """
    points = _points()
    engine = MeasurementEngine(
        cache_dir=None,
        artifact_dir=str(store_dir / "artifacts"),
        memo_path=str(store_dir / "sim_memo.json"),
    )
    t0 = time.perf_counter()
    if jobs == 1:
        results = [engine.measure(WORKLOAD, p) for p in points]
    else:
        results = engine.measure_batch(WORKLOAD, points, jobs=jobs)
    elapsed = time.perf_counter() - t0
    engine.save()  # flush the timing memo for warm re-runs
    return results, elapsed


def _bench() -> dict:
    cpus = _usable_cpus()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        serial, t_serial = _measure(1, tmp / "serial")
        warm, t_warm = _measure(1, tmp / "serial")
        two, t_two = _measure(2, tmp / "pool2")
        four, t_four = _measure(4, tmp / "pool4")
    assert warm == serial, "warm-cache run diverged from the cold run"
    assert two == serial, "jobs=2 diverged from the serial measurements"
    assert four == serial, "jobs=4 diverged from the serial measurements"
    return {
        # Per-point costs are the gated numbers: they track simulator
        # and cache speed independently of the point count.
        "serial_point_ms": t_serial / N_POINTS * 1e3,
        "warm_point_ms": t_warm / N_POINTS * 1e3,
        "single_point_speedup": PRE_OPT_SERIAL_POINT_MS
        / (t_warm / N_POINTS * 1e3),
        "serial_s": t_serial,
        "warm_s": t_warm,
        "jobs2_s": t_two,
        "speedup_jobs2": t_serial / t_two,
        "jobs4_s": t_four,
        "speedup_jobs4": t_serial / t_four,
        "usable_cpus": float(cpus),
    }


#: A pool floor holds only on a host with as many usable cores as
#: workers: a 1-core host cannot show pool speedup.
_FLOORS = {"single_point_speedup": SINGLE_POINT_SPEEDUP_FLOOR}
if _usable_cpus() >= 2:
    _FLOORS["speedup_jobs2"] = POOL_SPEEDUP_FLOOR
if _usable_cpus() >= 4:
    _FLOORS["speedup_jobs4"] = POOL4_SPEEDUP_FLOOR

BENCH_SCENARIO = BenchScenario(
    name="parallel_measure",
    description="measurement backend: serial vs pooled vs warm-cache",
    run=_bench,
    gates={"serial_point_ms": "lower", "warm_point_ms": "lower"},
    threshold_pct=50.0,
    floors=_FLOORS,
)
