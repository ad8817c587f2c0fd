"""Prediction-serving throughput: batched predictions/sec and latency.

The serving subsystem exists because a fitted model answers in
microseconds what the simulator answers in minutes; this benchmark pins
the claim down.  It reports, for a linear model over the full 25-D
joint space:

* batched throughput (predictions/sec) through a :class:`Predictor`
  with its LRU cache in the loop, on all-distinct batches (worst case
  for the cache) -- the acceptance floor is 10k predictions/sec;
* warm-cache throughput on a repeated batch (best case);
* per-batch latency quantiles (p50/p99) for GA-sized batches;
* end-to-end wire latency through a live :class:`PredictionServer`.

The pytest entry point prints the report and asserts the floor; the
``repro bench`` scenario at the end records the gated throughput and the
in-process latency in the committed ``BENCH_serve_throughput.json``.
"""

import time

import numpy as np

from repro.models import LinearModel
from repro.obs import BenchScenario
from repro.serve import (
    ModelRegistry,
    PredictionClient,
    PredictionServer,
    Predictor,
)
from repro.space import full_space

BATCH = 512
TARGET_PREDICTIONS_PER_SEC = 10_000


def _fitted_model(space):
    rng = np.random.default_rng(42)
    x = rng.uniform(-1, 1, (200, space.dim))
    y = 1e5 + 8e3 * x[:, 0] - 5e3 * x[:, 14] + rng.normal(0, 100, 200)
    return LinearModel(variable_names=space.names).fit(x, y)


def _throughput(predict, batches, min_seconds=0.5):
    """Predictions/sec over repeated passes of ``batches``."""
    done = 0
    t0 = time.perf_counter()
    while True:
        for batch in batches:
            predict(batch)
            done += batch.shape[0]
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return done / elapsed


def test_serve_throughput(tmp_path, report_sink):
    space = full_space()
    model = _fitted_model(space)
    rng = np.random.default_rng(7)

    # Cold path: every batch distinct, every row a cache miss.
    cold = Predictor(model, space=space)
    cold_batches = [
        rng.uniform(-1, 1, (BATCH, space.dim)) for _ in range(64)
    ]
    cold_rate = _throughput(cold.predict, cold_batches)

    # Warm path: one batch replayed, served fully from the LRU cache.
    warm = Predictor(model, space=space)
    warm_batch = rng.uniform(-1, 1, (BATCH, space.dim))
    warm.predict(warm_batch)
    warm_rate = _throughput(warm.predict, [warm_batch])

    # Per-batch latency for a GA-generation-sized batch.
    lat = Predictor(model, space=space)
    samples = []
    for _ in range(400):
        batch = rng.uniform(-1, 1, (60, space.dim))
        t0 = time.perf_counter()
        lat.predict(batch)
        samples.append((time.perf_counter() - t0) * 1e3)
    p50, p99 = np.percentile(samples, [50, 99])

    # Wire round-trip through a live server (JSON both ways).
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(model, "bench", space=space)
    with PredictionServer(registry=registry) as server:
        with PredictionClient(*server.address) as client:
            wire = []
            for _ in range(100):
                batch = rng.uniform(-1, 1, (60, space.dim))
                t0 = time.perf_counter()
                client.predict("bench", batch)
                wire.append((time.perf_counter() - t0) * 1e3)
    wire_p50, wire_p99 = np.percentile(wire, [50, 99])

    text = (
        f"prediction serving throughput (linear model, {space.dim}-D, "
        f"batch {BATCH})\n"
        f"  cold batches (all cache misses)  {cold_rate:12,.0f} pred/s\n"
        f"  warm batch (all cache hits)      {warm_rate:12,.0f} pred/s\n"
        f"  in-process latency, batch 60     p50 {p50:7.3f} ms   "
        f"p99 {p99:7.3f} ms\n"
        f"  wire round-trip, batch 60        p50 {wire_p50:7.3f} ms   "
        f"p99 {wire_p99:7.3f} ms\n"
        f"  acceptance floor                 "
        f"{TARGET_PREDICTIONS_PER_SEC:12,} pred/s"
    )
    report_sink("serve_throughput", text)

    assert cold_rate >= TARGET_PREDICTIONS_PER_SEC
    assert warm_rate >= cold_rate * 0.5  # cache must not be a slowdown


# ----------------------------------------------------------------------
# `repro bench` scenario
# ----------------------------------------------------------------------
def _bench(quick: bool) -> dict:
    space = full_space()
    model = _fitted_model(space)
    rng = np.random.default_rng(7)
    n_batches = 8 if quick else 64
    min_seconds = 0.2 if quick else 0.5

    cold = Predictor(model, space=space)
    cold_batches = [
        rng.uniform(-1, 1, (BATCH, space.dim)) for _ in range(n_batches)
    ]
    cold_rate = _throughput(
        cold.predict, cold_batches, min_seconds=min_seconds
    )

    warm = Predictor(model, space=space)
    warm_batch = rng.uniform(-1, 1, (BATCH, space.dim))
    warm.predict(warm_batch)
    warm_rate = _throughput(warm.predict, [warm_batch], min_seconds=min_seconds)

    lat = Predictor(model, space=space)
    samples = []
    for _ in range(100 if quick else 400):
        batch = rng.uniform(-1, 1, (60, space.dim))
        t0 = time.perf_counter()
        lat.predict(batch)
        samples.append((time.perf_counter() - t0) * 1e3)
    p50, p99 = np.percentile(samples, [50, 99])

    return {
        "cold_preds_per_s": cold_rate,
        "warm_preds_per_s": warm_rate,
        "inproc_p50_ms": float(p50),
        "inproc_p99_ms": float(p99),
    }


BENCH_SCENARIO = BenchScenario(
    name="serve_throughput",
    description="prediction-serving throughput and in-process latency",
    run=_bench,
    gates={"cold_preds_per_s": "higher", "warm_preds_per_s": "higher"},
    threshold_pct=50.0,
)
