"""Prediction-serving throughput: batched predictions/sec and latency.

The serving subsystem exists because a fitted model answers in
microseconds what the simulator answers in minutes; this benchmark pins
the claim down.  It records, for a linear model over the full 25-D
joint space, in the committed ``BENCH_serve_throughput.json``:

* batched throughput (predictions/sec) through a :class:`Predictor`
  with its LRU cache in the loop, on eight all-distinct 512-row batches
  (worst case for the cache) -- gated, with an acceptance floor of 10k
  predictions/sec;
* warm-cache throughput on one repeated batch (best case) -- gated,
  with a floor of half the cold rate on ``warm_over_cold``: the cache
  must not be a slowdown;
* per-batch latency quantiles (p50/p99) over 100 GA-sized batches.

Each throughput keeps predicting for at least 0.2 s.
"""

import time

import numpy as np

from repro.models import LinearModel
from repro.obs import BenchScenario
from repro.serve import Predictor
from repro.space import full_space

BATCH = 512
MIN_SECONDS = 0.2
TARGET_PREDICTIONS_PER_SEC = 10_000


def _fitted_model(space):
    rng = np.random.default_rng(42)
    x = rng.uniform(-1, 1, (200, space.dim))
    y = 1e5 + 8e3 * x[:, 0] - 5e3 * x[:, 14] + rng.normal(0, 100, 200)
    return LinearModel(variable_names=space.names).fit(x, y)


def _throughput(predict, batches):
    """Predictions/sec over repeated passes of ``batches``."""
    done = 0
    t0 = time.perf_counter()
    while True:
        for batch in batches:
            predict(batch)
            done += batch.shape[0]
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_SECONDS:
            return done / elapsed


def _bench() -> dict:
    space = full_space()
    model = _fitted_model(space)
    rng = np.random.default_rng(7)

    # Cold path: every batch distinct, every row a cache miss.
    cold = Predictor(model, space=space)
    cold_batches = [rng.uniform(-1, 1, (BATCH, space.dim)) for _ in range(8)]
    cold_rate = _throughput(cold.predict, cold_batches)

    # Warm path: one batch replayed, served fully from the LRU cache.
    warm = Predictor(model, space=space)
    warm_batch = rng.uniform(-1, 1, (BATCH, space.dim))
    warm.predict(warm_batch)
    warm_rate = _throughput(warm.predict, [warm_batch])

    # Per-batch latency for a GA-generation-sized batch.
    lat = Predictor(model, space=space)
    samples = []
    for _ in range(100):
        batch = rng.uniform(-1, 1, (60, space.dim))
        t0 = time.perf_counter()
        lat.predict(batch)
        samples.append((time.perf_counter() - t0) * 1e3)
    p50, p99 = np.percentile(samples, [50, 99])

    return {
        "cold_preds_per_s": cold_rate,
        "warm_preds_per_s": warm_rate,
        "warm_over_cold": warm_rate / cold_rate,
        "inproc_p50_ms": float(p50),
        "inproc_p99_ms": float(p99),
    }


BENCH_SCENARIO = BenchScenario(
    name="serve_throughput",
    description="prediction-serving throughput and in-process latency",
    run=_bench,
    gates={"cold_preds_per_s": "higher", "warm_preds_per_s": "higher"},
    threshold_pct=50.0,
    floors={
        "cold_preds_per_s": TARGET_PREDICTIONS_PER_SEC,
        "warm_over_cold": 0.5,
    },
)
