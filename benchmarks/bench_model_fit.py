"""Model fit and prediction cost for the paper's three model families.

Fitting sits between measuring and searching: ``repro model``, Table 3,
Figure 5 and every ``repro tune`` session wait on it, and the GA of a
tune session then queries the fitted model once per generation.
This scenario times, on a seeded 25-variable design drawn from
``full_space()`` with a synthetic response (main effects, an
interaction, a square and a sine, plus noise):

* ``fit_ms_<family>_n<rows>`` -- the median wall time of one fit of each
  family as ``standard_factories`` builds it (linear, MARS, RBF-RT), at
  100 and at 400 rows;
* ``linear_predict_us_60rows`` -- one ``LinearModel.predict`` of a
  60-row batch (the size of a GA generation and of a served batch) by
  the 100-row linear model;
* ``rbf_split_searches_n<rows>`` -- the exact number of regression-tree
  split searches in one RBF-RT fit: one growth to the largest
  candidate size L makes at most 2L - 1;
* ``mars_scoring_passes_n<rows>`` -- the exact number of candidate
  scoring passes (``mars._pair_gain`` calls) in one MARS fit: one per
  forward step, where scoring each (parent, variable) group on its own
  made 799 at 100 rows and 3,549 at 400.

Neither count depends on the host.  The gates are the RBF-RT and MARS
fit times and their counts at 100 rows; the counts are what catch a
return to per-tree growth or per-group scoring under a loose wall-clock
threshold.  Results land in the committed ``BENCH_model_fit.json`` via
``repro bench``.
"""

import statistics
import time

import numpy as np

import repro.models.mars as mars
import repro.models.regression_tree as regression_tree
from repro.doe import random_candidates
from repro.harness.model_zoo import standard_factories
from repro.obs import BenchScenario
from repro.space import full_space

SEED = 20070313
FAMILIES = {"linear": "linear", "mars": "mars", "rbf": "rbf-rt"}


def _data(n: int):
    space = full_space()
    rng = np.random.default_rng(SEED + n)
    x = random_candidates(space, n, rng)
    y = 1e5 * (
        1.0
        + 0.3 * x[:, 0]
        - 0.2 * x[:, 3] * x[:, 7]
        + 0.15 * x[:, 12] ** 2
        + 0.1 * np.sin(3.0 * x[:, 20])
    ) + rng.normal(0.0, 500.0, n)
    return space, x, y


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _calls(module, name: str, factory, x, y) -> int:
    """Calls of ``module.<name>`` in one fit, counted by wrapping it."""
    target = getattr(module, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return target(*args)

    setattr(module, name, counted)
    try:
        factory().fit(x, y)
    finally:
        setattr(module, name, target)
    return calls[0]


def _bench() -> dict:
    out = {}
    for n in (100, 400):
        space, x, y = _data(n)
        factories = standard_factories(space.names, n)
        for family, key in FAMILIES.items():
            repeats = 3 if family == "mars" and n > 100 else 5
            out[f"fit_ms_{family}_n{n}"] = _median_ms(
                lambda: factories[key]().fit(x, y), repeats
            )
        out[f"rbf_split_searches_n{n}"] = float(
            _calls(regression_tree, "_best_split", factories["rbf-rt"], x, y)
        )
        out[f"mars_scoring_passes_n{n}"] = float(
            _calls(mars, "_pair_gain", factories["mars"], x, y)
        )

    space, x, y = _data(100)
    model = standard_factories(space.names, 100)["linear"]().fit(x, y)
    batch = random_candidates(space, 60, np.random.default_rng(SEED))
    model.predict(batch)
    out["linear_predict_us_60rows"] = (
        _median_ms(lambda: model.predict(batch), 1000) * 1e3
    )
    return out


BENCH_SCENARIO = BenchScenario(
    name="model_fit",
    description=(
        "fit ms per model family, 60-row linear predict, RBF split searches, "
        "MARS scoring passes"
    ),
    run=_bench,
    gates={
        "fit_ms_rbf_n100": "lower",
        "rbf_split_searches_n100": "lower",
        "fit_ms_mars_n100": "lower",
        "mars_scoring_passes_n100": "lower",
    },
    threshold_pct=50.0,
)
