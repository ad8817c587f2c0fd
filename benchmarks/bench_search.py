"""GA cost per generation on the paper's compiler subspace.

Every ``repro tune`` session, Tables 5/6, Figure 7, Table 7 and the
co-design search end in a :class:`GeneticSearch` over the 14 compiler
variables with the microarchitecture frozen inside the objective.  This
scenario runs that search (population 60, 40 generations, no early
exit) on a fixed, seeded quadratic-plus-interaction objective, so the
time it reports is the GA's own and not a model's:

* ``ms_per_generation`` -- the median wall time of one run over 20
  runs, divided by its generations;
* ``evaluations`` -- objective evaluations in one run (population x
  generations, since patience is off);
* ``rng_calls_per_generation`` -- calls into the random generator per
  generation, counted by a thin wrapper around the ``Generator`` passed
  in as ``rng``.  Breeding every child of a generation in one array step
  makes about 5 calls; breeding them one at a time made about 350.

The call count does not depend on the host, so it catches a return to
per-child breeding under any wall-clock threshold.  Both it and the
time are gated.  Results land in the committed ``BENCH_ga_search.json``
via ``repro bench``.
"""

import statistics
import time

import numpy as np

from repro.obs import BenchScenario
from repro.search import GeneticSearch
from repro.space import compiler_space

SEED = 20070311
POPULATION = 60
GENERATIONS = 40


class CountingGenerator:
    """Passes every call through to a ``Generator`` and counts them."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def _objective(dim: int):
    """A seeded quadratic bowl plus pairwise interactions."""
    rng = np.random.default_rng(SEED)
    target = rng.uniform(-1.0, 1.0, dim)
    weights = rng.uniform(0.5, 2.0, dim)
    coupling = np.triu(rng.normal(0.0, 0.3, (dim, dim)), k=1)

    def objective(coded: np.ndarray) -> np.ndarray:
        d = coded - target
        return d**2 @ weights + np.einsum("ni,ij,nj->n", coded, coupling, coded)

    return objective


def _bench() -> dict:
    space = compiler_space()
    objective = _objective(space.dim)
    ga = GeneticSearch(
        space, population=POPULATION, generations=GENERATIONS, patience=None
    )

    counting = CountingGenerator(np.random.default_rng(SEED))
    result = ga.run(objective, counting)

    times = []
    for _ in range(20):
        rng = np.random.default_rng(SEED)
        t0 = time.perf_counter()
        ga.run(objective, rng)
        times.append(time.perf_counter() - t0)
    return {
        "ms_per_generation": statistics.median(times) * 1e3 / GENERATIONS,
        "evaluations": float(result.evaluations),
        "rng_calls_per_generation": counting.calls / GENERATIONS,
    }


BENCH_SCENARIO = BenchScenario(
    name="ga_search",
    description=(
        "GA ms and generator calls per generation, 14 compiler variables, "
        "60 x 40"
    ),
    run=_bench,
    gates={"rng_calls_per_generation": "lower", "ms_per_generation": "lower"},
    threshold_pct=50.0,
)
