"""Exact work counts of one fixed small run through the public API.

Wall-clock gates need wide bounds; a work count is exact on any host.
The run below goes through every store a measurement can be served
from, then a static-oracle model build with a GA, then a loopback
prediction server:

* ``cold`` -- accurate SMARTS points from empty stores, at ``jobs=1``,
  over three generated programs.  Two of the points are O2 and O2 with a
  heuristic knob whose flag is off: two compiles, one binary, so the
  run memo serves the second point before its trace is loaded;
* ``stores`` -- the same points on a fresh engine with no result cache:
  every binary comes from the artifact store and every estimate from
  the run memo, so nothing compiles, loads a trace or simulates;
* ``results`` -- the same points on a fresh engine over the cache
  directory: the result cache serves every one;
* ``static_ga`` -- a static-oracle linear model build and a GA over it;
* ``serve`` -- single points (some repeated) and a batch to a loopback
  server publishing that model.

Each phase's counter deltas must equal ``tests/data/work_counts.json``
exactly.  A change that moves a count regenerates the file with::

    PYTHONPATH=src python -m tests.test_work_counts

and says in CHANGES.md which counts moved and why.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from repro import pipeline
from repro.harness.experiments.search import frozen_microarch_objective
from repro.harness.measure import MeasurementEngine
from repro.harness.model_zoo import standard_factories
from repro.obs.metrics import get_registry
from repro.opt import O2, O3
from repro.search import GeneticSearch
from repro.serve import ModelRegistry, PredictionClient, PredictionServer
from repro.sim.config import AGGRESSIVE, CONSTRAINED, TYPICAL
from repro.space import COMPILER_VARIABLE_NAMES, full_space

DATA = Path(__file__).parent / "data" / "work_counts.json"

#: Counters pinned exactly; a name ending in "." covers its family.
COUNTERS = (
    "measure.compilations",
    "measure.result_cache.",
    "measure.artifacts.",
    "sim.memo.run.",
    "smarts.units.sampled",
    "smarts.units.skipped",
    "sim.ooo.instructions",
    "sim.ooo.walk.",
    "ga.evaluations",
    "serve.cache_hit",
    "serve.cache_miss",
)

#: (workload, compiler, microarchitecture); all on input ``train``.
POINTS = [
    ("gen-loopnest-5", O2, TYPICAL),
    # Inlining is off at O2, so this knob cannot change the code.
    ("gen-loopnest-5", replace(O2, max_inline_insns_auto=250), TYPICAL),
    ("gen-loopnest-5", O2, AGGRESSIVE),
    ("gen-chase-3", O3, CONSTRAINED),
    ("gen-reduce-7", O2, AGGRESSIVE),
]

STATIC_WORKLOAD = "gen-branchy-9"
MODEL_SAMPLES = 30
GA_POPULATION = 20
GA_GENERATIONS = 5
SERVE_POINTS = 4


def _counts() -> Dict[str, int]:
    counters = get_registry().snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if any(
            name.startswith(c) if c.endswith(".") else name == c for c in COUNTERS
        )
    }


def _delta(phase: Callable[[], object]) -> Dict[str, int]:
    before = _counts()
    phase()
    after = _counts()
    return {name: after[name] - before.get(name, 0) for name in sorted(after)}


def run_phases(root: Path) -> Dict[str, Dict[str, int]]:
    """Run the fixed workload under ``root``; counter deltas per phase."""
    cache = str(root / "cache")
    measured = []

    def measure_all(engine: MeasurementEngine) -> list:
        return [engine.measure_configs(w, c, m, "train") for w, c, m in POINTS]

    def cold():
        engine = MeasurementEngine(cache_dir=cache, jobs=1)
        measured.extend(measure_all(engine))
        engine.save()

    def stores():
        engine = MeasurementEngine(
            artifact_dir=str(Path(cache) / "artifacts"),
            memo_path=str(Path(cache) / "sim_memo.json"),
            jobs=1,
        )
        assert measure_all(engine) == measured

    def results():
        assert measure_all(MeasurementEngine(cache_dir=cache, jobs=1)) == measured

    space = full_space()
    built = []

    def static_ga():
        rng = np.random.default_rng(0)
        engine = MeasurementEngine(mode="static", jobs=1)
        result = pipeline.build_model(
            oracle=engine.oracle(STATIC_WORKLOAD, "train"),
            space=space,
            model_factory=standard_factories(space.names, MODEL_SAMPLES)["linear"],
            rng=rng,
            initial_size=MODEL_SAMPLES,
            batch_size=10,
            max_samples=MODEL_SAMPLES,
            n_candidates=200,
            test_size=10,
        )
        compiler_space = space.subspace(COMPILER_VARIABLE_NAMES)
        GeneticSearch(
            compiler_space,
            population=GA_POPULATION,
            generations=GA_GENERATIONS,
            patience=None,
        ).run(
            frozen_microarch_objective(result.model, space, compiler_space, TYPICAL),
            rng,
        )
        built.append(result.model)

    def serve():
        registry = ModelRegistry(root / "registry")
        registry.save(built[0], "counts", space=space)
        rng = np.random.default_rng(1)
        points = [space.random_point(rng) for _ in range(SERVE_POINTS)]
        x = space.encode_matrix(points[:2] * 2)
        with PredictionServer(registry=registry) as server:
            with PredictionClient(*server.address) as client:
                for point in points + points[:2]:
                    client.predict_point("counts", point)
                client.predict("counts", x)

    return {
        name: _delta(phase)
        for name, phase in [
            ("cold", cold),
            ("stores", stores),
            ("results", results),
            ("static_ga", static_ga),
            ("serve", serve),
        ]
    }


def test_work_counts_match_committed(tmp_path):
    expected = json.loads(DATA.read_text())
    got = run_phases(tmp_path)
    assert list(got) == list(expected)
    for phase, counts in expected.items():
        assert got[phase] == counts, phase


if __name__ == "__main__":
    os.environ.setdefault("REPRO_LEDGER", "off")
    os.environ.setdefault("REPRO_CACHE_DIR", "off")
    with tempfile.TemporaryDirectory() as tmp:
        phases = run_phases(Path(tmp))
    DATA.write_text(json.dumps(phases, indent=2) + "\n")
    print(f"wrote {DATA}")
