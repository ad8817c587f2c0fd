"""End-to-end integration: the full paper pipeline in miniature.

One workload, a small measured corpus, every model family, a GA search
with frozen microarchitecture, and verification of the searched settings
by actual simulation -- the complete Figure 1 + Section 6.3 flow.
"""

import numpy as np
import pytest

from repro.harness.configs import TABLE5_CONFIGS
from repro.harness.experiments.search import frozen_microarch_objective
from repro.harness.measure import MeasurementEngine
from repro.models import LinearModel, MarsModel, RbfModel
from repro.opt import CompilerConfig, O2
from repro.pipeline import evaluate_model, measure_points
from repro.search import GeneticSearch
from repro.space import COMPILER_VARIABLE_NAMES, full_space
from repro.doe import d_optimal_design, random_candidates


@pytest.fixture(scope="module")
def mini_corpus():
    """~45 measured design points for gzip (about a minute)."""
    space = full_space()
    engine = MeasurementEngine()
    rng = np.random.default_rng(2007)
    candidates = random_candidates(space, 250, rng)
    design = d_optimal_design(candidates, 36, rng).design
    oracle = engine.oracle("gzip")
    y_train = measure_points(oracle, space, design)
    x_test = random_candidates(space, 10, rng)
    y_test = measure_points(oracle, space, x_test)
    return space, engine, design, y_train, x_test, y_test


class TestEndToEnd:
    def test_responses_vary_across_design(self, mini_corpus):
        _space, _engine, _x, y_train, _xt, _yt = mini_corpus
        assert y_train.max() > y_train.min() * 1.2

    def test_all_model_families_fit_and_predict(self, mini_corpus):
        space, _engine, x, y, x_test, y_test = mini_corpus
        for model in (
            LinearModel(variable_names=space.names, selection="bic"),
            MarsModel(variable_names=space.names, max_terms=15),
            RbfModel(variable_names=space.names),
        ):
            model.fit(x, y)
            err, _ = evaluate_model(model, x_test, y_test)
            assert err < 40.0, type(model).__name__

    def test_ga_search_and_actual_improvement(self, mini_corpus):
        space, engine, x, y, _xt, _yt = mini_corpus
        model = RbfModel(variable_names=space.names).fit(x, y)
        compiler_subspace = space.subspace(COMPILER_VARIABLE_NAMES)
        microarch = TABLE5_CONFIGS["typical"]
        objective = frozen_microarch_objective(
            model, space, compiler_subspace, microarch
        )
        ga = GeneticSearch(compiler_subspace, population=40, generations=25)
        result = ga.run(objective, np.random.default_rng(5))
        settings = CompilerConfig.from_point(result.best_point)

        baseline = engine.measure_configs("gzip", CompilerConfig(), microarch)
        searched = engine.measure_configs("gzip", settings, microarch)
        # Checksums must agree (searched settings compile correctly)...
        assert searched.checksum == baseline.checksum
        # ...and the searched build should beat the unoptimized one.
        assert searched.cycles < baseline.cycles
