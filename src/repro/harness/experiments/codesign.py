"""Extension: hardware/software co-design search.

The paper's conclusion points at using the models for "efficient
searches over parts of the design space"; Section 6.3 freezes the
microarchitecture and searches the compiler.  The same machinery runs
the *inverse* search -- freeze the compiler settings, search the
11-variable Table 2 subspace for the best (or best-per-cost) machine for
a program -- and the *joint* search over all 25 variables.  Both are
pure model evaluations: no extra simulation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.harness.corpus import Corpus
from repro.harness.experiments.search import _frozen_objective
from repro.harness.model_zoo import standard_factories
from repro.models.base import RegressionModel
from repro.opt.flags import CompilerConfig, O2
from repro.search import GeneticSearch, SearchResult
from repro.sim.config import MicroarchConfig
from repro.space import (
    COMPILER_VARIABLE_NAMES,
    MICROARCH_VARIABLE_NAMES,
    ParameterSpace,
)


def frozen_compiler_objective(
    model: RegressionModel,
    space: ParameterSpace,
    microarch_subspace: ParameterSpace,
    compiler: CompilerConfig,
):
    """Objective over the microarch subspace with Table 1 vars frozen."""
    return _frozen_objective(model, space, microarch_subspace, compiler.to_point())


@dataclass
class CodesignOutcome:
    workload: str
    best_microarch: MicroarchConfig
    predicted_cycles: float
    evaluations: int


def run_microarch_search(
    corpus: Corpus,
    compiler: CompilerConfig = O2,
    model_name: str = "rbf-rt",
    seed: int = 17,
    population: int = 60,
    generations: int = 40,
) -> Dict[str, CodesignOutcome]:
    """Find the model-predicted best Table 2 machine per workload."""
    microarch_subspace = corpus.space.subspace(MICROARCH_VARIABLE_NAMES)
    rng = np.random.default_rng(seed)
    outcomes: Dict[str, CodesignOutcome] = {}
    for name, data in corpus.data.items():
        factory = standard_factories(
            corpus.space.names, data.x_train.shape[0]
        )[model_name]
        model = factory()
        model.fit(data.x_train, data.y_train)
        objective = frozen_compiler_objective(
            model, corpus.space, microarch_subspace, compiler
        )
        ga = GeneticSearch(
            microarch_subspace, population=population, generations=generations
        )
        result = ga.run(objective, rng)
        outcomes[name] = CodesignOutcome(
            workload=name,
            best_microarch=MicroarchConfig.from_point(result.best_point),
            predicted_cycles=result.best_value,
            evaluations=result.evaluations,
        )
    return outcomes


def run_joint_search(
    corpus: Corpus,
    workload: str,
    model_name: str = "rbf-rt",
    seed: int = 23,
    population: int = 80,
    generations: int = 60,
) -> SearchResult:
    """Search compiler and microarchitecture together (25 variables)."""
    data = corpus.data[workload]
    factory = standard_factories(
        corpus.space.names, data.x_train.shape[0]
    )[model_name]
    model = factory()
    model.fit(data.x_train, data.y_train)

    def objective(coded: np.ndarray) -> np.ndarray:
        return model.predict(np.atleast_2d(coded))

    ga = GeneticSearch(
        corpus.space, population=population, generations=generations
    )
    return ga.run(objective, np.random.default_rng(seed))
