"""Model-based search experiments: Table 6, Figure 7, Table 7.

A fitted model predicts cycles at arbitrary design points for free, so a
genetic algorithm can search the 14-variable compiler subspace with the
microarchitecture frozen (Section 6.3).  The prescribed settings are
then *actually* compiled and simulated to get true speedups over -O2 and
-O3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.harness.configs import TABLE5_CONFIGS, joint_point
from repro.harness.corpus import Corpus
from repro.harness.measure import MeasurementEngine, default_engine
from repro.harness.model_zoo import standard_factories
from repro.models.base import RegressionModel
from repro.opt.flags import CompilerConfig, O2, O3
from repro.search import GeneticSearch
from repro.sim.config import MicroarchConfig
from repro.space import COMPILER_VARIABLE_NAMES, ParameterSpace


def _frozen_objective(
    model: RegressionModel,
    space: ParameterSpace,
    subspace: ParameterSpace,
    frozen: Mapping[str, float],
):
    """Objective over ``subspace``'s coded variables, with the variables
    of ``space`` that ``frozen`` names held at its values."""
    frozen_indices = []
    frozen_values = []
    for i, name in enumerate(space.names):
        if name in frozen:
            frozen_indices.append(i)
            frozen_values.append(space[name].encode(frozen[name]))
    free_indices = [space.index_of(n) for n in subspace.names]

    def objective(coded: np.ndarray) -> np.ndarray:
        coded = np.atleast_2d(coded)
        joint = np.empty((coded.shape[0], space.dim))
        joint[:, free_indices] = coded
        joint[:, frozen_indices] = frozen_values
        return model.predict(joint)

    return objective


def frozen_microarch_objective(
    model: RegressionModel,
    space: ParameterSpace,
    compiler_subspace: ParameterSpace,
    microarch: MicroarchConfig,
):
    """Objective over the compiler subspace with Table 2 vars frozen."""
    return _frozen_objective(model, space, compiler_subspace, microarch.to_point())


@dataclass
class SearchOutcome:
    """GA search result for one (workload, microarch config) pair."""

    workload: str
    config_name: str
    best_settings: CompilerConfig
    predicted_cycles: float
    #: Model-predicted cycles at O2 for the same microarch.
    predicted_o2_cycles: float
    evaluations: int

    @property
    def predicted_speedup_pct(self) -> float:
        return (self.predicted_o2_cycles / self.predicted_cycles - 1.0) * 100


def run_model_search(
    corpus: Corpus,
    configs: Optional[Mapping[str, MicroarchConfig]] = None,
    model_name: str = "rbf-rt",
    seed: int = 7,
    generations: int = 40,
    population: int = 60,
) -> Dict[str, Dict[str, SearchOutcome]]:
    """Table 6: GA-prescribed settings per workload per configuration."""
    configs = dict(configs) if configs else dict(TABLE5_CONFIGS)
    compiler_subspace = corpus.space.subspace(COMPILER_VARIABLE_NAMES)
    outcomes: Dict[str, Dict[str, SearchOutcome]] = {}
    rng = np.random.default_rng(seed)
    for name, data in corpus.data.items():
        factory = standard_factories(
            corpus.space.names, data.x_train.shape[0]
        )[model_name]
        model = factory()
        model.fit(data.x_train, data.y_train)
        outcomes[name] = {}
        for config_name, microarch in configs.items():
            objective = frozen_microarch_objective(
                model, corpus.space, compiler_subspace, microarch
            )
            ga = GeneticSearch(
                compiler_subspace,
                population=population,
                generations=generations,
            )
            result = ga.run(objective, rng)
            settings = CompilerConfig.from_point(result.best_point)
            o2_coded = compiler_subspace.encode(O2.to_point())
            predicted_o2 = float(objective(o2_coded[None, :])[0])
            outcomes[name][config_name] = SearchOutcome(
                workload=name,
                config_name=config_name,
                best_settings=settings,
                predicted_cycles=result.best_value,
                predicted_o2_cycles=predicted_o2,
                evaluations=result.evaluations,
            )
    return outcomes


@dataclass
class SpeedupRow:
    """Figure 7 data for one (workload, config)."""

    workload: str
    config_name: str
    o2_cycles: float
    o3_cycles: float
    searched_cycles: float
    predicted_speedup_pct: float

    @property
    def o3_speedup_pct(self) -> float:
        return (self.o2_cycles / self.o3_cycles - 1.0) * 100

    @property
    def actual_speedup_pct(self) -> float:
        return (self.o2_cycles / self.searched_cycles - 1.0) * 100


def run_fig7_speedups(
    corpus: Corpus,
    searches: Dict[str, Dict[str, SearchOutcome]],
    engine: Optional[MeasurementEngine] = None,
    input_name: str = "train",
) -> List[SpeedupRow]:
    """Simulate at the prescribed settings; actual vs predicted speedups.

    All (workload, config) verification points are submitted to the
    engine as one batch, so they fan out across the engine's worker
    pool; the engine cache is flushed even if a measurement crashes.
    """
    engine = engine or default_engine()
    cells = [
        (workload, config_name, outcome)
        for workload, per_config in searches.items()
        for config_name, outcome in per_config.items()
    ]
    requests = []
    for workload, config_name, outcome in cells:
        microarch = TABLE5_CONFIGS[config_name]
        requests += [
            (workload, O2, microarch, input_name),
            (workload, O3, microarch, input_name),
            (workload, outcome.best_settings, microarch, input_name),
        ]
    try:
        measured = engine.measure_many(requests)
    finally:
        engine.save()
    rows: List[SpeedupRow] = []
    for i, (workload, config_name, outcome) in enumerate(cells):
        o2, o3, best = measured[3 * i : 3 * i + 3]
        rows.append(
            SpeedupRow(
                workload=workload,
                config_name=config_name,
                o2_cycles=o2.cycles,
                o3_cycles=o3.cycles,
                searched_cycles=best.cycles,
                predicted_speedup_pct=outcome.predicted_speedup_pct,
            )
        )
    return rows


def run_table7_pgo(
    searches: Dict[str, Dict[str, SearchOutcome]],
    engine: Optional[MeasurementEngine] = None,
) -> List[SpeedupRow]:
    """Profile-guided scenario: train-input settings applied to ref runs.

    The model (and hence the prescribed settings) comes from the train
    input; actual speedups are measured on the ref input (Table 7).
    """
    engine = engine or default_engine()
    cells = [
        (workload, config_name, outcome)
        for workload, per_config in searches.items()
        for config_name, outcome in per_config.items()
    ]
    requests = []
    for workload, config_name, outcome in cells:
        microarch = TABLE5_CONFIGS[config_name]
        requests += [
            (workload, O2, microarch, "ref"),
            (workload, outcome.best_settings, microarch, "ref"),
        ]
    try:
        measured = engine.measure_many(requests)
    finally:
        engine.save()
    rows: List[SpeedupRow] = []
    for i, (workload, config_name, outcome) in enumerate(cells):
        o2, best = measured[2 * i : 2 * i + 2]
        rows.append(
            SpeedupRow(
                workload=workload,
                config_name=config_name,
                o2_cycles=o2.cycles,
                o3_cycles=o2.cycles,  # O3 not part of Table 7
                searched_cycles=best.cycles,
                predicted_speedup_pct=outcome.predicted_speedup_pct,
            )
        )
    return rows
