"""Genetic algorithm over a discrete parameter space.

The GA operates on genomes of per-variable *level indices*, which keeps
every individual on the legal grid.  Selection is by tournament, variation
by uniform crossover and per-gene mutation to a random level, and the best
individuals are carried over unchanged (elitism).  Every child of a
generation is bred at once, in array operations over all of them.
Termination follows the paper: a generation cap, with early exit when the
best predicted response has not improved for a number of generations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.obs import counter, span
from repro.space import ParameterSpace

_GENERATIONS = counter("ga.generations")
_EVALUATIONS = counter("ga.evaluations")
_NON_FINITE = counter("ga.non_finite_fitness")

#: An objective maps a coded design matrix (n, k) to responses (n,);
#: the GA minimizes it.
Objective = Callable[[np.ndarray], np.ndarray]

#: Per-generation observer: ``(generation, coded_population, fitness)``
#: after fitness evaluation (non-finite values already clamped to +inf).
#: Used by the surrogate-assisted search to snapshot elite individuals
#: for later simulator re-validation; must not mutate its arguments.
GenerationObserver = Callable[[int, np.ndarray, np.ndarray], None]


@dataclass
class SearchResult:
    """Outcome of a search over a parameter space."""

    #: Best point found, as a raw point dict.
    best_point: Dict[str, float]
    #: Coded vector of the best point.
    best_coded: np.ndarray
    #: Objective value at the best point.
    best_value: float
    #: Number of objective evaluations performed.
    evaluations: int
    #: Best objective value after each generation (GA only).
    history: List[float] = field(default_factory=list)


class GeneticSearch:
    """Minimize an objective over a :class:`ParameterSpace` with a GA.

    Parameters
    ----------
    space:
        The (sub)space being searched -- for the paper's use case, the
        14-variable compiler space with the microarchitecture frozen
        inside the objective.
    population:
        Individuals per generation.
    generations:
        Hard cap on generations.
    elite:
        Individuals copied unchanged into the next generation.
    tournament:
        Tournament size for parent selection.
    crossover_rate / mutation_rate:
        Per-pair uniform-crossover probability and per-gene mutation
        probability.
    patience:
        Early-exit when the best value has not improved for this many
        generations (None disables).
    """

    def __init__(
        self,
        space: ParameterSpace,
        population: int = 60,
        generations: int = 50,
        elite: int = 2,
        tournament: int = 3,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.08,
        patience: Optional[int] = 12,
    ):
        if population < 2:
            raise ValueError("population must be >= 2")
        if generations < 1:
            raise ValueError("generations must be >= 1")
        if elite >= population:
            raise ValueError("elite must be smaller than population")
        if tournament < 1:
            raise ValueError("tournament must be >= 1")
        self.space = space
        self.population = population
        self.generations = generations
        self.elite = elite
        self.tournament = tournament
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.patience = patience
        self._n_levels = np.array([v.levels for v in space.variables])
        # Coded value of level i of variable j at [j, i]; rows padded with
        # NaN past each variable's level count, which no genome indexes.
        self._level_table = np.full((space.dim, self._n_levels.max()), np.nan)
        for j, v in enumerate(space.variables):
            self._level_table[j, : v.levels] = v.coded_levels()
        self._columns = np.arange(space.dim)

    # ------------------------------------------------------------------
    def _decode_genomes(self, genomes: np.ndarray) -> np.ndarray:
        """Level-index genomes (n, k) -> coded matrix (n, k)."""
        return self._level_table[self._columns, genomes]

    def _random_population(self, rng: np.random.Generator) -> np.ndarray:
        return np.column_stack(
            [
                rng.integers(n, size=self.population)
                for n in self._n_levels
            ]
        )

    def _breed(
        self,
        genomes: np.ndarray,
        fitness: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """The next generation's non-elite genomes, drawn in one step.

        Each child has two parents, each the first minimum of the fitness
        of its ``tournament`` contenders.  Where the child's crossover
        flag is set, each gene comes from the second parent where its
        mask draw is at least 0.5; every other gene comes from the first.
        A gene whose mutation draw falls under the rate becomes a fresh
        uniform level.  Five generator calls make every draw.
        """
        n, k = self.population - self.elite, genomes.shape[1]
        contenders = rng.integers(
            self.population, size=(n, 2, self.tournament)
        )
        winner = np.argmin(fitness[contenders], axis=2)[..., None]
        parents = np.take_along_axis(contenders, winner, axis=2)[..., 0]
        first, second = genomes[parents[:, 0]], genomes[parents[:, 1]]
        crossover = rng.random(n) < self.crossover_rate
        from_second = crossover[:, None] & (rng.random((n, k)) >= 0.5)
        mutate = rng.random((n, k)) < self.mutation_rate
        fresh = rng.integers(self._n_levels, size=(n, k))
        children = np.where(from_second, second, first)
        return np.where(mutate, fresh, children)

    # ------------------------------------------------------------------
    def run(
        self,
        objective: Objective,
        rng: np.random.Generator,
        on_generation: Optional[GenerationObserver] = None,
    ) -> SearchResult:
        """Run the GA and return the best design point found.

        ``on_generation`` (if given) observes every generation's coded
        population and sanitized fitness right after evaluation.
        """
        genomes = self._random_population(rng)
        evaluations = 0
        history: List[float] = []
        best_genome: Optional[np.ndarray] = None
        best_value = np.inf
        stall = 0
        warned_non_finite = False

        with span(
            "ga.run", population=self.population, generations=self.generations
        ) as top:
            for generation in range(self.generations):
                with span("ga.generation", index=generation) as gen_span:
                    coded = self._decode_genomes(genomes)
                    fitness = np.asarray(objective(coded), dtype=float)
                    # NaN never compares below anything, so a NaN-riddled
                    # objective would leave best_genome unset forever;
                    # treat every non-finite fitness as +inf (worst).
                    non_finite = ~np.isfinite(fitness)
                    if non_finite.any():
                        _NON_FINITE.inc(int(non_finite.sum()))
                        if not warned_non_finite:
                            warnings.warn(
                                f"GA objective returned "
                                f"{int(non_finite.sum())} non-finite fitness "
                                "value(s); treating them as +inf",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                            warned_non_finite = True
                        fitness = np.where(non_finite, np.inf, fitness)
                    if on_generation is not None:
                        on_generation(generation, coded, fitness)
                    evaluations += self.population
                    _GENERATIONS.inc()
                    _EVALUATIONS.inc(self.population)
                    gen_best = int(np.argmin(fitness))
                    if (
                        best_genome is None
                        or fitness[gen_best] < best_value - 1e-12
                    ):
                        best_value = float(fitness[gen_best])
                        best_genome = genomes[gen_best].copy()
                        stall = 0
                    else:
                        stall += 1
                    history.append(best_value)
                    gen_span.set_attrs(best_value=best_value, stall=stall)
                if self.patience is not None and stall >= self.patience:
                    break

                # Next generation: elitism + tournament/crossover/mutation.
                elites = genomes[np.argsort(fitness)[: self.elite]]
                genomes = np.vstack([elites, self._breed(genomes, fitness, rng)])
            top.set_attrs(evaluations=evaluations, best_value=best_value)

        best_coded = self._decode_genomes(best_genome[None, :])[0]
        return SearchResult(
            best_point=self.space.decode(best_coded),
            best_coded=best_coded,
            best_value=best_value,
            evaluations=evaluations,
            history=history,
        )
