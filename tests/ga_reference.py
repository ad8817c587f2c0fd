"""Reference GA generation step: one child at a time.

The oracle ``tests/test_ga_generation.py`` compares
:class:`repro.search.GeneticSearch` against.  ``run`` breeds each
non-elite child in a Python loop: two ``_select`` tournaments, a
crossover draw with its own mask, a mutation mask and one generator call
per mutated gene.  Everything else -- the initial population, decoding,
the non-finite clamp, elitism, patience, the observer, spans and
counters -- is the production code's, so generation 0 of both reads the
same random stream.
"""

from __future__ import annotations

import warnings
from typing import List, Optional

import numpy as np

from repro.obs import span
from repro.search.ga import (
    _EVALUATIONS,
    _GENERATIONS,
    _NON_FINITE,
    GeneticSearch,
    GenerationObserver,
    Objective,
    SearchResult,
)


class ReferenceGeneticSearch(GeneticSearch):
    """:class:`GeneticSearch` with the per-child breeding loop."""

    def _select(
        self, fitness: np.ndarray, rng: np.random.Generator
    ) -> int:
        contenders = rng.integers(self.population, size=self.tournament)
        return int(contenders[np.argmin(fitness[contenders])])

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
                order = np.argsort(fitness)
                next_genomes = [genomes[i].copy() for i in order[: self.elite]]
                while len(next_genomes) < self.population:
                    pa = genomes[self._select(fitness, rng)]
                    pb = genomes[self._select(fitness, rng)]
                    if rng.random() < self.crossover_rate:
                        mask = rng.random(genomes.shape[1]) < 0.5
                        child = np.where(mask, pa, pb)
                    else:
                        child = pa.copy()
                    mutate = rng.random(genomes.shape[1]) < self.mutation_rate
                    for j in np.flatnonzero(mutate):
                        child[j] = rng.integers(self._n_levels[j])
                    next_genomes.append(child)
                genomes = np.vstack(next_genomes)
            top.set_attrs(evaluations=evaluations, best_value=best_value)

        best_coded = self._decode_genomes(best_genome[None, :])[0]
        return SearchResult(
            best_point=self.space.decode(best_coded),
            best_coded=best_coded,
            best_value=best_value,
            evaluations=evaluations,
            history=history,
        )
