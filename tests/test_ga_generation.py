"""The GA's array generation step against the per-child reference.

``GeneticSearch`` breeds every child of a generation at once; the
reference in ``tests/ga_reference.py`` breeds them one at a time.  The
initial population is drawn the same way by both, so generation 0 must
match exactly; after it the two read different random streams, so the
checks are a hand-computed generation under scripted draws and search
quality over many seeds.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.search import GeneticSearch, exhaustive_search
from repro.space import ParameterSpace, Variable, VariableKind
from tests.ga_reference import ReferenceGeneticSearch
from tests.test_search import quadratic_objective, search_space


def _first_generation(ga, objective, seed):
    seen = {}

    def observe(generation, coded, fitness):
        if generation == 0:
            seen["coded"], seen["fitness"] = coded.copy(), fitness.copy()

    ga.run(objective, np.random.default_rng(seed), on_generation=observe)
    return seen["coded"], seen["fitness"]


@pytest.mark.parametrize("seed", range(10))
def test_generation_zero_matches_reference(seed):
    space = search_space()
    objective = quadratic_objective(space)
    kwargs = dict(population=20, generations=3, patience=None)
    coded, fitness = _first_generation(
        GeneticSearch(space, **kwargs), objective, seed
    )
    ref_coded, ref_fitness = _first_generation(
        ReferenceGeneticSearch(space, **kwargs), objective, seed
    )
    assert np.array_equal(coded, ref_coded)
    assert np.array_equal(fitness, ref_fitness)


class ScriptedGenerator:
    """Serves fixed arrays to ``integers``/``random`` calls in order.

    Each scripted array must have exactly the requested shape, and an
    ``integers`` array must lie below the requested bound.  Once the
    script is used up, calls go to a seeded generator.
    """

    def __init__(self, script):
        self.script = deque(np.asarray(a) for a in script)
        self.fallback = np.random.default_rng(0)

    def integers(self, high, size=None):
        if not self.script:
            return self.fallback.integers(high, size=size)
        out = self.script.popleft()
        assert out.shape == np.broadcast_shapes(np.shape(high), size)
        assert out.dtype.kind == "i" and (out < high).all()
        return out

    def random(self, size=None):
        if not self.script:
            return self.fallback.random(size)
        out = self.script.popleft()
        assert out.shape == np.broadcast_shapes(() if size is None else size)
        return out


def test_one_scripted_generation_matches_hand_computation():
    space = ParameterSpace(
        [Variable(f"x{j}", VariableKind.DISCRETE, 0, 3, 4) for j in range(3)]
    )
    ga = GeneticSearch(
        space, population=5, generations=2, elite=2, tournament=2,
        crossover_rate=0.9, mutation_rate=0.08, patience=None,
    )
    initial = np.array([[3, 3, 3], [0, 1, 2], [1, 0, 0], [2, 2, 1], [0, 1, 0]])
    rng = ScriptedGenerator(
        # The initial population, one column per call.
        list(initial.T)
        + [
            # Tournaments: (child, parent, contender).
            [[[2, 4], [0, 3]], [[4, 1], [0, 0]], [[3, 2], [2, 4]]],
            # Crossover flags against the rate 0.9.
            [0.95, 0.1, 0.3],
            # Uniform-crossover mask: the second parent where >= 0.5.
            [[0.7, 0.7, 0.7], [0.2, 0.5, 0.9], [0.49, 0.51, 0.0]],
            # Mutation mask against the rate 0.08.
            [[0.5, 0.01, 0.5], [0.5, 0.5, 0.5], [0.079, 0.5, 0.08]],
            # Fresh levels.
            [[1, 2, 3], [0, 0, 0], [3, 1, 2]],
        ]
    )
    fitness = iter([np.array([5.0, 1.0, 3.0, 2.0, 3.0]), np.zeros(5)])
    seen = []
    ga.run(
        lambda coded: next(fitness),
        rng,
        on_generation=lambda g, coded, f: seen.append(coded.copy()),
    )

    # Elites: the two best of generation 0, in argsort order.
    elites = [initial[1], initial[3]]
    # Child 0: parents 2 (first minimum of the tie 3.0, 3.0) and 3; no
    # crossover, so all genes from parent 2; gene 1 mutates to level 2.
    child0 = [1, 2, 0]
    # Child 1: parents 1 and 0; crossover takes genes 1 and 2 from
    # parent 0; nothing mutates.
    child1 = [0, 3, 3]
    # Child 2: parents 3 and 2 (first minimum of 3.0, 3.0); crossover
    # takes gene 1 from parent 2; gene 0 mutates to level 3 (0.079 <
    # 0.08), gene 2 does not (0.08 is not below the rate).
    child2 = [3, 0, 1]
    expected = np.array(elites + [child0, child1, child2])
    levels = np.array([v.coded_levels() for v in space.variables])
    assert len(seen) == 2
    assert np.array_equal(seen[0], levels[np.arange(3), initial])
    assert np.array_equal(seen[1], levels[np.arange(3), expected])


def test_quality_matches_reference_on_quadratic():
    space = search_space()
    objective = quadratic_objective(space)
    optimum = exhaustive_search(space, objective).best_value
    kwargs = dict(population=20, generations=15, patience=None)
    hits = {GeneticSearch: 0, ReferenceGeneticSearch: 0}
    for seed in range(200):
        evaluations = set()
        for cls in hits:
            res = cls(space, **kwargs).run(objective, np.random.default_rng(seed))
            hits[cls] += res.best_value <= optimum + 1e-9
            evaluations.add(res.evaluations)
        assert len(evaluations) == 1
    assert hits[GeneticSearch] / 200 >= hits[ReferenceGeneticSearch] / 200 - 0.10


def test_tournament_must_be_positive():
    with pytest.raises(ValueError, match="tournament"):
        GeneticSearch(search_space(), tournament=0)
