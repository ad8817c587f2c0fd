"""Tests for the design-of-experiments package."""

import numpy as np
import pytest

from repro.doe import (
    ModelMatrixBuilder,
    TermSpec,
    augment_design,
    d_efficiency,
    d_optimal_design,
    latin_hypercube_candidates,
    log_det_information,
    random_candidates,
)
from repro.doe.model_matrix import builder_for_sample_size
from repro.space import ParameterSpace, Variable, VariableKind, full_space


def small_space():
    return ParameterSpace(
        [
            Variable("a", VariableKind.BINARY, 0, 1, 2),
            Variable("b", VariableKind.DISCRETE, 0, 8, 9),
            Variable("c", VariableKind.DISCRETE, 0, 4, 5),
            Variable("d", VariableKind.LOG2, 1, 8, 4),
        ]
    )


class TestModelMatrix:
    def test_term_counts_main_effects(self):
        b = ModelMatrixBuilder(5, interactions=False)
        assert b.n_terms == 6  # intercept + 5

    def test_term_counts_interactions(self):
        b = ModelMatrixBuilder(5, interactions=True)
        assert b.n_terms == 1 + 5 + 10

    def test_quadratic_terms(self):
        b = ModelMatrixBuilder(3, interactions=False, quadratic=True)
        assert b.n_terms == 1 + 3 + 3

    def test_expansion_values(self):
        b = ModelMatrixBuilder(2, interactions=True)
        f = b.expand(np.array([[0.5, -1.0]]))
        assert f.tolist() == [[1.0, 0.5, -1.0, -0.5]]

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 25])
    def test_expansion_is_the_per_term_product_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        specials = np.array([-0.0, np.inf, -np.inf, 1e150, -1e150])
        for interactions in (True, False):
            for quadratic in (True, False):
                b = ModelMatrixBuilder(
                    k, interactions=interactions, quadratic=quadratic
                )
                for n in (1, 3, 60):
                    x = rng.uniform(-1, 1, (n, k))
                    mask = rng.random((n, k)) < 0.2
                    x[mask] = rng.choice(specials, size=int(mask.sum()))
                    with np.errstate(invalid="ignore"):
                        want = np.column_stack([t.evaluate(x) for t in b.terms])
                        got = b.expand(x)
                    assert got.shape == want.shape
                    assert got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes()

    def test_term_names(self):
        b = ModelMatrixBuilder(2, interactions=True)
        names = b.term_names(["x", "y"])
        assert names == ["(intercept)", "x", "y", "x * y"]

    def test_wrong_width_rejected(self):
        b = ModelMatrixBuilder(3)
        with pytest.raises(ValueError):
            b.expand(np.zeros((4, 2)))

    def test_builder_for_sample_size_falls_back(self):
        rich = builder_for_sample_size(25, 400)
        poor = builder_for_sample_size(25, 60)
        assert rich.n_terms == 326
        assert poor.n_terms == 26


class TestCandidates:
    def test_random_candidates_on_grid(self):
        space = small_space()
        rng = np.random.default_rng(0)
        cand = random_candidates(space, 50, rng)
        assert cand.shape == (50, 4)
        for row in cand:
            space.validate(space.decode(row))

    def test_lhs_covers_levels(self):
        space = small_space()
        rng = np.random.default_rng(0)
        cand = latin_hypercube_candidates(space, 18, rng)
        # 9-level variable must see at least 9 distinct values in 18 rows.
        assert len(set(cand[:, 1])) == 9

    def test_lhs_on_grid(self):
        space = small_space()
        rng = np.random.default_rng(3)
        cand = latin_hypercube_candidates(space, 25, rng)
        for row in cand:
            space.validate(space.decode(row))


class TestDOptimal:
    def test_beats_random_design(self):
        space = small_space()
        rng = np.random.default_rng(7)
        cand = random_candidates(space, 300, rng)
        res = d_optimal_design(cand, 24, rng)
        random_rows = cand[rng.choice(300, 24, replace=False)]
        eff = d_efficiency(res.design, random_rows, res.builder)
        assert eff > 1.0

    def test_design_rows_come_from_candidates(self):
        space = small_space()
        rng = np.random.default_rng(1)
        cand = random_candidates(space, 100, rng)
        res = d_optimal_design(cand, 12, rng)
        for idx, row in zip(res.indices, res.design):
            assert np.array_equal(cand[idx], row)

    def test_logdet_matches_direct_computation(self):
        space = small_space()
        rng = np.random.default_rng(2)
        cand = random_candidates(space, 150, rng)
        res = d_optimal_design(cand, 20, rng)
        direct = log_det_information(res.design, res.builder)
        assert res.log_det == pytest.approx(direct, rel=1e-6)

    def test_more_points_than_candidates_rejected(self):
        space = small_space()
        rng = np.random.default_rng(0)
        cand = random_candidates(space, 10, rng)
        with pytest.raises(ValueError):
            d_optimal_design(cand, 20, rng)

    def test_exchange_improves_over_initial(self):
        """Exchange must not do worse than a random start (same seed)."""
        space = small_space()
        rng_a = np.random.default_rng(9)
        cand = random_candidates(space, 200, rng_a)
        res = d_optimal_design(cand, 16, np.random.default_rng(10))
        init_rows = cand[
            np.random.default_rng(10).choice(200, 16, replace=False)
        ]
        assert res.log_det >= log_det_information(
            init_rows, res.builder
        ) - 1e-9

    def test_full_space_scale(self):
        """25-variable selection with the interaction expansion runs."""
        space = full_space()
        rng = np.random.default_rng(0)
        cand = random_candidates(space, 500, rng)
        res = d_optimal_design(cand, 340, rng, max_passes=3)
        assert res.builder.n_terms == 326
        assert np.isfinite(res.log_det)


class TestAugmentation:
    def test_augment_adds_requested_rows(self):
        space = small_space()
        rng = np.random.default_rng(4)
        cand = random_candidates(space, 200, rng)
        base = d_optimal_design(cand, 15, rng)
        extra = augment_design(base.design, cand, 10, rng)
        assert extra.design.shape == (10, 4)

    def test_augmented_design_is_more_informative(self):
        space = small_space()
        rng = np.random.default_rng(5)
        cand = random_candidates(space, 200, rng)
        base = d_optimal_design(cand, 15, rng)
        extra = augment_design(base.design, cand, 10, rng)
        grown = np.vstack([base.design, extra.design])
        assert log_det_information(grown, base.builder) > base.log_det
