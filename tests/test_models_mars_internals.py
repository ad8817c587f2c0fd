"""Internal correctness of the MARS implementation."""

import numpy as np
import pytest

from repro.models.mars import Hinge, MarsBasis, MarsModel, _pair_gain


class TestHinges:
    def test_positive_hinge(self):
        h = Hinge(var=0, knot=0.5, sign=+1)
        x = np.array([[0.0], [0.5], [1.0]])
        assert h.evaluate(x).tolist() == [0.0, 0.0, 0.5]

    def test_negative_hinge(self):
        h = Hinge(var=0, knot=0.5, sign=-1)
        x = np.array([[0.0], [0.5], [1.0]])
        assert h.evaluate(x).tolist() == [0.5, 0.0, 0.0]

    def test_basis_product(self):
        basis = MarsBasis(
            (Hinge(0, 0.0, +1), Hinge(1, 0.0, +1))
        )
        x = np.array([[1.0, 2.0], [1.0, -1.0], [-1.0, 2.0]])
        assert basis.evaluate(x).tolist() == [2.0, 0.0, 0.0]

    def test_intercept_basis(self):
        basis = MarsBasis(())
        x = np.zeros((4, 2))
        assert basis.evaluate(x).tolist() == [1.0] * 4
        assert basis.degree == 0

    def test_describe(self):
        basis = MarsBasis((Hinge(0, 0.25, +1),))
        text = basis.describe(["alpha"])
        assert "alpha" in text and "0.25" in text


class TestPairGain:
    def test_matches_direct_least_squares(self):
        """The orthogonalized pair gain must equal the SSE drop from a
        direct two-column least-squares refit."""
        rng = np.random.default_rng(0)
        n = 60
        # Current basis: intercept only (orthonormalized).
        q = np.ones((n, 1)) / np.sqrt(n)
        y = rng.normal(0, 1, n) + 3.0
        residual = y - q[:, 0] * (q[:, 0] @ y)
        sse_before = float(residual @ residual)

        x = rng.uniform(-1, 1, n)
        plus = np.maximum(0, x - 0.1)
        minus = np.maximum(0, 0.1 - x)
        cand = np.column_stack([plus, minus])
        c_perp = cand - q @ (q.T @ cand)
        (gains,) = _pair_gain([c_perp[None]], residual)
        assert gains.shape == (1, 1)

        # Direct: fit [1, plus, minus] by least squares.
        full = np.column_stack([np.ones(n), plus, minus])
        beta, *_ = np.linalg.lstsq(full, y, rcond=None)
        sse_after = float(np.sum((full @ beta - y) ** 2))
        assert gains[0, 0] == pytest.approx(sse_before - sse_after, rel=1e-8)

    def test_degenerate_pair_scores_single_column(self):
        rng = np.random.default_rng(1)
        n = 40
        q = np.ones((n, 1)) / np.sqrt(n)
        y = rng.normal(0, 1, n)
        residual = y - q[:, 0] * (q[:, 0] @ y)
        x = rng.uniform(0.2, 1.0, n)  # knot 0.1: minus side all zero
        plus = np.maximum(0, x - 0.1)
        minus = np.maximum(0, 0.1 - x)
        assert np.all(minus == 0)
        cand = np.column_stack([plus, minus])
        c_perp = cand - q @ (q.T @ cand)
        (gains,) = _pair_gain([c_perp[None]], residual)
        assert gains.shape == (1, 1)
        assert np.isfinite(gains[0, 0]) and gains[0, 0] >= 0


class TestTrainingBehaviour:
    def test_forward_grows_then_backward_prunes(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (150, 5))
        y = 10 + 4 * x[:, 0] + rng.normal(0, 0.1, 150)
        model = MarsModel(max_terms=21).fit(x, y)
        assert len(model._forward_basis) >= model.n_terms
        # A single linear trend needs few terms after pruning.
        assert model.n_terms <= 7

    def test_gcv_score_recorded(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (80, 3))
        y = x[:, 0] * 5 + 1
        model = MarsModel().fit(x, y)
        assert model.gcv_score is not None and model.gcv_score >= 0

    def test_interaction_requires_parent(self):
        """Hinge products only form via existing parents (degree <= 2)."""
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (200, 4))
        y = 5 * x[:, 0] * x[:, 1] + rng.normal(0, 0.05, 200)
        model = MarsModel(max_degree=2).fit(x, y)
        assert any(b.degree == 2 for b in model.basis)
        assert all(b.degree <= 2 for b in model.basis)

    def test_effects_empty_for_unused_variables(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (120, 6))
        y = 7 * x[:, 2] + 100
        model = MarsModel(
            variable_names=[f"v{i}" for i in range(6)]
        ).fit(x, y)
        effects = model.named_effects()
        assert "v2" in effects
        # Variables with no signal should rarely appear; ensure v2
        # dominates whatever noise terms crept in.
        others = [
            abs(v) for k, v in effects.items()
            if k not in ("(intercept)", "v2")
        ]
        assert abs(effects["v2"]) > 3 * max(others, default=0.0)
