"""Linear regression models (paper Section 4.1).

The model is ``y = b0 + sum b_i x_i (+ sum b_ij x_i x_j)`` on the coded
scale; coefficients are least-squares estimates (Equation 3).  Because a
full two-factor-interaction expansion of the 25-variable space has 326
terms, the model supports BIC-guided greedy forward selection as its
overfitting control (Section 4.4); the default fits all terms with a
ridge fallback when the system is ill-conditioned.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.doe.model_matrix import ModelMatrixBuilder
from repro.models.base import RegressionModel
from repro.models.metrics import bic


def _forward_select(
    f: np.ndarray, y: np.ndarray, patience: int = 3
) -> List[int]:
    """Greedy forward selection of model-matrix columns minimizing BIC.

    Maintains an orthonormal basis Q of the selected columns; a candidate
    column's SSE reduction is ``(c_perp . r)^2 / ||c_perp||^2`` where
    ``c_perp`` is the candidate orthogonalized against Q and ``r`` the
    current residual.  Selection stops when BIC has not improved for
    ``patience`` consecutive additions.
    """
    n, p = f.shape
    norms = np.linalg.norm(f, axis=0)
    selected: List[int] = []
    q_cols: List[np.ndarray] = []
    residual = y.astype(float).copy()
    remaining = set(range(p))

    # Always include the intercept column (index 0) first if present.
    f_perp = f.copy()

    best_bic = np.inf
    best_len = 0
    stall = 0
    sse_now = float(residual @ residual)
    order: List[int] = []

    while remaining and len(selected) < min(n - 2, p):
        cols = np.fromiter(remaining, dtype=int)
        c = f_perp[:, cols]
        c_norm2 = np.einsum("ij,ij->j", c, c)
        proj = c.T @ residual
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = np.where(c_norm2 > 1e-12, proj * proj / c_norm2, -np.inf)
        best_local = int(np.argmax(gains))
        j = int(cols[best_local])
        if not np.isfinite(gains[best_local]) or gains[best_local] <= 0:
            break
        # Accept the column: orthonormalize it and deflate residual/others.
        q = f_perp[:, j] / np.sqrt(c_norm2[best_local])
        residual = residual - q * (q @ residual)
        f_perp = f_perp - np.outer(q, q @ f_perp)
        selected.append(j)
        remaining.discard(j)
        order.append(j)

        sse_now = float(residual @ residual)
        score = bic(sse_now, n, len(selected))
        if score < best_bic - 1e-12:
            best_bic = score
            best_len = len(selected)
            stall = 0
        else:
            stall += 1
            if stall >= patience:
                break
    return order[:best_len] if best_len else order[:1]


class LinearModel(RegressionModel):
    """Global parametric linear regression on the coded scale.

    Parameters
    ----------
    interactions:
        Include all two-factor interaction terms (Equation 2).
    quadratic:
        Include squared terms (off by default, matching the paper).
    selection:
        ``"none"`` fits every term; ``"bic"`` performs greedy forward
        selection with the BIC stopping rule.
    ridge:
        Tikhonov regularization added when solving the normal equations;
        only material when the expansion is (near-)rank-deficient.
    """

    def __init__(
        self,
        variable_names: Optional[Sequence[str]] = None,
        interactions: bool = True,
        quadratic: bool = False,
        selection: str = "none",
        ridge: float = 1e-8,
    ):
        super().__init__(variable_names)
        if selection not in ("none", "bic"):
            raise ValueError(f"unknown selection mode {selection!r}")
        self.interactions = interactions
        self.quadratic = quadratic
        self.selection = selection
        self.ridge = ridge
        self._builder: Optional[ModelMatrixBuilder] = None
        self._active: Optional[np.ndarray] = None
        self._beta: Optional[np.ndarray] = None
        self._sse: Optional[float] = None

    # ------------------------------------------------------------------
    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self._builder = ModelMatrixBuilder(
            x.shape[1],
            interactions=self.interactions,
            quadratic=self.quadratic,
        )
        f = self._builder.expand(x)
        if self.selection == "bic":
            active = _forward_select(f, y)
            if 0 not in active:
                active = [0] + active
            self._active = np.array(sorted(active), dtype=int)
        else:
            self._active = np.arange(f.shape[1])
        f_active = f[:, self._active]
        # Ridge-stabilized normal equations (exact OLS when well-posed).
        gram = f_active.T @ f_active
        gram[np.diag_indices_from(gram)] += self.ridge
        self._beta = np.linalg.solve(gram, f_active.T @ y)
        self._sse = float(np.sum((f_active @ self._beta - y) ** 2))

    def _predict(self, x: np.ndarray) -> np.ndarray:
        f = self._builder.expand(x)
        return f[:, self._active] @ self._beta

    # ------------------------------------------------------------------
    @property
    def n_params(self) -> int:
        return int(self._active.shape[0])

    def coefficients(self) -> Dict[str, float]:
        """Term name -> partial regression coefficient (coded scale)."""
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        names = self._builder.term_names(
            self.variable_names
            or [f"x{i}" for i in range(self._n_features)]
        )
        return {
            names[idx]: float(b)
            for idx, b in zip(self._active, self._beta)
        }

    def significant_terms(self, top: int = 20) -> List[str]:
        """The ``top`` non-intercept terms by coefficient magnitude."""
        coefs = self.coefficients()
        coefs.pop("(intercept)", None)
        ranked = sorted(coefs.items(), key=lambda kv: -abs(kv[1]))
        return [name for name, _ in ranked[:top]]
