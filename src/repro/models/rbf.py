"""Radial basis function networks (paper Section 4.3).

A three-layer network models the response as a weighted sum of localized
radial basis functions (Equation 7).  Following the paper, neuron centers
and radii are derived from a regression tree that partitions the design
space into regions of roughly uniform response: each leaf region
contributes one neuron, centered at the training point nearest the
region's centroid, with radius proportional to the region's half-diagonal.
Network size (tree leaf count) and radius scale are selected by BIC
(Section 4.4); the paper found the multiquadric kernel most accurate, so
it is the default.

``center_mode="data"`` places one neuron on every training point instead,
reproducing the overfitting pathology discussed in Section 4.4 (used by
the ablation benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import RegressionModel
from repro.models.metrics import bic
from repro.models.regression_tree import RegressionTree


def _gaussian(u2: np.ndarray) -> np.ndarray:
    """exp(-||x-c||^2 / 2r^2); Equation 8 (Gaussian)."""
    return np.exp(-u2)


def _multiquadric(u2: np.ndarray) -> np.ndarray:
    """sqrt(1 + ||x-c||^2 / 2r^2); Equation 8 (multiquad)."""
    return np.sqrt(1.0 + u2)


def _inverse_multiquadric(u2: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(1.0 + u2)


#: Available kernel functions; each maps squared scaled distance
#: ``u2 = ||x - c||^2 / (2 r^2)`` to the basis response.
KERNELS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "gaussian": _gaussian,
    "multiquadric": _multiquadric,
    "inverse_multiquadric": _inverse_multiquadric,
}


@dataclass
class _Network:
    centers: np.ndarray  # (m, k)
    radii: np.ndarray  # (m,)
    weights: np.ndarray  # (m + 1,) -- leading element is the bias w0


class RbfModel(RegressionModel):
    """RBF network with regression-tree center selection.

    Parameters
    ----------
    kernel:
        One of :data:`KERNELS`; the paper's evaluation favours
        ``"multiquadric"``.
    center_mode:
        ``"tree"`` (paper's RBF-RT) derives centers from regression-tree
        regions; ``"data"`` uses every training point as a center.
    candidate_sizes:
        Leaf counts to consider; defaults to a geometric sweep bounded by
        half the training-set size.  The size minimizing BIC wins.
    radius_scales:
        Multipliers on the region half-diagonal tried during selection.
    ridge:
        Regularization of the output-weight least squares.
    linear_tail:
        Augment the basis with the raw coded coordinates (an RBF network
        with a first-order polynomial tail), so global linear trends do
        not have to be pieced together from localized bumps.
    """

    def __init__(
        self,
        variable_names: Optional[Sequence[str]] = None,
        kernel: str = "multiquadric",
        center_mode: str = "tree",
        candidate_sizes: Optional[Sequence[int]] = None,
        radius_scales: Sequence[float] = (0.75, 1.0, 1.5),
        min_samples_leaf: int = 3,
        ridge: float = 1e-6,
        linear_tail: bool = True,
    ):
        super().__init__(variable_names)
        if kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {sorted(KERNELS)}"
            )
        if center_mode not in ("tree", "data"):
            raise ValueError(f"unknown center_mode {center_mode!r}")
        self.kernel = kernel
        self.center_mode = center_mode
        self.candidate_sizes = (
            list(candidate_sizes) if candidate_sizes else None
        )
        self.radius_scales = list(radius_scales)
        self.min_samples_leaf = min_samples_leaf
        self.ridge = ridge
        self.linear_tail = linear_tail
        self._net: Optional[_Network] = None
        self.selected_size: Optional[int] = None
        self.selected_scale: Optional[float] = None
        self.bic_score: Optional[float] = None

    # ------------------------------------------------------------------
    def _design_matrix(
        self, x: np.ndarray, centers: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        # Squared distances, (n, m).
        d2 = (
            np.sum(x**2, axis=1)[:, None]
            - 2.0 * x @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        u2 = d2 / (2.0 * radii[None, :] ** 2)
        phi = KERNELS[self.kernel](u2)
        if self.linear_tail:
            return np.column_stack([np.ones(x.shape[0]), x, phi])
        return np.column_stack([np.ones(x.shape[0]), phi])

    def _solve_weights(
        self, phi: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        gram = phi.T @ phi
        gram[np.diag_indices_from(gram)] += self.ridge
        w = np.linalg.solve(gram, phi.T @ y)
        resid = y - phi @ w
        return w, float(resid @ resid)

    def _tree_neurons(
        self, x: np.ndarray, y: np.ndarray, sizes: Sequence[int]
    ) -> Dict[int, Tuple[np.ndarray, List[float]]]:
        """Centers and region half-diagonals for every candidate size.

        One best-first tree grows to the largest size; since growth is
        nested, each size takes the leaf regions the growth has when it
        first reaches that many leaves, or the final regions if growth
        stops before.
        """
        tree = RegressionTree(
            max_leaves=max(sizes), min_samples_leaf=self.min_samples_leaf
        )
        pending = sorted(set(sizes))
        regions = {}
        for n_leaves in tree.grow(x, y):
            while pending and pending[0] <= n_leaves:
                regions[pending.pop(0)] = tree.leaf_regions()
        # Growth stopped short of these sizes: no legal split was left.
        regions.update(dict.fromkeys(pending, tree.leaf_regions()))
        neurons = {}
        for size, leaves in regions.items():
            centers, half_diags = [], []
            for indices, lo, hi in leaves:
                members = x[indices]
                centroid = members.mean(axis=0)
                nearest = members[
                    int(np.argmin(np.sum((members - centroid) ** 2, axis=1)))
                ]
                centers.append(nearest)
                half_diags.append(0.5 * float(np.linalg.norm(hi - lo)))
            neurons[size] = (np.array(centers), half_diags)
        return neurons

    def _default_sizes(self, n: int) -> List[int]:
        cap = max(2, n // 2)
        sizes = []
        size = 4
        while size <= cap:
            sizes.append(size)
            size = int(round(size * 1.5))
        if not sizes:
            sizes = [2]
        return sizes

    # ------------------------------------------------------------------
    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        n = x.shape[0]
        if self.center_mode == "data":
            # Every training point a center; radius from typical spacing.
            centers = x.copy()
            d2 = (
                np.sum(x**2, axis=1)[:, None]
                - 2.0 * x @ x.T
                + np.sum(x**2, axis=1)[None, :]
            )
            np.fill_diagonal(d2, np.inf)
            typical = float(np.sqrt(np.median(np.min(d2, axis=1))))
            radii = np.full(n, max(2.0 * typical, 1e-3))
            phi = self._design_matrix(x, centers, radii)
            w, sse_val = self._solve_weights(phi, y)
            self._net = _Network(centers, radii, w)
            self.selected_size = n
            self.selected_scale = 1.0
            self.bic_score = bic(sse_val, n, phi.shape[1])
            return

        sizes = [
            size
            for size in self.candidate_sizes or self._default_sizes(n)
            if size + 1 < n
        ]
        if sizes and min(sizes) < 1:
            raise ValueError("candidate network sizes must be >= 1")
        neurons = self._tree_neurons(x, y, sizes) if sizes else {}
        best = None  # (bic, net, size, scale)
        for size in sizes:
            centers, half_diags = neurons[size]
            for scale in self.radius_scales:
                radii = np.array([max(scale * h, 1e-3) for h in half_diags])
                phi = self._design_matrix(x, centers, radii)
                w, sse_val = self._solve_weights(phi, y)
                score = bic(sse_val, n, phi.shape[1])
                if best is None or score < best[0]:
                    best = (
                        score,
                        _Network(centers, radii, w),
                        centers.shape[0],
                        scale,
                    )
        if best is None:
            raise ValueError(
                f"training set of size {n} too small for any candidate "
                f"network size"
            )
        self.bic_score, self._net, self.selected_size, self.selected_scale = best

    def _predict(self, x: np.ndarray) -> np.ndarray:
        phi = self._design_matrix(x, self._net.centers, self._net.radii)
        return phi @ self._net.weights

    # ------------------------------------------------------------------
    @property
    def n_neurons(self) -> int:
        if self._net is None:
            raise RuntimeError("model is not fitted")
        return self._net.centers.shape[0]
