"""Reference RBF-RT fit: one tree growth per candidate size and scale.

The oracle the differential tests (``tests/test_rbf_fit.py``) compare
:class:`repro.models.rbf.RbfModel` and
:class:`repro.models.regression_tree.RegressionTree` against.  It grows
a new best-first tree for every pair of candidate network size and
radius scale, and its split search scores one feature at a time with
its own sort and prefix sums.  Prediction, ``leaf_regions``, the design
matrix and the weight solve are the production ones, which this
algorithm never changed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

import numpy as np

from repro.models.metrics import bic
from repro.models.rbf import RbfModel, _Network
from repro.models.regression_tree import RegressionTree, TreeNode, _node_stats


def reference_best_split(
    x: np.ndarray, y: np.ndarray, indices: np.ndarray, min_leaf: int
) -> Optional[Tuple[int, float, float]]:
    """Best (feature, threshold, sse_reduction) for a node, or None,
    scoring each feature in turn."""
    ys = y[indices]
    n = ys.shape[0]
    if n < 2 * min_leaf:
        return None
    _, total_sse = _node_stats(ys)
    best: Optional[Tuple[int, float, float]] = None
    for feat in range(x.shape[1]):
        xs = x[indices, feat]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys_sorted = ys[order]
        csum = np.cumsum(ys_sorted)
        csum2 = np.cumsum(ys_sorted**2)
        total, total2 = csum[-1], csum2[-1]
        # Split after position i (1-indexed count in left child).
        counts = np.arange(1, n)
        left_sse = csum2[:-1] - csum[:-1] ** 2 / counts
        right_counts = n - counts
        right_sum = total - csum[:-1]
        right_sse = (total2 - csum2[:-1]) - right_sum**2 / right_counts
        reduction = total_sse - (left_sse + right_sse)
        # Legal split positions: value changes and both children big enough.
        legal = (
            (xs_sorted[1:] > xs_sorted[:-1] + 1e-12)
            & (counts >= min_leaf)
            & (right_counts >= min_leaf)
        )
        if not np.any(legal):
            continue
        reduction = np.where(legal, reduction, -np.inf)
        pos = int(np.argmax(reduction))
        if reduction[pos] <= 1e-12:
            continue
        threshold = 0.5 * (xs_sorted[pos] + xs_sorted[pos + 1])
        if best is None or reduction[pos] > best[2]:
            best = (feat, float(threshold), float(reduction[pos]))
    return best


class ReferenceTree(RegressionTree):
    """Best-first growth to ``max_leaves`` with the per-feature search."""

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self._x = x
        indices = np.arange(x.shape[0])
        mean, node_sse = _node_stats(y)
        self.root = TreeNode(indices=indices, value=mean, sse=node_sse, depth=0)
        counter = itertools.count()
        heap: List[Tuple[float, int, TreeNode, Tuple[int, float, float]]] = []

        def push(node: TreeNode) -> None:
            split = reference_best_split(x, y, node.indices, self.min_samples_leaf)
            if split is not None:
                heapq.heappush(heap, (-split[2], next(counter), node, split))

        push(self.root)
        n_leaves = 1
        while heap and n_leaves < self.max_leaves:
            _, _, node, (feat, threshold, _) = heapq.heappop(heap)
            mask = x[node.indices, feat] <= threshold
            li, ri = node.indices[mask], node.indices[~mask]
            lmean, lsse = _node_stats(y[li])
            rmean, rsse = _node_stats(y[ri])
            node.feature = feat
            node.threshold = threshold
            node.left = TreeNode(li, lmean, lsse, node.depth + 1)
            node.right = TreeNode(ri, rmean, rsse, node.depth + 1)
            node.indices = np.empty(0, dtype=int)
            n_leaves += 1
            push(node.left)
            push(node.right)


class ReferenceRbf(RbfModel):
    """RBF-RT that grows a :class:`ReferenceTree` per size and scale."""

    def _tree_centers(
        self, x: np.ndarray, y: np.ndarray, n_leaves: int, scale: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        tree = ReferenceTree(
            max_leaves=n_leaves, min_samples_leaf=self.min_samples_leaf
        )
        tree.fit(x, y)
        centers, radii = [], []
        for indices, lo, hi in tree.leaf_regions():
            members = x[indices]
            centroid = members.mean(axis=0)
            nearest = members[
                int(np.argmin(np.sum((members - centroid) ** 2, axis=1)))
            ]
            centers.append(nearest)
            half_diag = 0.5 * float(np.linalg.norm(hi - lo))
            radii.append(max(scale * half_diag, 1e-3))
        return np.array(centers), np.array(radii)

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        n = x.shape[0]
        if self.center_mode == "data":
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

        sizes = self.candidate_sizes or self._default_sizes(n)
        best = None  # (bic, net, size, scale)
        for size in sizes:
            if size + 1 >= n:
                continue
            for scale in self.radius_scales:
                centers, radii = self._tree_centers(x, y, size, scale)
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
