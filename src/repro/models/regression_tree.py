"""CART-style regression trees.

Used both as a standalone non-parametric model and -- following Orr et
al. [12], cited in Section 4.3 -- as the mechanism that chooses the number,
centers and radii of RBF neurons: the tree recursively partitions the
design space into regions of roughly uniform response, and each region
contributes one neuron.

Trees are grown *best-first*: the leaf with the largest achievable SSE
reduction is split next, which yields a nested sequence of trees indexed
by leaf count, convenient for BIC/GCV model-size selection.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.models.base import RegressionModel


@dataclass
class TreeNode:
    """A node of the regression tree.

    Leaves have ``feature is None``; internal nodes route points with
    ``x[feature] <= threshold`` to ``left`` and the rest to ``right``.
    """

    indices: np.ndarray
    value: float
    sse: float
    depth: int
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def leaves(self) -> List["TreeNode"]:
        if self.is_leaf:
            return [self]
        return self.left.leaves() + self.right.leaves()


def _node_stats(y: np.ndarray) -> Tuple[float, float]:
    mean = float(y.mean())
    return mean, float(np.sum((y - mean) ** 2))


def _best_split(
    x: np.ndarray, y: np.ndarray, indices: np.ndarray, min_leaf: int
) -> Optional[Tuple[int, float, float]]:
    """Best (feature, threshold, sse_reduction) for a node, or None.

    Candidate thresholds are midpoints between consecutive distinct
    sorted values of a feature; the split SSE comes from prefix sums.
    Every feature is scored at once, column by column along axis 0, so
    a node costs a fixed number of array operations.  Each column sees
    exactly the operations a one-feature search would make, and ties go
    to the first position, then the first feature.
    """
    ys = y[indices]
    n = ys.shape[0]
    if n < 2 * min_leaf or n < 2:
        return None
    _, total_sse = _node_stats(ys)
    xs = x[indices]
    order = np.argsort(xs, axis=0, kind="stable")
    xs_sorted = np.take_along_axis(xs, order, axis=0)
    ys_sorted = ys[order]
    csum = np.cumsum(ys_sorted, axis=0)
    csum2 = np.cumsum(ys_sorted**2, axis=0)
    total, total2 = csum[-1], csum2[-1]
    # Split after row i (1-indexed count in the left child).
    counts = np.arange(1, n)[:, None]
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
    reduction = np.where(legal, reduction, -np.inf)
    positions = np.argmax(reduction, axis=0)
    gains = reduction[positions, np.arange(xs.shape[1])]
    best: Optional[Tuple[int, int, float]] = None
    for feat, (pos, gain) in enumerate(zip(positions.tolist(), gains.tolist())):
        # A feature with no legal split scores -inf and is skipped here.
        if gain <= 1e-12:
            continue
        if best is None or gain > best[2]:
            best = (feat, pos, gain)
    if best is None:
        return None
    feat, pos, gain = best
    threshold = 0.5 * (xs_sorted[pos, feat] + xs_sorted[pos + 1, feat])
    return feat, float(threshold), gain


class RegressionTree(RegressionModel):
    """Best-first CART regression tree.

    Parameters
    ----------
    max_leaves:
        Upper bound on leaf count (model complexity).
    min_samples_leaf:
        Minimum training points in any leaf.
    """

    def __init__(
        self,
        variable_names=None,
        max_leaves: int = 32,
        min_samples_leaf: int = 3,
    ):
        super().__init__(variable_names)
        if max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")
        self.max_leaves = max_leaves
        self.min_samples_leaf = min_samples_leaf
        self.root: Optional[TreeNode] = None
        self._x: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        for _ in self.grow(x, y):
            pass

    def grow(self, x: np.ndarray, y: np.ndarray) -> Iterator[int]:
        """Grow the tree on a validated design, yielding its leaf count
        once for the root and once after every split.

        Growth is nested: at the yield of ``c`` leaves the tree is the
        one ``max_leaves=c`` grows, so one growth to the largest size
        serves every smaller one (:class:`~repro.models.rbf.RbfModel`
        reads :meth:`leaf_regions` at each size it needs).  Drive it to
        the end, as :meth:`fit` does, for the ``max_leaves`` tree.
        """
        self._x = x
        indices = np.arange(x.shape[0])
        mean, node_sse = _node_stats(y)
        self.root = TreeNode(indices=indices, value=mean, sse=node_sse, depth=0)
        # Best-first growth: priority queue on achievable SSE reduction.
        counter = itertools.count()  # tie-breaker, keeps heap comparable
        heap: List[Tuple[float, int, TreeNode, Tuple[int, float, float]]] = []

        def push(node: TreeNode) -> None:
            split = _best_split(x, y, node.indices, self.min_samples_leaf)
            if split is not None:
                heapq.heappush(heap, (-split[2], next(counter), node, split))

        push(self.root)
        n_leaves = 1
        yield n_leaves
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
            node.indices = np.empty(0, dtype=int)  # free internal storage
            n_leaves += 1
            push(node.left)
            push(node.right)
            yield n_leaves

    def _predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    # ------------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        if self.root is None:
            raise RuntimeError("model is not fitted")
        return len(self.root.leaves())

    def leaf_regions(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """For each leaf: (member indices, region lower, region upper).

        Region bounds are the hyper-rectangle implied by the split path,
        clipped to the coded cube ``[-1, 1]^k``; used by the RBF network to
        derive neuron centers and radii.
        """
        if self.root is None:
            raise RuntimeError("model is not fitted")
        k = self._x.shape[1]
        results = []

        def walk(node: TreeNode, lo: np.ndarray, hi: np.ndarray) -> None:
            if node.is_leaf:
                results.append((node.indices.copy(), lo.copy(), hi.copy()))
                return
            left_hi = hi.copy()
            left_hi[node.feature] = min(hi[node.feature], node.threshold)
            walk(node.left, lo, left_hi)
            right_lo = lo.copy()
            right_lo[node.feature] = max(lo[node.feature], node.threshold)
            walk(node.right, right_lo, hi)

        walk(self.root, -np.ones(k), np.ones(k))
        return results
