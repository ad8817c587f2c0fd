"""Reference MARS forward pass: one scoring call per (parent, variable).

The oracle the differential tests (``tests/test_mars_fit.py``) compare
:class:`repro.models.mars.MarsModel` against.  Every forward step
rebuilds the knots and hinge columns of each (parent basis, variable)
group, projects them against the current basis and scores the group's
pairs with its own ``reference_pair_gain`` call; the step keeps the
first maximum of the first group that strictly beats the best so far.
Knot selection, the backward pass and prediction are the production
ones, which this algorithm never changed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.models.mars import Hinge, MarsBasis, MarsModel


def reference_pair_gain(
    c_perp: np.ndarray, residual: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """SSE reduction of jointly adding each (plus, minus) column pair.

    ``c_perp`` has shape (n, 2K): columns 2k and 2k+1 are a reflected pair,
    already orthogonalized against the current basis.  Returns the gain per
    pair and per-column squared norms (for degeneracy checks).
    """
    n, two_k = c_perp.shape
    k = two_k // 2
    a = c_perp[:, 0::2]
    b = c_perp[:, 1::2]
    aa = np.einsum("ij,ij->j", a, a)
    bb = np.einsum("ij,ij->j", b, b)
    ab = np.einsum("ij,ij->j", a, b)
    ar = a.T @ residual
    br = b.T @ residual
    det = aa * bb - ab * ab
    gains = np.empty(k)
    eps = 1e-10
    for i in range(k):
        if det[i] > eps * max(aa[i] * bb[i], eps):
            # Joint 2-column projection gain.
            inv = np.array([[bb[i], -ab[i]], [-ab[i], aa[i]]]) / det[i]
            v = np.array([ar[i], br[i]])
            gains[i] = float(v @ inv @ v)
        elif aa[i] > eps or bb[i] > eps:
            # Degenerate pair: score the better single column.
            ga = ar[i] ** 2 / aa[i] if aa[i] > eps else 0.0
            gb = br[i] ** 2 / bb[i] if bb[i] > eps else 0.0
            gains[i] = max(ga, gb)
        else:
            gains[i] = -np.inf
    col_norms = np.empty(two_k)
    col_norms[0::2] = aa
    col_norms[1::2] = bb
    return gains, col_norms


class ReferenceMars(MarsModel):
    """:class:`MarsModel` with the per-group forward pass.

    ``step_log``, when a list, receives one ``(c_perp, residual, gains)``
    entry per scored group, in scoring order, so a test can rescore the
    same projections with the production scorer.
    """

    step_log = None

    def _forward(self, x: np.ndarray, y: np.ndarray) -> List[MarsBasis]:
        n, k = x.shape
        basis = [MarsBasis()]
        b_cols = [np.ones(n)]
        # Orthonormal basis of the fitted column space + residual.
        q = np.ones((n, 1)) / np.sqrt(n)
        residual = y - q[:, 0] * (q[:, 0] @ y)
        sse_now = float(residual @ residual)

        while len(basis) + 2 <= self.max_terms:
            best = None  # (gain, parent_idx, var, knot)
            for parent_idx, parent in enumerate(basis):
                if parent.degree >= self.max_degree:
                    continue
                parent_col = b_cols[parent_idx]
                active = parent_col > 0
                if active.sum() < 3:
                    continue
                for var in range(k):
                    if var in parent.variables:
                        continue
                    knots = self._candidate_knots(x[:, var], active)
                    if knots.shape[0] == 0:
                        continue
                    xv = x[:, var][:, None]
                    plus = parent_col[:, None] * np.maximum(0.0, xv - knots)
                    minus = parent_col[:, None] * np.maximum(0.0, knots - xv)
                    cand = np.empty((n, 2 * knots.shape[0]))
                    cand[:, 0::2] = plus
                    cand[:, 1::2] = minus
                    c_perp = cand - q @ (q.T @ cand)
                    gains, _ = reference_pair_gain(c_perp, residual)
                    if self.step_log is not None:
                        self.step_log.append((c_perp, residual, gains))
                    j = int(np.argmax(gains))
                    if np.isfinite(gains[j]) and (
                        best is None or gains[j] > best[0]
                    ):
                        best = (float(gains[j]), parent_idx, var, float(knots[j]))
            if best is None:
                break
            gain, parent_idx, var, knot = best
            if gain <= 1e-10 * max(sse_now, 1e-10):
                break
            parent = basis[parent_idx]
            for sign in (+1, -1):
                new_basis = MarsBasis(parent.hinges + (Hinge(var, knot, sign),))
                col = new_basis.evaluate(x)
                c_perp = col - q @ (q.T @ col)
                norm = np.linalg.norm(c_perp)
                if norm < 1e-8:
                    continue  # degenerate (e.g. hinge inactive everywhere)
                basis.append(new_basis)
                b_cols.append(col)
                q_new = c_perp / norm
                residual = residual - q_new * (q_new @ residual)
                q = np.column_stack([q, q_new])
            sse_now = float(residual @ residual)
        return basis
