"""Multivariate Adaptive Regression Splines (paper Section 4.2).

MARS [Friedman 1991] recursively partitions the domain with products of
hinge functions ``max(0, x_v - t)`` / ``max(0, t - x_v)`` and fits the
response as a linear combination of these basis functions (Equation 6).

The implementation follows the classical two-phase algorithm:

* **forward pass** -- greedily add the reflected hinge pair (parent basis
  x variable x knot) that most reduces training SSE.  Each parent's
  candidate hinge columns are built once, when it enters the basis; each
  step orthogonalizes all of them against the current basis and scores
  every pair in one pass;
* **backward pass** -- prune basis functions one at a time, keeping the
  subset minimizing Generalized Cross Validation.

The fitted model exposes an ANOVA decomposition (basis functions grouped
by the variable set they involve) and Table-4-style *effect coefficients*:
for each variable or interaction present in the model, half the change in
predicted response between its low and high corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import RegressionModel
from repro.models.metrics import gcv


@dataclass(frozen=True)
class Hinge:
    """One hinge factor ``max(0, sign * (x[var] - knot))``."""

    var: int
    knot: float
    sign: int  # +1 or -1

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self.sign * (x[:, self.var] - self.knot))


@dataclass(frozen=True)
class MarsBasis:
    """A product of hinge factors; the empty product is the intercept."""

    hinges: Tuple[Hinge, ...] = ()

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        col = np.ones(x.shape[0])
        for h in self.hinges:
            col = col * h.evaluate(x)
        return col

    @property
    def variables(self) -> FrozenSet[int]:
        return frozenset(h.var for h in self.hinges)

    @property
    def degree(self) -> int:
        return len(self.hinges)

    def describe(self, names: Sequence[str]) -> str:
        if not self.hinges:
            return "(intercept)"
        parts = []
        for h in self.hinges:
            if h.sign > 0:
                parts.append(f"max(0, {names[h.var]} - {h.knot:g})")
            else:
                parts.append(f"max(0, {h.knot:g} - {names[h.var]})")
        return " * ".join(parts)


def _pair_gain(
    c_perp: Sequence[np.ndarray], residual: np.ndarray
) -> List[np.ndarray]:
    """SSE reduction of jointly adding each (plus, minus) column pair.

    Each entry of ``c_perp`` stacks G candidate blocks of one width, shape
    (G, n, 2K): in every block, columns 2k and 2k+1 are a reflected pair,
    already orthogonalized against the current basis.  Returns the (G, K)
    gains of each entry; every pair of every entry is scored in one pass.

    Each block is reduced on its own (n, 2K) slab and each 2x2 solve is its
    own BLAS product, the arithmetic of scoring one block at a time, so a
    gain does not depend on which other blocks share the pass.
    """
    stats = []
    for block in c_perp:
        a = block[:, :, 0::2]
        b = block[:, :, 1::2]
        stats.append((
            np.einsum("gij,gij->gj", a, a),
            np.einsum("gij,gij->gj", b, b),
            np.einsum("gij,gij->gj", a, b),
            np.matmul(a.transpose(0, 2, 1), residual),
            np.matmul(b.transpose(0, 2, 1), residual),
        ))
    aa, bb, ab, ar, br = (
        np.concatenate([s[i].ravel() for s in stats]) for i in range(5)
    )
    eps = 1e-10
    aabb = aa * bb
    det = aabb - ab * ab
    joint = det > eps * np.where(eps > aabb, eps, aabb)
    gains = np.full(aa.shape, -np.inf)
    # Joint 2-column projection gain v @ inv @ v, one BLAS product per pair.
    inv = np.empty((int(joint.sum()), 2, 2))
    inv[:, 0, 0] = bb[joint]
    inv[:, 0, 1] = inv[:, 1, 0] = -ab[joint]
    inv[:, 1, 1] = aa[joint]
    inv /= det[joint][:, None, None]
    v = np.stack([ar[joint], br[joint]], axis=1)
    gains[joint] = np.matmul(np.matmul(v[:, None, :], inv), v[:, :, None])[:, 0, 0]
    # Degenerate pair: score the better single column.  ``t ** 2`` on a
    # NumPy scalar is libm's pow, which is not always ``t * t``.
    single = ~joint & ((aa > eps) | (bb > eps))
    ga = np.zeros(aa.shape)
    gb = np.zeros(aa.shape)
    for g, r, norm in ((ga, ar, aa), (gb, br, bb)):
        use = single & (norm > eps)
        g[use] = np.array([t ** 2 for t in r[use]]) / norm[use]
    gains[single] = np.where(gb > ga, gb, ga)[single]
    out, start = [], 0
    for block in c_perp:
        g_count, k = block.shape[0], block.shape[2] // 2
        out.append(gains[start:start + g_count * k].reshape(g_count, k))
        start += g_count * k
    return out


class MarsModel(RegressionModel):
    """MARS with forward growth and GCV backward pruning.

    Parameters
    ----------
    max_terms:
        Maximum number of basis functions grown in the forward pass
        (including the intercept).
    max_degree:
        Maximum interaction order of a basis function (2 reproduces the
        paper's two-factor-interaction focus).
    max_knots:
        Maximum number of candidate knots per (parent, variable) pair;
        knots are evenly spaced among the distinct active values.
    penalty:
        GCV complexity charge per non-constant basis function (Friedman
        recommends 2-4; 3 is customary when interactions are allowed).
    """

    def __init__(
        self,
        variable_names: Optional[Sequence[str]] = None,
        max_terms: int = 41,
        max_degree: int = 2,
        max_knots: int = 15,
        penalty: float = 3.0,
    ):
        super().__init__(variable_names)
        self.max_terms = max_terms
        self.max_degree = max_degree
        self.max_knots = max_knots
        self.penalty = penalty
        self.basis: List[MarsBasis] = []
        self.coef: Optional[np.ndarray] = None
        self.gcv_score: Optional[float] = None
        self._forward_basis: List[MarsBasis] = []

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------
    def _candidate_knots(
        self, x_col: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Knots for one (parent, variable) group.

        Every distinct value of the active data but the largest, thinned
        to ``max_knots`` knots evenly spaced by rank when there are more.
        """
        values = np.unique(x_col[active]) if active.any() else np.unique(x_col)
        if values.shape[0] < 2:
            return np.empty(0)
        knots = values[:-1]
        if knots.shape[0] > self.max_knots:
            idx = np.linspace(0, knots.shape[0] - 1, self.max_knots).astype(int)
            knots = knots[idx]
        return knots

    def _candidate_blocks(
        self, x: np.ndarray, parent: MarsBasis, parent_col: np.ndarray
    ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """``(var, knots, cand)`` for every variable ``parent`` may split on.

        ``cand`` has shape (n, 2K): columns 2k and 2k+1 are the reflected
        hinge pair ``parent * max(0, x_var - t_k)``,
        ``parent * max(0, t_k - x_var)``.  Empty when the parent is at
        ``max_degree`` or active on fewer than three rows.
        """
        active = parent_col > 0
        if parent.degree >= self.max_degree or active.sum() < 3:
            return []
        blocks = []
        for var in range(x.shape[1]):
            if var in parent.variables:
                continue
            knots = self._candidate_knots(x[:, var], active)
            if knots.shape[0] == 0:
                continue
            xv = x[:, var][:, None]
            cand = np.empty((x.shape[0], 2 * knots.shape[0]))
            cand[:, 0::2] = parent_col[:, None] * np.maximum(0.0, xv - knots)
            cand[:, 1::2] = parent_col[:, None] * np.maximum(0.0, knots - xv)
            blocks.append((var, knots, cand))
        return blocks

    def _forward(self, x: np.ndarray, y: np.ndarray) -> List[MarsBasis]:
        n = x.shape[0]
        basis = [MarsBasis()]
        # Orthonormal basis of the fitted column space + residual.
        q = np.ones((n, 1)) / np.sqrt(n)
        residual = y - q[:, 0] * (q[:, 0] @ y)
        sse_now = float(residual @ residual)
        # Candidate blocks, built once when their parent enters the basis
        # and numbered in (parent, variable) order.  Blocks of one width
        # 2K share a (G, n, 2K) stack; ``found`` locates a block number.
        stacks: Dict[int, np.ndarray] = {}
        numbers: Dict[int, List[int]] = {}
        # Per block number: (width, row in its stack, parent, var, knots).
        found: List[Tuple[int, int, int, int, np.ndarray]] = []

        def enter(parent_idx: int, col: np.ndarray) -> None:
            new: Dict[int, List[np.ndarray]] = {}
            for var, knots, cand in self._candidate_blocks(
                x, basis[parent_idx], col
            ):
                width = cand.shape[1]
                rows = numbers.setdefault(width, [])
                found.append((width, len(rows), parent_idx, var, knots))
                rows.append(len(found) - 1)
                new.setdefault(width, []).append(cand)
            for width, cands in new.items():
                added = np.stack(cands)
                stacks[width] = (
                    np.concatenate([stacks[width], added])
                    if width in stacks
                    else added
                )

        enter(0, np.ones(n))
        while stacks and len(basis) + 2 <= self.max_terms:
            widths = list(stacks)
            projected = []
            for w in widths:
                # One GEMM pair per block, as each would be projected alone
                # (one GEMM over a wide array changes bits with the column
                # offset).  Subtracting in place saves a stack-sized buffer.
                fitted = np.matmul(q, np.matmul(q.T, stacks[w]))
                projected.append(np.subtract(stacks[w], fitted, out=fitted))
            gains = _pair_gain(projected, residual)
            # A block whose best gain is not finite offers nothing; the step
            # takes the first maximum in (parent, variable, knot) order.
            top = np.empty(len(found))
            for width, g in zip(widths, gains):
                top[numbers[width]] = g.max(axis=1)
            usable = np.isfinite(top)
            if not usable.any():
                break
            number = int(np.argmax(np.where(usable, top, -np.inf)))
            width, row, parent_idx, var, knots = found[number]
            block = gains[widths.index(width)][row]
            j = int(np.argmax(block))
            gain, knot = float(block[j]), float(knots[j])
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
                enter(len(basis) - 1, col)
                q_new = c_perp / norm
                residual = residual - q_new * (q_new @ residual)
                q = np.column_stack([q, q_new])
            sse_now = float(residual @ residual)
        return basis

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def _fit_subset(
        self, b: np.ndarray, y: np.ndarray, keep: List[int]
    ) -> Tuple[np.ndarray, float]:
        cols = b[:, keep]
        beta, *_ = np.linalg.lstsq(cols, y, rcond=None)
        resid = y - cols @ beta
        return beta, float(resid @ resid)

    def _effective_params(self, n_terms: int) -> float:
        return n_terms + self.penalty * max(0, n_terms - 1)

    def _backward(
        self, x: np.ndarray, y: np.ndarray, basis: List[MarsBasis]
    ) -> Tuple[List[MarsBasis], np.ndarray, float]:
        n = x.shape[0]
        b = np.column_stack([bf.evaluate(x) for bf in basis])
        keep = list(range(len(basis)))
        beta, sse_val = self._fit_subset(b, y, keep)
        best = (
            gcv(sse_val, n, self._effective_params(len(keep))),
            list(keep),
            beta,
        )
        current = list(keep)
        while len(current) > 1:
            candidates = []
            for drop in current:
                if drop == 0:
                    continue  # keep the intercept
                trial = [i for i in current if i != drop]
                beta_t, sse_t = self._fit_subset(b, y, trial)
                score = gcv(sse_t, n, self._effective_params(len(trial)))
                candidates.append((score, trial, beta_t))
            if not candidates:
                break
            candidates.sort(key=lambda c: c[0])
            current = candidates[0][1]
            if candidates[0][0] < best[0]:
                best = candidates[0]
        score, keep, beta = best
        return [basis[i] for i in keep], beta, score

    # ------------------------------------------------------------------
    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        forward_basis = self._forward(x, y)
        self._forward_basis = forward_basis
        self.basis, self.coef, self.gcv_score = self._backward(
            x, y, forward_basis
        )

    def _predict(self, x: np.ndarray) -> np.ndarray:
        b = np.column_stack([bf.evaluate(x) for bf in self.basis])
        return b @ self.coef

    # ------------------------------------------------------------------
    # Interpretation (Section 6.2)
    # ------------------------------------------------------------------
    @property
    def n_terms(self) -> int:
        return len(self.basis)

    def describe(self) -> str:
        names = self.variable_names or [
            f"x{i}" for i in range(self._n_features)
        ]
        lines = []
        for bf, c in zip(self.basis, self.coef):
            lines.append(f"{c:+12.4f} * {bf.describe(names)}")
        return "\n".join(lines)

    def anova_components(self) -> Dict[FrozenSet[int], List[Tuple[MarsBasis, float]]]:
        """Basis functions grouped by the variable set they involve."""
        groups: Dict[FrozenSet[int], List[Tuple[MarsBasis, float]]] = {}
        for bf, c in zip(self.basis, self.coef):
            groups.setdefault(bf.variables, []).append((bf, float(c)))
        return groups

    def _component_value(
        self, group: List[Tuple[MarsBasis, float]], point: Dict[int, float]
    ) -> float:
        total = 0.0
        for bf, c in group:
            val = c
            for h in bf.hinges:
                val *= max(0.0, h.sign * (point[h.var] - h.knot))
            total += val
        return total

    def effect_coefficients(self) -> Dict[Tuple[int, ...], float]:
        """Table-4-style coefficients from the ANOVA decomposition.

        For a main effect i the coefficient is half the change in the
        component function g_i between the low (-1) and high (+1) coded
        corner; for a pair (i, j) it is the standard 2^2 factorial
        interaction contrast ``(g(++) - g(+-) - g(-+) + g(--)) / 4``.
        These reduce to the usual regression coefficients when the
        components are linear.
        """
        effects: Dict[Tuple[int, ...], float] = {}
        for vars_set, group in self.anova_components().items():
            vs = tuple(sorted(vars_set))
            if len(vs) == 0:
                effects[()] = self._component_value(group, {})
            elif len(vs) == 1:
                i = vs[0]
                hi = self._component_value(group, {i: 1.0})
                lo = self._component_value(group, {i: -1.0})
                effects[vs] = (hi - lo) / 2.0
            elif len(vs) == 2:
                i, j = vs
                pp = self._component_value(group, {i: 1.0, j: 1.0})
                pm = self._component_value(group, {i: 1.0, j: -1.0})
                mp = self._component_value(group, {i: -1.0, j: 1.0})
                mm = self._component_value(group, {i: -1.0, j: -1.0})
                effects[vs] = (pp - pm - mp + mm) / 4.0
            else:
                # Higher-order components: report the full-range contrast
                # against the all-low corner, scaled by 2^degree.
                hi = self._component_value(group, {v: 1.0 for v in vs})
                lo = self._component_value(group, {v: -1.0 for v in vs})
                effects[vs] = (hi - lo) / (2.0 ** len(vs))
        return effects

    def named_effects(self) -> Dict[str, float]:
        """Effect coefficients keyed by human-readable term names."""
        names = self.variable_names or [
            f"x{i}" for i in range(self._n_features)
        ]
        out: Dict[str, float] = {}
        for vs, value in self.effect_coefficients().items():
            if not vs:
                out["(intercept)"] = value
            else:
                out[" * ".join(names[v] for v in vs)] = value
        return out
