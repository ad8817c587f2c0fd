"""Model-matrix expansion of coded design matrices.

D-optimality is defined with respect to a model: the information matrix is
``F'F`` where ``F`` is the design expanded into model terms (intercept,
main effects, and optionally two-factor interactions -- the paper's linear
models "incorporate individual effects between parameters and two-factor
interactions", Section 5).  The same expansion is reused by the linear
regression model itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TermSpec:
    """One column of the model matrix.

    ``indices`` is a tuple of variable indices multiplied together:
    ``()`` for the intercept, ``(i,)`` for a main effect, ``(i, j)`` for a
    two-factor interaction.
    """

    indices: Tuple[int, ...]

    def evaluate(self, coded: np.ndarray) -> np.ndarray:
        """Evaluate the term on an ``(n, k)`` coded matrix -> ``(n,)``."""
        coded = np.atleast_2d(coded)
        col = np.ones(coded.shape[0])
        for i in self.indices:
            col = col * coded[:, i]
        return col

    def name(self, variable_names: Sequence[str]) -> str:
        if not self.indices:
            return "(intercept)"
        return " * ".join(variable_names[i] for i in self.indices)

    @property
    def order(self) -> int:
        return len(self.indices)


class ModelMatrixBuilder:
    """Expands coded design matrices into model matrices.

    Parameters
    ----------
    n_variables:
        Dimension of the coded design space.
    interactions:
        If True, include all two-factor interaction columns.
    quadratic:
        If True, include squared main-effect columns (useful for response
        surfaces on many-level numeric variables).
    """

    def __init__(
        self,
        n_variables: int,
        interactions: bool = True,
        quadratic: bool = False,
    ):
        self.n_variables = n_variables
        self.interactions = interactions
        self.quadratic = quadratic
        self._terms = self._build_terms()
        # Each term as two column indices into the design padded with a
        # column of ones (index ``n_variables``), which stands in for a
        # missing factor: ``1.0 * a`` is exact, so the product of the
        # two gathered copies equals ``TermSpec.evaluate`` bit for bit.
        pad = (n_variables, n_variables)
        self._left, self._right = np.array(
            [(t.indices + pad)[:2] for t in self._terms], dtype=np.intp
        ).T

    def _build_terms(self) -> List[TermSpec]:
        terms = [TermSpec(())]
        for i in range(self.n_variables):
            terms.append(TermSpec((i,)))
        if self.quadratic:
            for i in range(self.n_variables):
                terms.append(TermSpec((i, i)))
        if self.interactions:
            for i in range(self.n_variables):
                for j in range(i + 1, self.n_variables):
                    terms.append(TermSpec((i, j)))
        return terms

    @property
    def terms(self) -> List[TermSpec]:
        return list(self._terms)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def term_names(self, variable_names: Sequence[str]) -> List[str]:
        return [t.name(variable_names) for t in self._terms]

    def expand(self, coded: np.ndarray) -> np.ndarray:
        """Expand an ``(n, k)`` coded matrix into an ``(n, p)`` model matrix."""
        coded = np.atleast_2d(np.asarray(coded, dtype=float))
        if coded.shape[1] != self.n_variables:
            raise ValueError(
                f"design has {coded.shape[1]} variables, "
                f"builder expects {self.n_variables}"
            )
        padded = np.column_stack([coded, np.ones(coded.shape[0])])
        # ``take`` returns C order, the layout ``column_stack`` gave.
        left = np.take(padded, self._left, axis=1)
        return left * np.take(padded, self._right, axis=1)


def builder_for_sample_size(
    n_variables: int, n_samples: int
) -> ModelMatrixBuilder:
    """Pick the richest expansion the sample size can support.

    A two-factor-interaction expansion has ``1 + k + k(k-1)/2`` columns; if
    the training budget cannot estimate that many parameters the builder
    falls back to main effects only, keeping the information matrix
    nonsingular.
    """
    full = ModelMatrixBuilder(n_variables, interactions=True)
    if n_samples >= full.n_terms + 5:
        return full
    return ModelMatrixBuilder(n_variables, interactions=False)
