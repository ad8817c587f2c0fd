"""The :class:`ParameterSpace`: an ordered set of predictor variables.

Design points live in two equivalent representations:

* a *point dict* mapping variable name to raw value (what the compiler and
  simulator consume), and
* a *coded vector* (numpy array of values in ``[-1, 1]``, in variable order)
  which is what designs are generated in and models are trained on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.space.variables import Variable, VariableKind


class ParameterSpace:
    """An ordered collection of :class:`Variable` objects.

    The space knows how to encode/decode points, generate random legal
    points, and restrict or freeze subsets of variables (used when a model
    is searched with the microarchitecture held fixed).
    """

    def __init__(self, variables: Sequence[Variable]):
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in parameter space")
        self._variables: List[Variable] = list(variables)
        self._index = {v.name: i for i, v in enumerate(self._variables)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> List[Variable]:
        return list(self._variables)

    @property
    def names(self) -> List[str]:
        return [v.name for v in self._variables]

    @property
    def dim(self) -> int:
        return len(self._variables)

    def __len__(self) -> int:
        return len(self._variables)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Variable:
        return self._variables[self._index[name]]

    def index_of(self, name: str) -> int:
        return self._index[name]

    def size(self) -> int:
        """Total number of design points in the (discretized) domain."""
        total = 1
        for v in self._variables:
            total *= v.levels
        return total

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, point: Mapping[str, float]) -> np.ndarray:
        """Encode a raw point dict into a coded vector."""
        missing = [v.name for v in self._variables if v.name not in point]
        if missing:
            raise KeyError(f"point missing variables: {missing}")
        return np.array(
            [v.encode(point[v.name]) for v in self._variables], dtype=float
        )

    def decode(self, coded: Sequence[float]) -> Dict[str, float]:
        """Decode a coded vector into a raw point dict (snapped to levels)."""
        coded = np.asarray(coded, dtype=float)
        if coded.shape != (self.dim,):
            raise ValueError(
                f"coded vector has shape {coded.shape}, expected ({self.dim},)"
            )
        return {
            v.name: v.decode(c)
            for v, c in zip(self._variables, coded.tolist())
        }

    def encode_matrix(self, points: Iterable[Mapping[str, float]]) -> np.ndarray:
        """Encode an iterable of point dicts into an ``(n, dim)`` matrix."""
        rows = [self.encode(p) for p in points]
        if not rows:
            return np.empty((0, self.dim))
        return np.vstack(rows)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def random_point(self, rng: np.random.Generator) -> Dict[str, float]:
        """A uniformly random legal point (each variable at a random level)."""
        return {
            v.name: v.level_values()[rng.integers(v.levels)]
            for v in self._variables
        }

    def random_points(
        self, n: int, rng: np.random.Generator
    ) -> List[Dict[str, float]]:
        return [self.random_point(rng) for _ in range(n)]

    def validate(self, point: Mapping[str, float]) -> None:
        """Raise ``ValueError`` if the point is off-grid or out of range."""
        for v in self._variables:
            if v.name not in point:
                raise ValueError(f"point missing variable {v.name!r}")
            if not v.is_level(point[v.name]):
                raise ValueError(
                    f"{point[v.name]!r} is not a legal level of {v.name!r} "
                    f"(levels: {v.level_values()})"
                )

    # ------------------------------------------------------------------
    # Subspaces
    # ------------------------------------------------------------------
    def subspace(self, names: Sequence[str]) -> "ParameterSpace":
        """A new space containing only the named variables, in given order."""
        return ParameterSpace([self[name] for name in names])

    def split(
        self, names: Sequence[str]
    ) -> "tuple[ParameterSpace, ParameterSpace]":
        """Split into (named subspace, remainder subspace)."""
        chosen = set(names)
        rest = [v.name for v in self._variables if v.name not in chosen]
        return self.subspace(names), self.subspace(rest)

    def merge_points(
        self, a: Mapping[str, float], b: Mapping[str, float]
    ) -> Dict[str, float]:
        """Combine two partial points covering disjoint variable subsets."""
        merged = dict(a)
        for key, value in b.items():
            if key in merged and merged[key] != value:
                raise ValueError(f"conflicting values for {key!r}")
            merged[key] = value
        self.validate(merged)
        return merged

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A Table 1/2 style text rendering of the space."""
        lines = [
            f"{'#':>3} {'name':<24} {'kind':<9} {'low':>8} {'high':>8} "
            f"{'levels':>7}"
        ]
        for i, v in enumerate(self._variables, start=1):
            lines.append(
                f"{i:>3} {v.name:<24} {v.kind.value:<9} {v.low:>8.0f} "
                f"{v.high:>8.0f} {v.levels:>7}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ParameterSpace({self.names})"
