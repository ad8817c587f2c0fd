"""Predictor variables and their coded representations.

The paper distinguishes binary categorical flags, ordinary discrete
parameters, and parameters that only vary in powers of two, which are
log-transformed before modeling (Section 2.3, Table 2 footnote).  All
variables are linearly mapped onto ``[-1, 1]`` for modeling (Table 1
caption).
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from typing import List, Sequence

#: Attributes computed from the fields, kept out of pickles.
_DERIVED = ("_t_low", "_t_high", "_grid")


class VariableKind(enum.Enum):
    """How a predictor variable varies and how it is transformed."""

    #: Binary categorical flag; takes values 0 and 1 with no natural order.
    BINARY = "binary"
    #: Ordinary discrete numeric variable, linear scale.
    DISCRETE = "discrete"
    #: Power-of-two variable; log2-transformed before coding (Table 2 "*").
    LOG2 = "log2"


@dataclass(frozen=True)
class Variable:
    """A single predictor variable (one row of Table 1 or Table 2).

    Parameters
    ----------
    name:
        Identifier used in design points, model terms and configs.
    kind:
        The :class:`VariableKind`.
    low, high:
        Operating range, in raw (untransformed) units.
    levels:
        Number of distinct levels the variable is varied at.  Binary
        variables always have two levels.
    description:
        Human-readable description (the Table 1/2 "Description" column).
    """

    name: str
    kind: VariableKind
    low: float
    high: float
    levels: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind is VariableKind.BINARY:
            if (self.low, self.high) != (0, 1) or self.levels != 2:
                raise ValueError(
                    f"binary variable {self.name!r} must have range [0,1] "
                    "and 2 levels"
                )
        else:
            if self.high <= self.low:
                raise ValueError(f"variable {self.name!r}: high <= low")
            if self.levels < 2:
                raise ValueError(f"variable {self.name!r}: needs >= 2 levels")
        if self.kind is VariableKind.LOG2:
            if self.low <= 0:
                raise ValueError(f"log2 variable {self.name!r}: low must be > 0")
        self._derive()

    def _derive(self) -> None:
        # Decoding reads the transformed range and the level grid once per
        # coordinate, so compute them once.  Not fields: equality and
        # hashing stay on the fields.  The dataclass is frozen, hence
        # ``object.__setattr__``.
        object.__setattr__(self, "_t_low", self._transform(self.low))
        object.__setattr__(self, "_t_high", self._transform(self.high))
        object.__setattr__(self, "_grid", tuple(self._levels()))

    def __getstate__(self) -> dict:
        # Pickle the fields alone, as before the grid was stored.
        return {k: v for k, v in self.__dict__.items() if k not in _DERIVED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive()

    # ------------------------------------------------------------------
    # Transform helpers
    # ------------------------------------------------------------------
    def _transform(self, value: float) -> float:
        """Map a raw value onto the (possibly log) modeling scale."""
        if self.kind is VariableKind.LOG2:
            return math.log2(value)
        return float(value)

    def _untransform(self, t: float) -> float:
        if self.kind is VariableKind.LOG2:
            return 2.0 ** t
        return t

    # ------------------------------------------------------------------
    # Levels
    # ------------------------------------------------------------------
    def level_values(self) -> List[float]:
        """The raw values at which this variable is varied.

        Levels are evenly spaced on the transformed scale, which makes
        power-of-two variables enumerate successive powers of two and
        linear variables enumerate an arithmetic progression.  Returns a
        new list, so a caller cannot change the stored grid.
        """
        return list(self._grid)

    def _levels(self) -> List[float]:
        if self.kind is VariableKind.BINARY:
            return [0.0, 1.0]
        t_low, t_high = self._t_low, self._t_high
        step = (t_high - t_low) / (self.levels - 1)
        values = []
        for i in range(self.levels):
            raw = self._untransform(t_low + i * step)
            values.append(float(round(raw)))
        return values

    # ------------------------------------------------------------------
    # Coded <-> raw
    # ------------------------------------------------------------------
    def encode(self, value: float) -> float:
        """Map a raw value onto the coded ``[-1, 1]`` scale."""
        if self.kind is VariableKind.BINARY:
            return -1.0 if value == 0 else 1.0
        t = self._transform(value)
        return 2.0 * (t - self._t_low) / (self._t_high - self._t_low) - 1.0

    def decode(self, coded: float) -> float:
        """Map a coded value back to the nearest legal raw level."""
        if self.kind is VariableKind.BINARY:
            return 0.0 if coded < 0 else 1.0
        coded = min(1.0, max(-1.0, coded))
        t = self._t_low + (coded + 1.0) / 2.0 * (self._t_high - self._t_low)
        raw = self._untransform(t)
        # The grid ascends, so the nearest level is one of raw's two
        # neighbours; a tie goes to the lower, the grid's first minimum.
        grid = self._grid
        i = bisect.bisect_left(grid, raw)
        if i == 0:
            return grid[0]
        if i == len(grid):
            return grid[-1]
        low, high = grid[i - 1], grid[i]
        return low if abs(low - raw) <= abs(high - raw) else high

    def coded_levels(self) -> List[float]:
        """The coded positions of all levels."""
        return [self.encode(v) for v in self._grid]

    def is_level(self, value: float) -> bool:
        """Whether ``value`` is one of this variable's legal levels."""
        # Any level within the tolerance has a grid neighbour of ``value``
        # at least as close.
        grid = self._grid
        i = bisect.bisect_left(grid, value)
        return any(abs(value - v) < 1e-9 for v in grid[max(i - 1, 0) : i + 1])
