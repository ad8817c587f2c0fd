"""IR operand values: virtual registers and constants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.ir.types import Type


@dataclass(frozen=True)
class Temp:
    """A virtual register.  Names are unique within a function."""

    name: str
    type: Type

    def __hash__(self) -> int:
        # Equal temps have equal names; hashing the name alone skips the
        # field tuple and the type's hash.
        return hash(self.name)

    def __repr__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Const:
    """An immediate constant."""

    value: Union[int, float]
    type: Type

    def __post_init__(self):
        if self.type is Type.INT and not isinstance(self.value, int):
            raise TypeError(f"int const with non-int value {self.value!r}")
        if self.type is Type.FLOAT and not isinstance(self.value, float):
            raise TypeError(f"float const with non-float value {self.value!r}")

    def __repr__(self) -> str:
        return f"{self.value}"


Value = Union[Temp, Const]
