"""IR value types.

MiniC has two scalar types; both occupy one 8-byte machine word, so array
indexing scales by a uniform element size.
"""

from __future__ import annotations

import enum


class Type(enum.Enum):
    INT = "int"
    FLOAT = "float"
    #: Functions with no return value.
    VOID = "void"

    # Members compare by identity, so the identity hash is consistent with
    # equality and skips Enum's Python-level hash of the member name.
    __hash__ = object.__hash__


#: Size in bytes of every scalar value and array element.
WORD_SIZE = 8
