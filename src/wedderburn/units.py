"""Unit groups of decomposed group algebras.

The units of a direct sum of matrix rings form the direct product of the
general linear groups of the blocks, so a decomposition determines the unit
group exactly: one GL(n, q^d) factor per block, with F_{q^d}^x for n = 1.
unit_group returns its order, an exact big integer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .wedder import Component

__all__ = [
    "ReferenceRow",
    "gl_order",
    "unit_group",
    "sl32_expected_row",
    "TYPE1_COMPONENTS",
    "TYPE2_COMPONENTS",
]


def gl_order(n: int, q: int) -> int:
    """Order of GL(n, q): product over i < n of (q^n - q^i)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    qn = q**n
    out = 1
    qi = 1
    for _ in range(n):
        out *= qn - qi
        qi *= q
    return out


def unit_group(blocks, p: int, k: int) -> int:
    """Order of the unit group of a decomposition over F_{p^k}, given as its
    (n, d) blocks: the product of |GL(n, p^(k d))| over them."""
    return math.prod(gl_order(n, p ** (k * d)) for n, d in blocks)


# SL(3,2) reference classification -------------------------------------------

TYPE1_COMPONENTS = (
    Component(1, 1),
    Component(3, 1),
    Component(3, 1),
    Component(6, 1),
    Component(7, 1),
    Component(8, 1),
)
TYPE2_COMPONENTS = (
    Component(1, 1),
    Component(6, 1),
    Component(7, 1),
    Component(8, 1),
    Component(3, 2),
)


class ReferenceRow(NamedTuple):
    """The SL(3,2) reference answer over one field: its type and blocks."""

    family_type: int
    components: tuple[Component, ...]


def sl32_expected_row(p: int, k: int) -> ReferenceRow:
    """The paper's answer for F_{p^k} SL(3,2), read off q = p^k alone: type 1
    when q = 1, 2 or 4 (mod 7), the squares mod 7, and type 2 otherwise.
    Raises ValueError when 7 divides p, the modular case."""
    if p % 7 == 0:
        raise ValueError("p = 7 is the modular case and has no reference row")
    if pow(p, k, 7) in (1, 2, 4):
        return ReferenceRow(1, TYPE1_COMPONENTS)
    return ReferenceRow(2, TYPE2_COMPONENTS)
