"""Unit groups of decomposed group algebras.

The units of a direct sum of matrix rings form the direct product of the
general linear groups of the blocks, so a decomposition determines the unit
group exactly: one GL(n, q^d) factor per block, with F_{q^d}^x for n = 1.
unit_group returns its order, an exact big integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .wedder import Component, Decomposition

__all__ = [
    "ReferenceRow",
    "gl_order",
    "unit_group",
    "sl32_reference_table",
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


def unit_group(dec: Decomposition, p: int, k: int) -> int:
    """Order of the unit group of a decomposition over F_{p^k}: the product
    of |GL(n, p^(k d))| over its (n, d) blocks."""
    return math.prod(gl_order(n, p ** (k * d)) for n, d in dec.components)


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

_RESIDUES_ALL = frozenset({1, 2, 3, 4, 5, 6})
_RESIDUES_SQUARE = frozenset({1, 2, 4})
_RESIDUES_NONSQUARE = frozenset({3, 5, 6})


@dataclass(frozen=True)
class ReferenceRow:
    """One row of the SL(3,2) classification keyed by (p mod 7, k mod 6)."""

    p_mod7: frozenset[int]
    k_mod6: int
    family_type: int
    components: tuple[Component, ...]


def sl32_reference_table() -> tuple[ReferenceRow, ...]:
    """The nine-row reference classification of F_{p^k} SL(3,2) used as
    regression data: even k residues are always type 1, odd k residues split
    by whether p is a square modulo 7."""
    rows = []
    for k_res in range(6):
        if k_res % 2 == 0:
            rows.append(ReferenceRow(_RESIDUES_ALL, k_res, 1, TYPE1_COMPONENTS))
        else:
            rows.append(ReferenceRow(_RESIDUES_SQUARE, k_res, 1, TYPE1_COMPONENTS))
            rows.append(ReferenceRow(_RESIDUES_NONSQUARE, k_res, 2, TYPE2_COMPONENTS))
    return tuple(rows)


def sl32_expected_row(p: int, k: int) -> ReferenceRow:
    """Look up the reference row for (p, k); p must not be divisible by 7."""
    if p % 7 == 0:
        raise ValueError("p = 7 is the modular case and has no reference row")
    for row in sl32_reference_table():
        if k % 6 == row.k_mod6 and p % 7 in row.p_mod7:
            return row
    raise AssertionError("reference table failed to cover (p, k)")
