"""Unit groups of decomposed group algebras.

The units of a direct sum of matrix rings form the direct product of the
general linear groups of the blocks, so a decomposition determines the unit
group exactly: one GL(n, q^d) factor per block, with F_{q^d}^x for n = 1.
unit_group returns its order as an exact integer-valued decimal.Decimal:
libmpdec keeps the product in decimal limbs, so printing it is linear in
its digits, where CPython turns a binary int into decimal digits in
quadratic time.
"""

from __future__ import annotations

import decimal
from typing import NamedTuple

from .errors import ModularCaseError
from .ffield import is_prime

__all__ = [
    "ReferenceRow",
    "gl_order",
    "unit_group",
    "sl32_expected_row",
    "TYPE1_COMPONENTS",
    "TYPE2_COMPONENTS",
]


def gl_order(n: int, q: int) -> int:
    """Order of GL(n, q): product over i < n of (q^n - q^i), as an int.  No
    package code calls it; it is the tests' reference for unit_group."""
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


# exact integer arithmetic: a result that would need rounding raises
# decimal.Inexact, an ArithmeticError, instead of losing digits
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
                                decimal.Inexact, decimal.Rounded])


def unit_group(blocks, p: int, k: int) -> decimal.Decimal:
    """Order of the unit group of a decomposition over F_{p^k}, given as its
    (n, d) blocks: the product of |GL(n, Q)| = Q^(n(n-1)/2) * prod_{i=1..n}
    (Q^i - 1) over them, Q = q^d, q = p^k.  Equal factors q^t - 1 of
    different blocks are taken once, to their multiplicity.

    The order is an exact integer-valued decimal.Decimal, not an int: it
    prints as plain digits in time linear in their number, and compares and
    hashes equal to the int of the same value.  int(order) converts it in
    quadratic time (about 1 ms at 4600 digits), so the package keeps no int
    path."""
    if p < 2 or k < 1:
        raise ValueError(f"need p >= 2 and k >= 1, got p = {p}, k = {k}")
    e = 0  # the exponent of q
    mult = {}  # t -> multiplicity of the factor q^t - 1
    for n, d in blocks:
        if n < 1 or d < 1:
            raise ValueError(f"a block needs n >= 1 and d >= 1, got ({n}, {d})")
        e += d * n * (n - 1) // 2
        for t in range(d, d * n + 1, d):
            mult[t] = mult.get(t, 0) + 1
    with decimal.localcontext(_EXACT):
        q = decimal.Decimal(p) ** k
        order = q**e
        for t, c in mult.items():
            order *= (q**t - 1) ** c
    return order


# SL(3,2) reference classification -------------------------------------------

TYPE1_COMPONENTS = ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1))
TYPE2_COMPONENTS = ((1, 1), (6, 1), (7, 1), (8, 1), (3, 2))


class ReferenceRow(NamedTuple):
    """The SL(3,2) reference answer over one field: its type and its blocks,
    (n, d) pairs in (d, n) order."""

    family_type: int
    components: tuple[tuple[int, int], ...]


def sl32_expected_row(p: int, k: int) -> ReferenceRow:
    """The paper's answer for F_{p^k} SL(3,2), read off q = p^k alone: type 1
    when q = 1, 2 or 4 (mod 7), the squares mod 7, and type 2 otherwise.
    Raises ValueError for a p that is not prime, then ModularCaseError, a
    ValueError, for a p dividing |SL(3,2)| = 168 = 2^3 3 7, the modular
    case, and then ValueError for k < 1: a row only for a field that exists."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if 168 % p == 0:
        raise ModularCaseError(p, 168)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if pow(p, k, 7) in (1, 2, 4):
        return ReferenceRow(1, TYPE1_COMPONENTS)
    return ReferenceRow(2, TYPE2_COMPONENTS)
