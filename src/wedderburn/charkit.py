"""Permutation characters and the double-transitivity certificate for the
deleted permutation module.

For a group acting on w points, the deleted module is the codimension-1
space of zero-sum vectors inside the natural permutation module.  When the
action is doubly transitive and the characteristic p divides neither w nor
the order of a two-point stabilizer, that module is irreducible, which
forces a matrix block of size w - 1 over the prime field of scalars.
"""

from __future__ import annotations

from .ffield import is_prime
from .perm import FiniteGroup

__all__ = ["perm_character", "inner_product", "deleted_module_check"]


def perm_character(G: FiniteGroup) -> tuple[int, ...]:
    """Fixed-point counts of the action, one value per conjugacy class; the
    value at the identity class (class 0) is the number of points.  Counted
    afresh on each call; deleted_module_check calls it once per group."""
    points = range(G.degree)
    return tuple(sum(map(int.__eq__, c.representative.images, points)) for c in G.classes)


def inner_product(G: FiniteGroup, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Class-sum form of the inner product of two class functions of G; the
    characters here are integer-valued and self-conjugate, and the result
    must be an exact integer."""
    m = len(G.classes)
    if len(a) != m or len(b) != m:
        raise ValueError(f"class functions must have {m} values, got {len(a)} and {len(b)}")
    total = sum(c.size * av * bv for c, av, bv in zip(G.classes, a, b))
    if total % G.order:
        raise ArithmeticError(f"inner product {total}/{G.order} is not an integer")
    return total // G.order


def deleted_module_check(G: FiniteGroup, p: int) -> bool:
    """Certify the deleted permutation module irreducible in characteristic p:
    true iff the action on w points is doubly transitive, p does not divide
    w, and p does not divide the two-point stabilizer order |G_12|.

    By Burnside's lemma <chi, chi> counts the orbits of G on ordered pairs of
    points.  With r point orbits, the diagonal pairs form r of them, and for
    w >= 2 the pairs of distinct points add at least one more, so the norm is
    at least r + 1.  Norm 2 thus forces r = 1 and a single orbit on pairs of
    distinct points, and a doubly transitive action has norm 2.  Norm 2 also
    rules out w = 1 (norm 1), so orbit-stabilizer on the w(w - 1) distinct
    pairs gives |G_12| = |G| / (w(w - 1)).

    w and <chi, chi> do not depend on p: they are computed on the first call
    for G and kept on it, so a later call tests only p.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if G._perm_norm is None:
        chi = perm_character(G)
        G._perm_norm = (chi[0], inner_product(G, chi, chi))
    w, norm = G._perm_norm
    return norm == 2 and w % p != 0 and G.order // (w * (w - 1)) % p != 0
