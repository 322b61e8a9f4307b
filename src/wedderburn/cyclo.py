"""Orbits of conjugacy classes under the q-power map.

Over F_q with q coprime to |G|, the class map sigma_q: class of g -> class
of g^q is a permutation of the classes, and the classes fuse into its
cycles.  The number of cycles is the number of simple blocks of F_q[G],
and each cycle's length is the degree over F_q of the corresponding
block's center field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModularCaseError
from .ffield import is_prime
from .perm import FiniteGroup, _orbits, power_class

__all__ = ["CycloContext", "CycloPartition", "build_context", "cyclotomic_partition", "component_count_and_degrees"]


@dataclass(frozen=True)
class CycloContext:
    group: FiniteGroup
    p: int
    k: int
    e: int  # group exponent

    @property
    def q(self) -> int:
        """p**k, computed on demand: the orbits need only q mod e."""
        return self.p**self.k


@dataclass(frozen=True)
class CycloPartition:
    orbits: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]


def build_context(G: FiniteGroup, p: int, k: int) -> CycloContext:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if G.order % p == 0:
        raise ModularCaseError(p, G.order)
    e = G.exponent
    if math.gcd(p, e) != 1:
        raise AssertionError("exponent shares a factor with p despite p not dividing |G|")
    return CycloContext(group=G, p=p, k=k, e=e)


def cyclotomic_partition(ctx: CycloContext) -> CycloPartition:
    """The cycles of sigma_q on the classes, each listed in ascending class
    order and ordered by smallest member.  The class of g^q depends only on
    the class of g, and powering by q^j is the j-th iterate of sigma_q, so
    sigma_q is read off with one power_class call per class."""
    G = ctx.group
    m = len(G.classes)
    q = pow(ctx.p, ctx.k, ctx.e)
    frobenius = [power_class(G, c, q) for c in range(m)]
    orbits = tuple(tuple(sorted(o)) for o in _orbits(m, [frobenius])[0])
    return CycloPartition(orbits=orbits, sizes=tuple(len(o) for o in orbits))


def component_count_and_degrees(ctx: CycloContext) -> tuple[int, tuple[int, ...]]:
    """Number of simple blocks of F_q[G] and the sorted multiset of center
    field degrees, read off the cyclotomic partition."""
    part = cyclotomic_partition(ctx)
    return len(part.orbits), tuple(sorted(part.sizes))
