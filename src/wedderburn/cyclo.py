"""Orbits of conjugacy classes under the q-power map.

Over F_q with q coprime to |G|, conjugacy classes fuse into orbits of the
map that sends the class of g to the class of g^q.  The number of orbits is
the number of simple blocks of F_q[G], and each orbit's size is the degree
over F_q of the corresponding block's center field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModularCaseError
from .ffield import is_prime
from .perm import FiniteGroup, power_class

__all__ = ["CycloContext", "CycloPartition", "build_context", "cyclotomic_partition", "component_count_and_degrees"]


@dataclass(frozen=True)
class CycloContext:
    group: FiniteGroup
    p: int
    k: int
    e: int  # group exponent
    i_q: tuple[int, ...]  # the subgroup of residues mod e generated by q

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
    qm = pow(p, k, e)
    i_q = {1 % e}
    cur = qm % e
    while cur not in i_q:
        i_q.add(cur)
        cur = cur * qm % e
    return CycloContext(group=G, p=p, k=k, e=e, i_q=tuple(sorted(i_q)))


def cyclotomic_partition(ctx: CycloContext) -> CycloPartition:
    """Orbits of the class set under all power maps l in I_q, each orbit
    listed in ascending class order and orbits ordered by smallest member."""
    G = ctx.group
    m = len(G.classes)
    seen = [False] * m
    orbits = []
    for start in range(m):
        if seen[start]:
            continue
        orbit = sorted({power_class(G, start, l) for l in ctx.i_q})
        for c in orbit:
            seen[c] = True
        orbits.append(tuple(orbit))
    return CycloPartition(orbits=tuple(orbits), sizes=tuple(len(o) for o in orbits))


def component_count_and_degrees(ctx: CycloContext) -> tuple[int, tuple[int, ...]]:
    """Number of simple blocks of F_q[G] and the sorted multiset of center
    field degrees, read off the cyclotomic partition."""
    part = cyclotomic_partition(ctx)
    return len(part.orbits), tuple(sorted(part.sizes))
