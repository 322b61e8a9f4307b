"""Orbits of conjugacy classes under the q-power map.

Over F_q with q coprime to |G|, the class map sigma_q: class of g -> class
of g^q is a permutation of the classes, and the classes fuse into its
cycles.  The number of cycles is the number of simple blocks of F_q[G],
and each cycle's length is the degree over F_q of the corresponding
block's center field.
"""

from __future__ import annotations

import math

from .errors import ModularCaseError
from .ffield import is_prime
from .perm import FiniteGroup, _orbits, power_class

__all__ = ["cyclotomic_partition"]


def cyclotomic_partition(G: FiniteGroup, p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The cycles of sigma_q for q = p**k on the classes of G, each listed in
    ascending class order and ordered by smallest member.  The class of g^q
    depends only on the class of g and on q mod exp(G), and powering by q^j
    is the j-th iterate of sigma_q, so sigma_q is read off with one
    power_class call per class.  power_class keeps its answers on G, so over
    any number of fields each class's power by a given residue is computed
    once; this function keeps nothing and checks p and k on every call."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if G.order % p == 0:
        raise ModularCaseError(p, G.order)
    e = G.exponent
    if math.gcd(p, e) != 1:
        raise AssertionError("exponent shares a factor with p despite p not dividing |G|")
    q = pow(p, k, e)
    frobenius = [power_class(G, c, q) for c in range(len(G.classes))]
    return tuple(tuple(sorted(o)) for o in _orbits(len(frobenius), [frobenius])[0])
