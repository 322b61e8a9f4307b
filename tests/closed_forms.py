"""Groups whose group algebra over F_q has a closed-form decomposition, and
those decompositions, as the reference the oracle is checked against.

Cyclic groups: F_q[C_n] is F_q[x]/(x^n - 1).  For q coprime to n, x^n - 1
has one irreducible factor over F_q per q-cyclotomic coset of Z/n, the
orbit of a residue under multiplication by q, of degree the coset's size;
so F_q[C_n] is one M_1(F_{q^d}) per coset of size d (Perlis and Walker,
Abelian group algebras of finite order, Trans. AMS 68, 1950)."""

from wedderburn import Permutation, generate


def cyclic_group(n: int):
    """C_n as the rotation x -> x + 1 of Z/n."""
    return generate([Permutation([(i + 1) % n for i in range(n)])])


def cyclotomic_cosets(n: int, q: int) -> list[tuple[int, ...]]:
    """The orbits of multiplication by q on Z/n, q coprime to n."""
    seen: set[int] = set()
    cosets = []
    for a in range(n):
        if a in seen:
            continue
        coset = [a]
        b = a * q % n
        while b != a:
            coset.append(b)
            b = b * q % n
        seen.update(coset)
        cosets.append(tuple(coset))
    return cosets


def cyclic_blocks(n: int, p: int, k: int) -> tuple[tuple[int, int], ...]:
    """The (n, d) blocks of F_q[C_n], q = p**k, in the (d, n) order of
    CentralSplit.pairs: one (1, d) per q-cyclotomic coset of size d."""
    return tuple(sorted((1, len(c)) for c in cyclotomic_cosets(n, p**k)))
