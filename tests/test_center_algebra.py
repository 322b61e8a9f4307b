"""The oracle's commutative-algebra core and its refinement on an algebra
that no group gives: F_p[X]/(f) in the monomial basis 1, x, ..., x^(n-1),
whose structure constants c[i, j, l] are the coefficients of x^l in
x^(i+j) mod f.  The unit is x^0, so c[0] is the identity matrix.  For a
squarefree f = f_1 ... f_r the algebra is the product of the fields
F_p[X]/(f_j), so its primitive idempotents are the CRT idempotents E_j,
1 mod f_j and 0 mod every other factor, with dim E_j*Z = deg f_j.  Over
F_{p^k} an irreducible f of degree d factors into gcd(d, k) irreducibles
of degree d / gcd(d, k) (Lidl and Niederreiter, Finite Fields, Thm 3.46),
so the algebra has gcd(d, k) blocks of dimension lcm(d, k) over F_p.  The
references are Polynomial arithmetic mod f and factors whose
irreducibility is checked here by a scan for roots, independent of the
core's products and of the refinement's CRT step."""

import math
import random

import numpy as np
import pytest

from wedderburn import Polynomial, builtin_sl32_s8, make_field
from wedderburn.oracle import _CenterAlgebra, _refine

PRIMES = (5, 11, 13, 101)
SEEDS = range(6)


def monomial_constants(f: Polynomial) -> np.ndarray:
    """c[i, j, l] = the coefficient of x^l in x^(i+j) mod f, n = deg f."""
    n = f.degree()
    x = Polynomial.x(f.spec)
    c = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            r = x.pow_mod(i + j, f).coeffs
            c[i, j, : len(r)] = r
    return c


def random_factors(F, rng: random.Random, degrees) -> list[Polynomial]:
    """Distinct monic irreducibles over F_p of the given degrees, each at
    most 3: a polynomial of degree 2 or 3 is irreducible exactly when it
    has no root."""
    p, out = F.p, []
    for d in degrees:
        while True:
            g = Polynomial(F, [rng.randrange(p) for _ in range(d)] + [1])
            if g not in out and (d == 1 or all(g(r) for r in range(p))):
                out.append(g)
                break
    return out


def product(F, factors) -> Polynomial:
    f = Polynomial.one(F)
    for g in factors:
        f = f * g
    return f


def squarefree_case(p: int, seed: int):
    """(F_p, f's factors, f) for a seeded squarefree f with 2 to 4 factors of
    degree 1 to 3."""
    F = make_field(p)
    rng = random.Random(f"crt:{p}:{seed}")
    factors = random_factors(F, rng, [rng.randint(1, 3) for _ in range(rng.randint(2, 4))])
    return F, factors, product(F, factors)


def unit(n: int, spec) -> np.ndarray:
    e = np.zeros((n, spec.k), dtype=spec.dtype)
    e[0, 0] = 1
    return e


def as_poly(F, v: np.ndarray) -> Polynomial:
    return Polynomial(F, [int(c) for c in v[:, 0]])


def padded(g: Polynomial, n: int) -> list[int]:
    return list(g.coeffs) + [0] * (n - len(g.coeffs))


def crt_idempotent(f: Polynomial, f_j: Polynomial) -> Polynomial:
    """E_j = s * (f / f_j) mod f for s * (f / f_j) + t * f_j = 1."""
    g_j = f // f_j
    gcd, s, _ = g_j.xgcd(f_j)
    assert gcd == Polynomial.one(f.spec)
    return (s * g_j) % f


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", PRIMES)
def test_refinement_returns_the_crt_idempotents(p, seed):
    F, factors, f = squarefree_case(p, seed)
    n = f.degree()
    Z = _CenterAlgebra(monomial_constants(f), F)
    blocks = _refine(Z, [(unit(n, F), n)], random.Random(seed))
    matched = []
    for e, d in blocks:
        E = as_poly(F, e)
        residues = [E % f_j for f_j in factors]
        ones = [j for j, r in enumerate(residues) if r == Polynomial.one(F)]
        assert len(ones) == 1 and all(r.is_zero() for j, r in enumerate(residues) if j != ones[0]), (E, factors)
        assert d == factors[ones[0]].degree()
        matched += ones
    assert sorted(matched) == list(range(len(factors)))


# (p, d, k): gcd(d, k) = 1, 2 and 3, with q = p^k below 2^63
EXTENSION_CASES = [(5, 2, 2), (5, 3, 2), (11, 2, 4), (13, 3, 3), (11, 3, 6), (101, 2, 3)]


@pytest.mark.parametrize("p,d,k", EXTENSION_CASES, ids=[f"{p}-d{d}-k{k}" for p, d, k in EXTENSION_CASES])
def test_irreducible_splits_over_the_extension_into_gcd_blocks(p, d, k):
    F = make_field(p)
    rng = random.Random(f"ext:{p}:{d}:{k}")
    f = random_factors(F, rng, [d])[0]
    spec = make_field(p, k, seed=0)
    Z = _CenterAlgebra(monomial_constants(f), spec)
    one = unit(d, spec)
    blocks = _refine(Z, [(one, k * d)], random.Random(k))
    assert sorted(dim for _, dim in blocks) == [math.lcm(d, k)] * math.gcd(d, k)
    es = np.stack([e for e, _ in blocks])
    assert np.array_equal(es.sum(0) % p, one)
    assert np.array_equal(Z.mul(es, es), es)
    assert [k * Z.block_dimension(e) for e in es] == [math.lcm(d, k)] * math.gcd(d, k)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", PRIMES)
def test_products_are_polynomial_products_mod_f(p, seed):
    F, _, f = squarefree_case(p, seed)
    n = f.degree()
    Z = _CenterAlgebra(monomial_constants(f), F)
    rng = random.Random(f"mul:{p}:{seed}")
    u, v = (np.array([[[rng.randrange(p)] for _ in range(n)] for _ in range(4)], dtype=F.dtype) for _ in range(2))

    def reference(a, b):
        return padded((as_poly(F, a) * as_poly(F, b)) % f, n)

    assert Z.mul(u[0], v[0])[:, 0].tolist() == reference(u[0], v[0])
    assert Z.mul(u, v)[..., 0].tolist() == [reference(a, b) for a, b in zip(u, v)]
    assert Z.mul(u, v[0])[..., 0].tolist() == [reference(a, v[0]) for a in u]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", PRIMES)
def test_block_dimension_is_the_factor_degree(p, seed):
    F, factors, f = squarefree_case(p, seed)
    n = f.degree()
    Z = _CenterAlgebra(monomial_constants(f), F)
    for f_j in factors:
        e = np.array([[c] for c in padded(crt_idempotent(f, f_j), n)], dtype=F.dtype)
        assert np.array_equal(Z.mul(e, e), e)
        assert Z.block_dimension(e) == f_j.degree()


def repeated_products(Z: _CenterAlgebra, e: np.ndarray, dim: int, rng: random.Random) -> np.ndarray:
    """e, w*e, ..., w^dim * e by Z.mul, for w drawn from rng as
    _CenterAlgebra.krylov draws it: m rows of k residues mod p."""
    spec = Z.spec
    w = np.array([[rng.randrange(spec.p) for _ in range(spec.k)] for _ in range(Z.m)], dtype=spec.dtype)
    powers = [e]
    for _ in range(dim):
        powers.append(Z.mul(w, powers[-1]))
    return np.stack(powers)


@pytest.mark.parametrize("algebra,p,k", [("sl32", 11, 1), ("sl32", 13, 3), ("poly", 11, 1)],
                         ids=["sl32-F11", "sl32-F13^3", "F11[X]/(f)"])
def test_krylov_powers_are_repeated_products(algebra, p, k):
    # the matrix of w over F_p, applied dim times, gives the powers that
    # dim products by w give, for the same w: the same draws from a copy
    # of the stream.  The centre of SL(3,2) starts at its unit, of
    # dimension k*m over F_p, and F_p[X]/(f) at its unit for a seeded
    # squarefree f
    if algebra == "sl32":
        c = builtin_sl32_s8().class_product_coefficients()
        spec = make_field(p, k, seed=0)
    else:
        spec, _, f = squarefree_case(p, 0)
        c = monomial_constants(f)
    Z = _CenterAlgebra(c, spec)
    dim = k * Z.m
    rng = random.Random(f"krylov:{algebra}:{p}:{k}")
    copy = random.Random()
    copy.setstate(rng.getstate())
    powers, mu = Z.krylov(unit(Z.m, spec), dim, rng)
    assert powers.dtype == spec.dtype
    assert np.array_equal(powers, repeated_products(Z, unit(Z.m, spec), dim, copy))
    assert copy.getstate() == rng.getstate()
    assert 1 <= mu.degree() <= dim
