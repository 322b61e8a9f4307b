import hashlib
import math
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedderburn import (
    FieldSpec,
    MatrixFq,
    Polynomial,
    factor,
    is_prime,
    make_field,
    minpoly,
)
from wedderburn import ffield

from test_kernels import (_ref_add, _ref_inv, _ref_mul, as_matrix, as_rows, fold_product, krylov_matrix, random_scalar,
                          reference_rank)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 48):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_above_the_miller_rabin_bound():
    # psi_12 = 399165290221 * 798330580441 and psi_13 = 1287836182261 *
    # 2575672364521 are strong pseudoprimes to the twelve fixed bases; the
    # strong Lucas test rejects both
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3317044064679887385961981)
    assert is_prime(2**89 - 1)
    assert is_prime(2**107 - 1)
    assert is_prime(2**127 - 1)
    assert not is_prime((2**89 - 1) * (2**61 - 1))
    assert not is_prime((2**61 - 1) * (2**67 - 1))


# OEIS A217255 below 10^5: the odd composites that pass the strong Lucas test
# with Selfridge's parameters
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]


def test_strong_lucas_test_below_10_5():
    # every odd n < 10^5 that is_prime could hand it, those with no prime
    # factor below 41: the primes and A217255 pass, and nothing else
    candidates = [n for n in range(1, 10**5, 2) if all(n % d for d in range(3, 41, 2))]
    passed = [n for n in candidates if ffield._is_strong_lucas_probable_prime(n)]
    assert passed == sorted([n for n in candidates if is_prime(n)] + STRONG_LUCAS_PSEUDOPRIMES)
    assert not ffield._is_strong_lucas_probable_prime(1009**2)  # a square: no D has (D/n) = -1
    assert not ffield._is_strong_lucas_probable_prime(539191)  # 41 * 13151: (D/n) = 0 at D = 41


def test_is_prime_agrees_with_a_sieve():
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


@pytest.mark.parametrize("n", [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
])
def test_is_prime_rejects_every_strong_pseudoprime_bound(n):
    # psi_j of OEIS A014233, j <= 11, the least strong pseudoprime to the
    # first j prime bases; psi_12 and psi_13 are checked above
    assert not is_prime(n)


def _fold_mul(spec, a, b):
    """The product of two coefficient tuples by FieldSpec.fold."""
    return tuple(fold_product(spec, np.array(a, dtype=spec.dtype), np.array(b, dtype=spec.dtype)).tolist())


def _fold_pow(spec, a, e):
    """a**e for a coefficient tuple a and e >= 0, by squaring on fold products."""
    out = (1,) + (0,) * (spec.k - 1)
    while e:
        if e & 1:
            out = _fold_mul(spec, out, a)
        a, e = _fold_mul(spec, a, a), e >> 1
    return out


def test_make_field_prime():
    f11 = make_field(11)
    assert (f11.p, f11.k, f11.q, f11.modulus) == (11, 1, 11, (0, 1))
    assert (Polynomial(f11, [7]) + Polynomial(f11, [8])).coeffs == (4,)  # 15 = 4
    assert Polynomial(f11, [1, 3]).monic().coeffs == (4, 1)  # 3 * 4 = 12 = 1


def test_make_field_extension_element_orders(f169):
    assert f169.q == 169
    rng = random.Random(1)
    one = (1, 0)
    for _ in range(25):
        a = random_scalar(f169, rng)
        if any(a):
            assert _fold_pow(f169, a, 168) == one
            assert _fold_pow(f169, a, 169) == a  # Frobenius fixed field check via q-power


def test_make_field_rejects():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(3)
    with pytest.raises(ValueError):
        make_field(2, 5)
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(ValueError):
        make_field(5, 40)  # 5^40 is far beyond the 2^63 bound
    with pytest.raises(ValueError):
        make_field(5, 10**8)  # rejected without building 5^k


@pytest.mark.parametrize("p,k,dtype", [
    (11, 1, np.int64),
    (11**3, 12, np.int64),  # a Galois ring mod 11^3: 1331 + 11 * 1330**2 < 2**63
    (2**31 - 1, 3, np.int64),  # p + 2 (p - 1)**2 < 2**63
    (2**31 - 1, 4, object),  # p + 3 (p - 1)**2 > 2**63, though p < 2**31
    (2**31 + 11, 1, object),
])
def test_field_spec_dtype_follows_the_fold_bound(p, k, dtype):
    spec = FieldSpec(p, k, (1,) + (0,) * (k - 1) + (1,))
    assert spec.dtype is dtype
    assert (dtype is np.int64) == (p < 2**31 and p + (k - 1) * (p - 1) ** 2 < 2**63)


def test_make_field_accepts_7():
    # fields of characteristic 7 are fine on their own; the SL(3,2) pipeline
    # rejects them upstream because 7 divides 168
    f7 = make_field(7)
    assert f7.q == 7


def test_field_axioms_seeded(f11, f169):
    # FieldSpec.fold, the package's one product of coefficient rows, against
    # the field axioms, the tuple product and the tuple inverse
    rng = random.Random(42)
    for spec in (f11, f169):
        one = (1,) + (0,) * (spec.k - 1)

        def add(x, y):
            return _ref_add(spec, x, y)

        def mul(x, y):
            return _fold_mul(spec, x, y)

        for _ in range(1000):
            a = random_scalar(spec, rng)
            b = random_scalar(spec, rng)
            c = random_scalar(spec, rng)
            assert mul(a, b) == _ref_mul(spec, a, b)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert mul(a, b) == mul(b, a) and mul(one, a) == a
            if any(a):
                assert mul(a, _ref_inv(spec, a)) == one


def test_frobenius_is_additive(f169):
    rng = random.Random(3)
    p = f169.p
    for _ in range(200):
        a = random_scalar(f169, rng)
        b = random_scalar(f169, rng)
        assert _fold_pow(f169, _ref_add(f169, a, b), p) == _ref_add(f169, _fold_pow(f169, a, p), _fold_pow(f169, b, p))


def test_factor_x2_minus_1(f11):
    x = Polynomial.x(f11)
    f = x * x - Polynomial.one(f11)
    facs = factor(f)
    assert [g.degree() for g in facs] == [1, 1]
    roots = sorted(g.coeffs[0] for g in facs)
    assert roots == [1, 10]  # x - 1 and x + 1 = x - 10


def test_factor_x2_plus_1_irreducible(f11):
    x = Polynomial.x(f11)
    f = x * x + Polynomial.one(f11)
    # oracle: -1 is not a square mod 11, checked by exhausting all 11 candidates
    assert all((r * r) % 11 != 10 for r in range(11))
    assert factor(f) == [f]
    assert f.is_irreducible()


def test_factor_x6_minus_1_splits(f13):
    x = Polynomial.x(f13)
    f = math.prod([x] * 6, start=Polynomial.one(f13)) - Polynomial.one(f13)
    # oracle: evaluate at all 13 field elements; exactly the 6 sixth roots vanish
    roots = [a for a in range(13) if not _horner(f, a)]
    assert len(roots) == 6
    facs = factor(f)
    assert len(facs) == 6
    assert all(g.degree() == 1 for g in facs)


def _horner(f, x):
    """f(x) by Horner's rule mod p, x a residue."""
    p = f.spec.p
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * x + c) % p
    return acc


def _random_poly(spec, rng, degree):
    coeffs = [rng.randrange(spec.p) for _ in range(degree)]
    coeffs.append(1 + rng.randrange(spec.p - 1))
    return Polynomial(spec, coeffs)


def _is_squarefree(f):
    return f.gcd(f.derivative()).degree() == 0


def test_factor_roundtrip_seeded(f11):
    # each squarefree polynomial is the product of its factors, and factor
    # rejects every other one
    rng = random.Random(2024)
    for spec in (f11, make_field(2**31 + 11)):
        for _ in range(200):
            f = _random_poly(spec, rng, 1 + rng.randrange(12))
            if not _is_squarefree(f):
                with pytest.raises(ValueError):
                    factor(f)
                continue
            facs = factor(f)
            assert math.prod(facs, start=Polynomial.one(spec)) == f.monic()
            for g in facs:
                assert g.coeffs[-1] == 1  # monic
                assert g.is_irreducible()


def _pinned_factor_cases(p, count):
    """Seeded monic products of one to three random monic factors of degree
    1-6, a quarter of them raised to a forced multiplicity 2 or 3, and for
    p < 1000 every fifth product taken to its p-th power, f(x^p) = f(x)^p."""
    spec = make_field(p)
    rng = random.Random(f"factor-pin:{p}")
    for trial in range(count):
        f = Polynomial.one(spec)
        for _ in range(1 + rng.randrange(3)):
            g = Polynomial(spec, [rng.randrange(p) for _ in range(1 + rng.randrange(6))] + [1])
            f = math.prod([g] * (2 + rng.randrange(2) if rng.random() < 0.25 else 1), start=f)
        if p < 1000 and trial % 5 == 4:
            f = Polynomial(spec, [f.coeffs[i // p] if i % p == 0 else 0 for i in range(p * f.degree() + 1)])
        yield f


# sha256 of the factorizations of the squarefree cases of
# _pinned_factor_cases(p, 40), one line of coefficients per factor, and the
# number of those cases.  Recorded with the factor that also took repeated
# factors and p-th powers, whose output had matched the classical pipeline
# (Cantor-Zassenhaus at every degree, pow_mod for every Frobenius step):
# factor is unique and sorted, so each digest holds for any algorithm.
# 16381 and 16411 are the primes on either side of ROOT_SCAN_P_MAX.
PINNED_FACTOR_DIGESTS = {
    5: (12, "2e6607ca71e7b25c56c4621cf338707f2e1bbda0ff29679d45ef477b66715eb8"),
    11: (13, "e05204266d102cc955d2106a1da4fa43f70d139669b493d0acab018304ba3c7e"),
    727: (21, "693c51b7447979cf4cb0f18471bee17990d69c25cfd88adced6071153c9e3fd8"),
    16381: (23, "c5543815fac2f8c52de38e551898df99be554ea8b7101e96724874096cb39e28"),
    16411: (24, "53e9c153e15eba43c734bff714f29d059a657575185a0e25713ed5f2aea187b1"),
    2**31 + 11: (23, "94079393db03b71e8f40de5bd86720db76c9c543d721ff46597026ba48d4a3d4"),
}


@pytest.mark.parametrize("p", sorted(PINNED_FACTOR_DIGESTS))
def test_factor_output_is_pinned(p):
    # the cases with a repeated factor or a p-th power are rejected
    assert 16381 <= ffield.ROOT_SCAN_P_MAX < 16411
    h = hashlib.sha256()
    squarefree = 0
    for f in _pinned_factor_cases(p, 40):
        if not _is_squarefree(f):
            with pytest.raises(ValueError):
                factor(f)
            continue
        squarefree += 1
        for g in factor(f):
            h.update(f"{g.coeffs}\n".encode())
    assert (squarefree, h.hexdigest()) == PINNED_FACTOR_DIGESTS[p]


@pytest.mark.parametrize("p, draws", [(727, False), (16411, True)])
def test_linear_factors_below_the_root_scan_bound_make_no_draw(p, draws, monkeypatch):
    # over F_727 the roots come from one evaluation at every point; over the
    # least prime above ROOT_SCAN_P_MAX, Berlekamp's basis of the product
    # has one vector per linear factor, and random combinations split it
    assert (p <= ffield.ROOT_SCAN_P_MAX) != draws
    spec = make_field(p)
    calls = []  # (p, deg f, basis size) of each _berlekamp_basis call
    real_basis = ffield._berlekamp_basis

    def recording_basis(f):
        basis = real_basis(f)
        calls.append((f.spec.p, f.degree(), len(basis)))
        return basis

    monkeypatch.setattr(ffield, "_berlekamp_basis", recording_basis)
    roots = sorted(random.Random(p).sample(range(p), 8))
    linear = [Polynomial(spec, [-r % p, 1]) for r in roots]
    facs = factor(math.prod(linear, start=Polynomial.one(spec)))
    assert facs == sorted(linear, key=Polynomial.sort_key)
    assert calls == ([(p, 8, 8)] if draws else [])


def _is_irreducible_by_factor(f):
    try:
        return factor(f) == [f.monic()]
    except ValueError:  # zero, or a repeated factor: reducible
        return False


def test_is_irreducible_agrees_with_factor_on_every_small_monic_poly():
    # every monic polynomial of degree 1..4 over F_5: 5 + 25 + 125 + 625 = 780
    f5 = make_field(5)
    count = 0
    for n in range(1, 5):
        for value in range(5**n):
            f = Polynomial(f5, [value // 5**i % 5 for i in range(n)] + [1])
            assert f.is_irreducible() == _is_irreducible_by_factor(f), f
            count += 1
    assert count == 780


def test_is_irreducible_agrees_with_trial_division_on_every_small_monic_poly():
    # every monic polynomial of degree 1..4 over F_5 is irreducible exactly
    # when no monic polynomial of degree 1..n/2 divides it
    f5 = make_field(5)
    divisors = {d: [Polynomial(f5, [v // 5**i % 5 for i in range(d)] + [1]) for v in range(5**d)] for d in (1, 2)}
    count = 0
    for n in range(1, 5):
        for value in range(5**n):
            f = Polynomial(f5, [value // 5**i % 5 for i in range(n)] + [1])
            by_division = all((f % g).coeffs for d in range(1, n // 2 + 1) for g in divisors[d])
            assert f.is_irreducible() == by_division, f
            count += 1
    assert count == 780


@pytest.mark.parametrize("p", [5, 727, 16411, 2**31 + 11])
def test_berlekamp_basis_counts_the_factors_of_a_product(p):
    # distinct x - r and x^2 - c, c a non-residue by Euler's criterion:
    # the basis has one vector per factor, each a with a^p = a mod f
    spec = make_field(p)
    rng = random.Random(f"berlekamp:{p}")
    non_residues = [c for c in range(2, min(p, 60)) if pow(c, (p - 1) // 2, p) == p - 1]
    for trial in range(6):
        roots = rng.sample(range(p), rng.randrange(1, 5))
        cs = rng.sample(non_residues, min(len(non_residues), rng.randrange(0, 3)))
        parts = [Polynomial(spec, [-r % p, 1]) for r in roots] + [Polynomial(spec, [-c % p, 0, 1]) for c in cs]
        f = math.prod(parts, start=Polynomial.one(spec))
        basis = ffield._berlekamp_basis(f)
        assert len(basis) == len(parts)
        for b in basis:
            assert len(b) == f.degree()
            a = Polynomial(spec, b)
            assert a.pow_mod(p, f) == a % f
        assert reference_rank(spec, [[(c,) for c in b] for b in basis]) == len(basis)


def test_is_irreducible_agrees_with_factor_seeded(f13):
    # random polynomials, and squares g^2 h, which no irreducible is
    rng = random.Random(27)
    for spec in (f13, make_field(7)):
        for trial in range(60):
            f = _random_poly(spec, rng, 1 + rng.randrange(7))
            if trial % 3 == 0:
                g = _random_poly(spec, rng, 1 + rng.randrange(3))
                f = g * g * _random_poly(spec, rng, rng.randrange(3))
            assert f.is_irreducible() == _is_irreducible_by_factor(f), f
    assert not Polynomial.one(f13).is_irreducible()
    assert not Polynomial.zero(f13).is_irreducible()


@pytest.mark.parametrize("p, k, modulus", [
    (11, 2, (10, 2, 1)),
    (13, 3, (1, 8, 2, 1)),
    (5, 8, (3, 0, 3, 4, 4, 1, 4, 3, 1)),
    (7, 12, (6, 5, 2, 0, 4, 2, 2, 5, 3, 4, 2, 2, 1)),
])
def test_make_field_modulus_is_pinned(p, k, modulus):
    assert make_field(p, k, 0).modulus == modulus


def test_factor_with_forced_multiplicities(f11):
    # g1^3 g2 has a repeated factor, which factor rejects
    rng = random.Random(5)
    x = Polynomial.x(f11)
    for _ in range(40):
        a = rng.randrange(11)
        b = rng.randrange(11)
        while b == a:
            b = rng.randrange(11)
        g1 = x - Polynomial(f11, [a])
        g2 = x - Polynomial(f11, [b])
        with pytest.raises(ValueError):
            factor(g1 * g1 * g1 * g2)


def test_factor_pth_power(f11):
    # (x + 3)^11 has zero derivative over F_11, and (x + 4)^5 (x + 3)^2
    # over F_5 a p-th power times a square: factor rejects both
    x = Polynomial.x(f11)
    f = math.prod([x + Polynomial(f11, [3])] * 11, start=Polynomial.one(f11))
    assert f.derivative().is_zero()
    with pytest.raises(ValueError):
        factor(f)
    f5 = make_field(5)
    g, h = Polynomial.x(f5) + Polynomial(f5, [4]), Polynomial.x(f5) + Polynomial(f5, [3])
    with pytest.raises(ValueError):
        factor(math.prod([g] * 5 + [h] * 2, start=Polynomial.one(f5)))


def test_factor_rejects_zero(f11):
    with pytest.raises(ValueError):
        factor(Polynomial.zero(f11))


def test_factor_takes_squarefree_input_alone(f11):
    # zero, a square factor and a p-th power each raise ValueError; the
    # squarefree cofactor of the square factor does not
    x, one = Polynomial.x(f11), Polynomial.one(f11)
    g, h = x + Polynomial(f11, [3]), x * x + one  # x^2 + 1 is irreducible over F_11
    for f in (Polynomial.zero(f11), g * g * h, math.prod([g] * 11, start=one)):
        with pytest.raises(ValueError):
            factor(f)
    assert factor(g * h) == [g, h]


# polynomials are over F_p alone: every field here has k = 1
POLY_FIELDS = [make_field(11), make_field(13), make_field(2**31 + 11)]


@st.composite
def _field_and_polys(draw, count):
    """A field from POLY_FIELDS and `count` polynomials over it of degree
    below 8 (the zero polynomial included)."""
    spec = draw(st.sampled_from(POLY_FIELDS))
    return spec, [Polynomial(spec, draw(st.lists(st.integers(0, spec.p - 1), max_size=8))) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(_field_and_polys(2))
def test_divmod_on_tuples(case):
    spec, (a, b) = case
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree() < b.degree()


@settings(max_examples=150, deadline=None)
@given(_field_and_polys(2))
def test_xgcd_on_tuples(case):
    spec, (a, b) = case
    g, s, t = a.xgcd(b)
    assert s * a + t * b == g
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.coeffs[-1] == 1  # monic
    assert (a % g).is_zero() and (b % g).is_zero()
    assert g == a.gcd(b)


def test_polynomial_takes_base_p_values(f13):
    # over F_p the base-p value of a coefficient is its residue: x + 2
    f = Polynomial(f13, [2, 1, 0])
    assert f.coeffs == (2, 1)
    # one input form: a negative or unreduced int, a tuple, a str or a float is no residue
    for bad in (-1, 13, (2,), "1", 1.0):
        with pytest.raises(ValueError):
            Polynomial(f13, [bad])


def test_polynomial_and_minpoly_reject_extension_fields(f169):
    # polynomials are over F_p alone; an operator over F_q is taken over F_p
    for coeffs in ([], [1], [0, 1]):
        with pytest.raises(ValueError, match="over F_p only"):
            Polynomial(f169, coeffs)
    with pytest.raises(ValueError, match="over F_p only"):
        minpoly(f169, np.zeros((3, 4), dtype=f169.dtype))


# Polynomial's int arithmetic against arithmetic on coefficient tuples
# (test_kernels' reference, here with k = 1), on fields of int64 and of
# Python-int arrays


def _ref_poly_add(spec, f, g):
    zero = (0,) * spec.k
    n = max(len(f), len(g))
    out = [_ref_add(spec, f[i] if i < len(f) else zero, g[i] if i < len(g) else zero) for i in range(n)]
    while out and not any(out[-1]):
        out.pop()
    return out


def _ref_poly_mul(spec, f, g):
    out = []
    for i, x in enumerate(f):
        out = _ref_poly_add(spec, out, [(0,) * spec.k] * i + [_ref_mul(spec, x, y) for y in g])
    return out


def _tuples(f):
    return [(c,) for c in f.coeffs]


@st.composite
def _kernel_case(draw):
    """A field from POLY_FIELDS, two polynomials of degree below 7, and a
    point of the field."""
    spec = draw(st.sampled_from(POLY_FIELDS))
    coeff = st.integers(0, spec.p - 1)
    a, b = (draw(st.lists(coeff, max_size=7)) for _ in range(2))
    return spec, Polynomial(spec, a), Polynomial(spec, b), draw(coeff)


@settings(max_examples=120, deadline=None)
@given(_kernel_case())
def test_int_kernels_match_tuple_arithmetic(case):
    spec, a, b, x = case
    assert spec.dtype is (object if spec.p > 2**31 else np.int64)
    ta, tb = _tuples(a), _tuples(b)
    # Horner's rule mod p agrees with it in tuple arithmetic
    acc = (0,)
    for c in reversed(ta):
        acc = _ref_add(spec, _ref_mul(spec, acc, (x,)), c)
    assert (_horner(a, x),) == acc
    if b.is_zero():
        return
    # a = q b + r with deg r < deg b
    q, r = divmod(a, b)
    assert _ref_poly_add(spec, _ref_poly_mul(spec, _tuples(q), tb), _tuples(r)) == ta
    assert r.degree() < b.degree()
    # the Bezout identity s a + t b = g
    g, s, t = a.xgcd(b)
    assert _ref_poly_add(spec, _ref_poly_mul(spec, _tuples(s), ta), _ref_poly_mul(spec, _tuples(t), tb)) == _tuples(g)
    assert g.coeffs[-1] == 1  # monic
    if a.is_zero():
        return
    # the product of the factors is the monic input, or a has a repeated
    # factor and factor rejects it
    if not _is_squarefree(a):
        with pytest.raises(ValueError):
            factor(a)
        return
    product = [(1,) + (0,) * (spec.k - 1)]
    for f in factor(a):
        assert f.coeffs[-1] == 1  # monic
        product = _ref_poly_mul(spec, product, _tuples(f))
    inv_lc = _ref_inv(spec, ta[-1])
    assert product == [_ref_mul(spec, c, inv_lc) for c in ta]


def test_minpoly_identity_and_zero(f11):
    v = as_rows(f11, [1, 0, 3, 0])
    m_id = minpoly(f11, krylov_matrix(lambda w: w, v, 4))
    x = Polynomial.x(f11)
    assert m_id == x - Polynomial.one(f11)
    m_zero = minpoly(f11, krylov_matrix(np.zeros_like, v, 4))
    assert m_zero == x


def test_minpoly_rejects_a_start_vector_of_the_wrong_k(f11, f169):
    # the field must be F_p, and the Krylov matrix 2-D: columns of F_q
    # coefficient rows, with their coefficient axis, are not one
    with pytest.raises(ValueError, match="over F_p only"):
        minpoly(f169, krylov_matrix(lambda w: w, as_rows(f11, [1, 0]), 2))
    v = as_rows(f169, [(1, 0), (0, 0)])
    with pytest.raises(ValueError, match="must be 2-D"):
        minpoly(f11, np.stack([v, v, v], axis=1))


def test_minpoly_shift_is_nilpotent(f11):
    dim = 5

    def shift(w):
        return np.concatenate([np.zeros_like(w[:1]), w[:-1]])

    v = as_rows(f11, [1] + [0] * (dim - 1))
    assert minpoly(f11, krylov_matrix(shift, v, dim)) == Polynomial(f11, [0] * dim + [1])  # X^dim


def test_minpoly_degree_bound(f11):
    # the shift on 5 coordinates started at e_3 has minimal polynomial X^2:
    # a bound of 2 or 5 gives it, a bound of 1 (2 columns) is too small
    def shift(w):
        return np.concatenate([np.zeros_like(w[:1]), w[:-1]])

    v = as_rows(f11, [0] * 3 + [1, 0])
    assert minpoly(f11, krylov_matrix(shift, v, 2)) == Polynomial(f11, [0, 0, 1])
    assert minpoly(f11, krylov_matrix(shift, v, 5)) == Polynomial(f11, [0, 0, 1])  # the bound len(v) = 5
    with pytest.raises(ValueError, match="exceeds the bound 1"):
        minpoly(f11, krylov_matrix(shift, v, 1))


def test_minpoly_companion_matrix():
    # multiplication by x modulo f has minimal polynomial exactly f.  At
    # degree 48 the Krylov matrix is 48 x 49, and minpoly reads the echelon
    # form off its working copy; the start vector g gives f / gcd(f, g), and
    # a Krylov matrix that is not already in echelon form
    for p in (11, 31, 37, 8191):
        spec = make_field(p)
        x = Polynomial.x(spec)
        rng = random.Random(p)
        random_f = Polynomial(spec, [rng.randrange(p) for _ in range(48)] + [1])
        for f in (x * x * x + x + Polynomial(spec, [4]), random_f):
            degree = f.degree()

            def as_vector(g):
                return as_rows(spec, list(g.coeffs) + [0] * (degree - len(g.coeffs)))

            def apply(w):
                return as_vector((Polynomial(spec, w[:, 0].tolist()) * x) % f)

            # 1 is a cyclic vector: 1, x, ..., x^(degree-1) span F_p[x]/(f)
            assert minpoly(spec, krylov_matrix(apply, as_vector(Polynomial.one(spec)), degree)) == f.monic()
            g = Polynomial(spec, [rng.randrange(p) for _ in range(degree)])
            assert minpoly(spec, krylov_matrix(apply, as_vector(g), degree)) == (f // f.gcd(g)).monic()


def _charpoly_3x3(spec, rows):
    """Cofactor-expansion determinant of xI - A over the polynomial ring."""
    x = Polynomial.x(spec)

    def entry(i, j):
        base = Polynomial(spec, [-rows[i][j] % spec.p])
        return base + x if i == j else base

    def det3(m):
        total = Polynomial.zero(spec)
        for j0 in range(3):
            minor = m[1][(j0 + 1) % 3] * m[2][(j0 + 2) % 3] - m[1][(j0 + 2) % 3] * m[2][(j0 + 1) % 3]
            term = m[0][j0] * minor
            total = total + term
        return total

    mat = [[entry(i, j) for j in range(3)] for i in range(3)]
    return det3(mat)


def test_minpoly_divides_charpoly(f11):
    rng = random.Random(9)
    for _ in range(30):
        rows = [[rng.randrange(11) for _ in range(3)] for _ in range(3)]

        def apply(w):
            return as_rows(f11, [sum(a * b for a, b in zip(row, w[:, 0].tolist())) % 11 for row in rows])

        mp = minpoly(f11, krylov_matrix(apply, as_rows(f11, [rng.randrange(11) for _ in range(3)]), 3))
        cp = _charpoly_3x3(f11, rows)
        assert (cp % mp).is_zero()


def test_row_reduce_identity_and_zero(f11):
    assert MatrixFq(f11, np.eye(3, dtype=np.int64)[:, :, None]).rank() == 3
    assert MatrixFq(f11, np.zeros((4, 4, 1), dtype=np.int64)).rank() == 0


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_rank_168_product_of_elementary_matrices(f11):
    rng = random.Random(11)
    n = 168
    rows = _identity_rows(n)
    for _ in range(400):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            c = 1 + rng.randrange(10)
            rows[i] = [c * x % 11 for x in rows[i]]
        elif i != j:
            c = rng.randrange(11)
            rows[i] = [(a + c * b) % 11 for a, b in zip(rows[i], rows[j])]
    assert as_matrix(f11, rows).rank() == n


def test_rank_matches_row_reduce_and_kernel(f11, f169):
    rng = random.Random(13)
    for spec in (f11, f169):
        for _ in range(25):
            nrows = 1 + rng.randrange(7)
            ncols = 1 + rng.randrange(7)
            rows = [[random_scalar(spec, rng) for _ in range(ncols)] for _ in range(nrows)]
            assert as_matrix(spec, rows).rank() == reference_rank(spec, rows)


def test_rank_blowup_extension_field(f169):
    rng = random.Random(17)
    n = 40
    rows = [[(x, 0) for x in row] for row in _identity_rows(n)]
    for _ in range(150):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = random_scalar(f169, rng)
            rows[i] = [_ref_add(f169, a, _ref_mul(f169, c, b)) for a, b in zip(rows[i], rows[j])]
    assert as_matrix(f169, rows).rank() == n
    # knock out one row
    rows[0] = [(0, 0)] * n
    assert as_matrix(f169, rows).rank() == n - 1


def test_modulus_choice_is_seeded():
    f_a = make_field(13, 2, seed=0)
    f_b = make_field(13, 2, seed=1)
    assert f_a.modulus != f_b.modulus
    for spec in (f_a, f_b):
        x = Polynomial.x(spec)
        rng = random.Random(0)
        a = random_scalar(spec, rng)
        while not any(a):
            a = random_scalar(spec, rng)
        assert _fold_pow(spec, a, 168) == (1, 0)


def test_pow_mod_rejects_a_negative_exponent(f13):
    # a negative exponent never shifts down to 0: pow_mod must refuse it at
    # once, and the alarm fails the test if it loops instead
    x = Polynomial.x(f13)

    def hung(signum, frame):
        raise TimeoutError("pow_mod with a negative exponent did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(ValueError):
            x.pow_mod(-1, x * x + Polynomial.one(f13))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_pow_and_truediv(f13):
    # the inverse of a leading coefficient, 2 * 7 = 14 = 1 mod 13, and 2**12 = 1
    x = Polynomial.x(f13)
    assert Polynomial(f13, [1, 2]).monic().coeffs == (7, 1)
    assert Polynomial(f13, [2]).pow_mod(12, x * x) == Polynomial.one(f13)
    assert divmod(Polynomial(f13, [3, 0, 2]), Polynomial(f13, [0, 2])) == (x, Polynomial(f13, [3]))
    with pytest.raises(ZeroDivisionError):
        divmod(x, Polynomial.zero(f13))
    with pytest.raises(ZeroDivisionError):
        x.pow_mod(2, Polynomial.zero(f13))
