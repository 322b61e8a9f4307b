import math
import random

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

from test_kernels import as_matrix, as_rows, reference_rank


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
    assert is_prime(2**127 - 1)
    assert not is_prime((2**89 - 1) * (2**61 - 1))


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


def test_make_field_prime():
    f11 = make_field(11)
    assert (f11.p, f11.k, f11.q) == (11, 1, 11)
    assert f11.scalar(15) == f11.scalar(4)
    assert f11.one / f11.scalar(3) == f11.scalar(4)  # 3 * 4 = 12 = 1


def test_make_field_extension_element_orders(f169):
    assert f169.q == 169
    rng = random.Random(1)
    for _ in range(25):
        a = f169.random_element(rng)
        if a:
            assert a**168 == f169.one
            assert a ** (169) == a  # Frobenius fixed field check via q-power


ELEMENT_FIELDS = {"11": make_field(11), "13^2": make_field(13, 2, seed=0), "13^3": make_field(13, 3, seed=0),
                  "(2^31+11)^2": make_field(2**31 + 11, 2, seed=0)}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(ELEMENT_FIELDS)), data=st.data())
def test_field_element_is_its_base_p_value(name, data):
    # a FieldElement holds one int, its base-p value, and every operator is
    # the spec's scalar kernel on those ints
    spec = ELEMENT_FIELDS[name]
    p = spec.p
    vectors = st.lists(st.integers(0, p - 1), min_size=spec.k, max_size=spec.k)
    a, b = spec.element(data.draw(vectors)), spec.element(data.draw(vectors))
    n = data.draw(st.integers(-3 * p, 3 * p))
    e = data.draw(st.integers(-5, 40))
    assert spec.element(a.coeffs) == a and a.value == spec.pack(a.coeffs)
    assert (a == n) == (a.value == n % p)
    assert spec.scalar(n) == n and spec.scalar(n).value == n % p
    twin = spec.element(list(a.coeffs))
    assert twin == a and hash(twin) == hash(a)
    assert (a + b).value == (b + a).value == spec.add(a.value, b.value)
    assert (a + n).value == (n + a).value == spec.add(a.value, n % p)
    assert (a - b).value == spec.sub(a.value, b.value)
    assert (n - a).value == spec.sub(n % p, a.value)
    assert (-a).value == spec.sub(0, a.value)
    assert (a * b).value == spec.mul(a.value, b.value)
    assert (n * a).value == (a * n).value == spec.mul(n % p, a.value)
    assert bool(a) == (a.value != 0)
    if b:
        assert (a / b).value == spec.mul(a.value, spec.inv(b.value))
        assert (n / b).value == spec.mul(n % p, spec.inv(b.value))
        assert b.inverse().value == spec.inv(b.value)
    if a or e >= 0:
        assert (a**e).value == spec.power(a.value, e)


def test_field_element_of_f_p_hashes_as_its_int():
    f = make_field(11)
    assert f.scalar(3) == 3
    assert 3 in {f.scalar(3)}
    assert f.scalar(3) in {3}
    assert {3: "x"}.get(f.scalar(3)) == "x"
    # an unreduced int compares equal but hashes apart
    assert f.scalar(3) == 14 and 14 not in {f.scalar(3)}
    # an element of F_13 inside F_{13^2}, at k = 2
    f169 = make_field(13, 2)
    assert f169.scalar(5) == 5 and 5 in {f169.scalar(5)}
    assert {5: "y"}.get(f169.scalar(5)) == "y"


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
    rng = random.Random(42)
    for spec in (f11, f169):
        for _ in range(1000):
            a = spec.random_element(rng)
            b = spec.random_element(rng)
            c = spec.random_element(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if a:
                assert a * a.inverse() == spec.one
        assert spec.zero + spec.one == spec.one


def test_frobenius_is_additive(f169):
    rng = random.Random(3)
    p = f169.p
    for _ in range(200):
        a = f169.random_element(rng)
        b = f169.random_element(rng)
        assert (a + b) ** p == a**p + b**p


def test_factor_x2_minus_1(f11):
    x = Polynomial.x(f11)
    f = x * x - Polynomial.one(f11)
    facs = factor(f)
    assert [(g.degree(), m) for g, m in facs] == [(1, 1), (1, 1)]
    roots = sorted(g.coeffs[0] for g, _ in facs)
    assert roots == [1, 10]  # x - 1 and x + 1 = x - 10


def test_factor_x2_plus_1_irreducible(f11):
    x = Polynomial.x(f11)
    f = x * x + Polynomial.one(f11)
    # oracle: -1 is not a square mod 11, checked by exhausting all 11 candidates
    assert all((r * r) % 11 != 10 for r in range(11))
    facs = factor(f)
    assert len(facs) == 1 and facs[0] == (f, 1)
    assert f.is_irreducible()


def test_factor_x6_minus_1_splits(f13):
    x = Polynomial.x(f13)
    f = math.prod([x] * 6, start=Polynomial.one(f13)) - Polynomial.one(f13)
    # oracle: evaluate at all 13 field elements; exactly the 6 sixth roots vanish
    roots = [a for a in range(13) if not _horner(f, a)]
    assert len(roots) == 6
    facs = factor(f)
    assert len(facs) == 6
    assert all(g.degree() == 1 and m == 1 for g, m in facs)


def _horner(f, x):
    """f(x) by Horner's rule on the scalar kernels, x a base-p value."""
    add, mul = f.spec.add, f.spec.mul
    acc = 0
    for c in reversed(f.coeffs):
        acc = add(mul(acc, x), c)
    return acc


def _random_poly(spec, rng, degree):
    coeffs = [spec.random_element(rng) for _ in range(degree)]
    coeffs.append(spec.scalar(1 + rng.randrange(spec.p - 1)))
    return Polynomial(spec, coeffs)


def _refactor_product(facs, spec):
    out = Polynomial.one(spec)
    for g, m in facs:
        out = math.prod([g] * m, start=out)
    return out


def test_factor_roundtrip_seeded(f11, f169):
    rng = random.Random(2024)
    for spec in (f11, f169):
        for trial in range(200):
            f = _random_poly(spec, rng, 1 + rng.randrange(12))
            facs = factor(f, seed=trial)
            assert _refactor_product(facs, spec) == f.monic()
            for g, _ in facs:
                assert g.coeffs[-1] == 1  # monic
                assert g.is_irreducible()


def _is_irreducible_by_factor(f):
    return factor(f) == [(f.monic(), 1)]


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


def test_is_irreducible_agrees_with_factor_seeded(f169):
    # random polynomials, and squares g^2 h that the walk meets unsplit
    rng = random.Random(27)
    for spec in (f169, make_field(7, 3)):
        for trial in range(60):
            f = _random_poly(spec, rng, 1 + rng.randrange(7))
            if trial % 3 == 0:
                g = _random_poly(spec, rng, 1 + rng.randrange(3))
                f = g * g * _random_poly(spec, rng, rng.randrange(3))
            assert f.is_irreducible() == _is_irreducible_by_factor(f), f
    assert not Polynomial.one(f169).is_irreducible()
    assert not Polynomial.zero(f169).is_irreducible()


@pytest.mark.parametrize("p, k, modulus", [
    (11, 2, (10, 2, 1)),
    (13, 3, (1, 8, 2, 1)),
    (5, 8, (3, 0, 3, 4, 4, 1, 4, 3, 1)),
    (7, 12, (6, 5, 2, 0, 4, 2, 2, 5, 3, 4, 2, 2, 1)),
])
def test_make_field_modulus_is_pinned(p, k, modulus):
    assert make_field(p, k, 0).modulus == modulus


def test_factor_with_forced_multiplicities(f11):
    rng = random.Random(5)
    x = Polynomial.x(f11)
    for _ in range(40):
        a = f11.random_element(rng)
        b = f11.random_element(rng)
        while b == a:
            b = f11.random_element(rng)
        g1 = x - Polynomial(f11, [a])
        g2 = x - Polynomial(f11, [b])
        f = g1 * g1 * g1 * g2
        facs = factor(f)
        assert sorted(m for _, m in facs) == [1, 3]
        assert _refactor_product(facs, f11) == f


def test_factor_pth_power(f11):
    # derivative-zero path: (x + 3)^11 has zero derivative over F_11
    x = Polynomial.x(f11)
    f = math.prod([x + Polynomial(f11, [f11.scalar(3)])] * 11, start=Polynomial.one(f11))
    assert f.derivative().is_zero()
    facs = factor(f)
    assert len(facs) == 1
    g, m = facs[0]
    assert m == 11 and g.degree() == 1


def test_factor_rejects_zero(f11):
    with pytest.raises(ValueError):
        factor(Polynomial.zero(f11))


TUPLE_FIELDS = [make_field(11), make_field(13, 2), make_field(13, 3)]


@st.composite
def _field_and_polys(draw, count):
    """A field from TUPLE_FIELDS and `count` polynomials over it of degree
    below 8, built from coefficient tuples (the zero polynomial included)."""
    spec = draw(st.sampled_from(TUPLE_FIELDS))
    coeff = st.tuples(*[st.integers(0, spec.p - 1)] * spec.k)
    return spec, [Polynomial(spec, draw(st.lists(coeff, max_size=8))) for _ in range(count)]


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


@settings(max_examples=100, deadline=None)
@given(_field_and_polys(1))
def test_polynomial_from_field_elements_equals_from_tuples(case):
    spec, (f,) = case
    g = Polynomial(spec, [spec.element(spec.unpack(c)) for c in f.coeffs])
    assert g == f and hash(g) == hash(f)
    assert all(type(c) is int and 0 <= c < spec.q for c in g.coeffs)


def test_factor_orders_coefficients_by_base_p_value(f169):
    # the constant terms are -(1, 2) = (12, 11), base-p value 12 + 11 * 13 =
    # 155, and -(2, 1) = (11, 12), value 167; compared as coefficient tuples
    # the second would come first
    x = Polynomial.x(f169)
    f = (x - Polynomial(f169, [(1, 2)])) * (x - Polynomial(f169, [(2, 1)]))
    facs = factor(f)
    assert [g.coeffs for g, _ in facs] == [(155, 1), (167, 1)]


def test_polynomial_takes_base_p_values(f169):
    # x + (2 + 3x) over F_169 from its base-p values, 2 + 3 * 13 = 41 and 1
    f = Polynomial(f169, [41, 1, 0])
    assert f == Polynomial(f169, [(2, 3), (1, 0)]) == Polynomial(f169, [f169.element([2, 3]), f169.one])
    assert f.coeffs == (41, 1)
    for bad in (-1, 169):
        with pytest.raises(ValueError):
            Polynomial(f169, [bad])


# Polynomial's int kernels against arithmetic on coefficient tuples written
# here: products reduced by x^k = -(m_0 + ... + m_(k-1) x^(k-1)) from the top
# degree down, independent of FieldSpec's reduction rows and its base-p code.
KERNEL_FIELDS = TUPLE_FIELDS + [make_field(2**31 + 11)]


def _ref_add(spec, a, b):
    return tuple((x + y) % spec.p for x, y in zip(a, b))


def _ref_mul(spec, a, b):
    p, k = spec.p, spec.k
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):
        top, conv[d] = conv[d], 0
        for i in range(k):
            conv[d - k + i] -= top * spec.modulus[i]
    return tuple(c % p for c in conv[:k])


def _ref_inv(spec, a):
    out, e = (1,) + (0,) * (spec.k - 1), spec.q - 2
    while e:
        if e & 1:
            out = _ref_mul(spec, out, a)
        a, e = _ref_mul(spec, a, a), e >> 1
    return out


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
    return [f.spec.unpack(c) for c in f.coeffs]


@st.composite
def _kernel_case(draw):
    """A field from KERNEL_FIELDS, two polynomials of degree below 7 given
    as coefficient tuples, and a point of the field."""
    spec = draw(st.sampled_from(KERNEL_FIELDS))
    coeff = st.tuples(*[st.integers(0, spec.p - 1)] * spec.k)
    a, b = (draw(st.lists(coeff, max_size=7)) for _ in range(2))
    return spec, Polynomial(spec, a), Polynomial(spec, b), draw(coeff)


@settings(max_examples=120, deadline=None)
@given(_kernel_case())
def test_int_kernels_match_tuple_arithmetic(case):
    spec, a, b, x = case
    assert spec.dtype is (object if spec.p > 2**31 else np.int64)
    ta, tb = _tuples(a), _tuples(b)
    assert all(spec.pack(t) == c for t, c in zip(ta, a.coeffs))
    for u, v in zip(ta + [x], tb + [x]):
        s, t = spec.pack(u), spec.pack(v)
        assert spec.unpack(spec.add(s, t)) == _ref_add(spec, u, v)
        assert spec.add(spec.sub(s, t), t) == s
        assert spec.unpack(spec.mul(s, t)) == _ref_mul(spec, u, v)
        if s:
            assert spec.unpack(spec.inv(s)) == _ref_inv(spec, u)
    # Horner's rule on the int kernels agrees with it in tuple arithmetic
    acc = (0,) * spec.k
    for c in reversed(ta):
        acc = _ref_add(spec, _ref_mul(spec, acc, x), c)
    assert spec.unpack(_horner(a, spec.pack(x))) == acc
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
    # the product of the factors is the monic input
    product = [(1,) + (0,) * (spec.k - 1)]
    for f, m in factor(a):
        assert f.coeffs[-1] == 1  # monic
        for _ in range(m):
            product = _ref_poly_mul(spec, product, _tuples(f))
    inv_lc = _ref_inv(spec, ta[-1])
    assert product == [_ref_mul(spec, c, inv_lc) for c in ta]


def test_minpoly_identity_and_zero(f11):
    v = as_rows([f11.one, f11.zero, f11.scalar(3), f11.zero])
    m_id = minpoly(f11, lambda w: w, v)
    x = Polynomial.x(f11)
    assert m_id == x - Polynomial.one(f11)
    m_zero = minpoly(f11, np.zeros_like, v)
    assert m_zero == x


def test_minpoly_rejects_a_start_vector_of_the_wrong_k(f11, f169):
    # dim is len(v); the coefficient axis must still be the field's k
    with pytest.raises(ValueError):
        minpoly(f169, lambda w: w, as_rows([f11.one, f11.zero]))
    with pytest.raises(ValueError):
        minpoly(f11, lambda w: w, as_rows([f169.one, f169.zero]))
    with pytest.raises(ValueError):
        minpoly(f11, lambda w: w[:-1], as_rows([f11.one, f11.zero]))


def test_minpoly_shift_is_nilpotent(f11):
    dim = 5

    def shift(w):
        return np.concatenate([np.zeros_like(w[:1]), w[:-1]])

    v = as_rows([f11.one] + [f11.zero] * (dim - 1))
    assert minpoly(f11, shift, v) == Polynomial(f11, [0] * dim + [1])  # X^dim


def test_minpoly_degree_bound(f11):
    # the shift on 5 coordinates started at e_3 has minimal polynomial X^2:
    # a bound of 2 takes 2 steps and gives it, a bound of 1 is too small
    steps = []

    def shift(w):
        steps.append(1)
        return np.concatenate([np.zeros_like(w[:1]), w[:-1]])

    v = as_rows([f11.zero] * 3 + [f11.one, f11.zero])
    assert minpoly(f11, shift, v, 2) == Polynomial(f11, [0, 0, 1])
    assert len(steps) == 2
    assert minpoly(f11, shift, v) == Polynomial(f11, [0, 0, 1])  # the default bound, len(v) = 5
    assert len(steps) == 2 + 5
    with pytest.raises(ValueError, match="exceeds the bound 1"):
        minpoly(f11, shift, v, 1)


def test_minpoly_companion_matrix():
    # multiplication by x modulo f has minimal polynomial exactly f.  At
    # degree 48 the Krylov matrix, 48 x 49, is eliminated in int16 (p = 11,
    # 31) or int32 (p = 37, 8191), and minpoly reads the echelon form off
    # that working copy; the start vector g gives f / gcd(f, g), and a Krylov
    # matrix that is not already in echelon form
    assert 48 * 49 >= ffield._NARROW_MIN_ENTRIES
    for p in (11, 31, 37, 8191):
        spec = make_field(p)
        x = Polynomial.x(spec)
        rng = random.Random(p)
        random_f = Polynomial(spec, [spec.random_element(rng) for _ in range(48)] + [spec.one])
        for f in (x * x * x + x + Polynomial(spec, [spec.scalar(4)]), random_f):
            degree = f.degree()

            def as_vector(g):
                cs = [spec.element(c) for c in g.coeffs]
                return as_rows(cs + [spec.zero] * (degree - len(cs)))

            def apply(w):
                return as_vector((Polynomial(spec, [spec.element(c) for c in w.tolist()]) * x) % f)

            # 1 is a cyclic vector: 1, x, ..., x^(degree-1) span F_p[x]/(f)
            assert minpoly(spec, apply, as_vector(Polynomial.one(spec))) == f.monic()
            g = Polynomial(spec, [spec.random_element(rng) for _ in range(degree)])
            assert minpoly(spec, apply, as_vector(g)) == (f // f.gcd(g)).monic()


def _charpoly_3x3(spec, rows):
    """Cofactor-expansion determinant of xI - A over the polynomial ring."""
    x = Polynomial.x(spec)

    def entry(i, j):
        base = Polynomial(spec, [-rows[i][j]])
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
        rows = [[f11.random_element(rng) for _ in range(3)] for _ in range(3)]

        def apply(w):
            w = [f11.element(c) for c in w.tolist()]
            return as_rows([sum((rows[i][j] * w[j] for j in range(3)), f11.zero) for i in range(3)])

        mp = minpoly(f11, apply, as_rows([f11.random_element(rng) for _ in range(3)]))
        cp = _charpoly_3x3(f11, rows)
        assert (cp % mp).is_zero()


def test_row_reduce_identity_and_zero(f11):
    assert MatrixFq(f11, np.eye(3, dtype=np.int64)[:, :, None]).rank() == 3
    assert MatrixFq(f11, np.zeros((4, 4, 1), dtype=np.int64)).rank() == 0


def _identity_rows(spec, n):
    return [[spec.one if i == j else spec.zero for j in range(n)] for i in range(n)]


def test_rank_168_product_of_elementary_matrices(f11):
    rng = random.Random(11)
    n = 168
    rows = _identity_rows(f11, n)
    for _ in range(400):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            c = f11.scalar(1 + rng.randrange(10))
            rows[i] = [c * x for x in rows[i]]
        elif i != j:
            c = f11.random_element(rng)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    assert as_matrix(f11, rows).rank() == n


def test_rank_matches_row_reduce_and_kernel(f11, f169):
    rng = random.Random(13)
    for spec in (f11, f169):
        for _ in range(25):
            nrows = 1 + rng.randrange(7)
            ncols = 1 + rng.randrange(7)
            rows = [[spec.random_element(rng) for _ in range(ncols)] for _ in range(nrows)]
            assert as_matrix(spec, rows).rank() == reference_rank(rows)


def test_rank_blowup_extension_field(f169):
    rng = random.Random(17)
    n = 40
    rows = _identity_rows(f169, n)
    for _ in range(150):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = f169.random_element(rng)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    assert as_matrix(f169, rows).rank() == n
    # knock out one row
    rows[0] = [f169.zero] * n
    assert as_matrix(f169, rows).rank() == n - 1


def test_modulus_choice_is_seeded():
    f_a = make_field(13, 2, seed=0)
    f_b = make_field(13, 2, seed=1)
    assert f_a.modulus != f_b.modulus
    for spec in (f_a, f_b):
        x = Polynomial.x(spec)
        rng = random.Random(0)
        a = spec.random_element(rng)
        while not a:
            a = spec.random_element(rng)
        assert a**168 == spec.one


def test_pow_and_truediv(f13):
    a = f13.scalar(2)
    assert a**-1 == f13.scalar(7)  # 2 * 7 = 14 = 1 mod 13
    assert (f13.one / a) == f13.scalar(7)
    with pytest.raises(ZeroDivisionError):
        f13.zero.inverse()


def test_element_rejects_an_element_of_another_field(f11, f13):
    f121 = make_field(11, 2, seed=0)
    with pytest.raises(ValueError):
        f13.element(f11.scalar(5))
    with pytest.raises(ValueError):
        f11.element(f121.element([1, 1]))
    # an element of an equal field built apart is accepted
    twin = FieldSpec(11, 1, f11.modulus)
    assert f11.element(twin.scalar(5)) == f11.scalar(5)


def test_polynomial_rejects_coefficients_of_another_field(f11, f13, f169):
    with pytest.raises(ValueError):
        Polynomial(f11, [f13.scalar(12), f13.one])
    with pytest.raises(ValueError):
        Polynomial(f11, [f169.element([1, 1])])
    # an equal field built apart, and coefficient tuples, are accepted as before
    twin = FieldSpec(11, 1, f11.modulus)
    assert twin is not f11
    assert Polynomial(f11, [twin.one, twin.one]) == Polynomial(f11, [(1,), (1,)])
