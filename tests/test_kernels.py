"""Differential tests of the array kernels: FieldSpec.fold's product of
coefficient rows and the group-algebra product against tuple arithmetic
written here, one coefficient vector at a time, the center's products
against the group algebra's, minimal polynomials against their
definition, the companion-matrix rank expansion against a row reduction in
tuple arithmetic, and the echelon form that the elimination leaves
against a plain-Python one."""

import random

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedderburn import AlgebraElement, MatrixFq, Polynomial, make_field, minpoly, split_center, verify_split
from wedderburn.ffield import _blow_up, _eliminate
from wedderburn.oracle import _CenterAlgebra, _convolve

FIELDS = {(11, 1): make_field(11), (11, 2): make_field(11, 2, seed=0), (13, 3): make_field(13, 3, seed=0),
          (2**31 + 11, 2): make_field(2**31 + 11, 2, seed=0)}
CENTER_FIELDS = [(11, 1), (13, 2), (13, 3), (2**31 + 11, 2)]


# Arithmetic on coefficient tuples (c_0, ..., c_(k-1)) of F_q, the reference
# for the package's arrays: products reduced by x^k = -(m_0 + ... +
# m_(k-1) x^(k-1)) from the top degree down, independent of FieldSpec.fold
# and its reduction rows.
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


def coefficients(x):
    """The coefficients of the AlgebraElement x as coefficient tuples, each
    its row as it stands: a row with an entry outside [0, p) differs from
    the reduced tuple, so a product left unreduced fails the comparison."""
    return tuple(map(tuple, x.arr.tolist()))


def reference_product(a, b):
    """sum over i, j of a(g_i) b(g_j) g_i g_j, one tuple product at a time."""
    spec, table = a.spec, a.group.mul_table()
    out = [(0,) * spec.k] * a.group.order
    for i, x in enumerate(coefficients(a)):
        if any(x):
            for j, y in enumerate(coefficients(b)):
                if any(y):
                    out[table[i][j]] = _ref_add(spec, out[table[i][j]], _ref_mul(spec, x, y))
    return tuple(out)


def reference_rank(spec, rows):
    """Rank of a list of rows of coefficient tuples by Gaussian elimination
    in tuple arithmetic."""
    out = [list(r) for r in rows]
    rank = 0
    for c in range(len(out[0]) if out else 0):
        pr = next((i for i in range(rank, len(out)) if any(out[i][c])), None)
        if pr is None:
            continue
        out[rank], out[pr] = out[pr], out[rank]
        inv = _ref_inv(spec, out[rank][c])
        for i in range(rank + 1, len(out)):
            if any(out[i][c]):
                f = tuple(-x % spec.p for x in _ref_mul(spec, out[i][c], inv))
                out[i] = [_ref_add(spec, a, _ref_mul(spec, f, b)) for a, b in zip(out[i], out[rank])]
        rank += 1
    return rank


def _right_ideal_dimension(spec, E: np.ndarray, table: np.ndarray) -> int:
    """dim over F_q = spec of E * F_q[G], E a (|G|, k) array: rank of the
    matrix whose columns are the right translates E * g, entry (h, g) =
    E(h g^-1).  The matrix with entry (h, g) = E(h g), E gathered through
    the full table, is the same one with its columns relabelled by
    inversion, so it has the same rank.  The tests' independent reference
    for a block dimension D, which split_center reads off a lifted trace
    and verify_split proves by a Krylov rank."""
    return MatrixFq(spec, E[table]).rank()


def random_scalar(spec, rng):
    """The coefficient tuple of k draws rng.randrange(p)."""
    return tuple(rng.randrange(spec.p) for _ in range(spec.k))


def dot(spec, xs, ys):
    """sum of x * y over the pairs of coefficient tuples, in tuple arithmetic."""
    out = (0,) * spec.k
    for x, y in zip(xs, ys):
        out = _ref_add(spec, out, _ref_mul(spec, x, y))
    return out


def as_rows(spec, values):
    """The (len(values), k) array of a list of coefficient tuples, or of
    residues when k = 1."""
    return np.array(values, dtype=spec.dtype).reshape(len(values), spec.k)


def krylov_matrix(apply, v, bound):
    """The Krylov matrix minpoly reads: the columns v, Av, ..., A^bound v of
    the operator ``apply`` on (dim, 1) arrays, from the start vector v."""
    columns = [v]
    for _ in range(bound):
        columns.append(apply(columns[-1]))
    return np.concatenate(columns, axis=1)


def as_matrix(spec, rows):
    """The MatrixFq whose entries are rows' coefficient tuples, or residues
    when k = 1."""
    arr = np.array(rows, dtype=spec.dtype)
    return MatrixFq(spec, arr.reshape(arr.shape[:2] + (spec.k,)))


def fold_product(spec, a, b):
    """The entrywise F_q product of broadcastable (..., k) arrays with
    entries reduced mod p, by FieldSpec.fold on their outer products."""
    return spec.fold(a[..., :, None] * b[..., None, :] % spec.p)


def random_algebra_element(G, spec, rng, density=1.0):
    coeffs = [random_scalar(spec, rng) if rng.random() < density else (0,) * spec.k for _ in range(G.order)]
    return AlgebraElement(G, spec, as_rows(spec, coeffs))


def to_algebra(G, spec, v):
    """The AlgebraElement of the (m, k) class vector v: each element takes
    its class's coefficient."""
    return AlgebraElement(G, spec, v[list(G.class_index_of)])


def extreme_element(G, spec):
    """Every coefficient p - 1 in every position: the largest int64 terms."""
    return AlgebraElement(G, spec, np.full((G.order, spec.k), spec.p - 1, dtype=spec.dtype))


@settings(max_examples=12, deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2**32),
       density=st.sampled_from([0.05, 0.3, 1.0]))
def test_product_matches_convolution_sl32(sl32_s8, field, seed, density):
    spec = FIELDS[field]
    rng = random.Random(seed)
    a = random_algebra_element(sl32_s8, spec, rng, density)
    b = random_algebra_element(sl32_s8, spec, rng, density)
    assert coefficients(a * b) == reference_product(a, b)
    # scaling, adding and subtracting the coefficient arrays, as the oracle
    # does, against the same operations one scalar at a time
    c = random_scalar(spec, rng)
    pairs = list(zip(coefficients(a), coefficients(b)))
    scaled = fold_product(spec, a.arr, np.array(c, dtype=spec.dtype))
    assert np.array_equal(scaled, as_rows(spec, [_ref_mul(spec, x, c) for x, _ in pairs]))
    assert np.array_equal((a.arr + b.arr) % spec.p, as_rows(spec, [_ref_add(spec, x, y) for x, y in pairs]))
    minus = [tuple(-t % spec.p for t in y) for _, y in pairs]
    assert np.array_equal((a.arr - b.arr) % spec.p, as_rows(spec, [_ref_add(spec, x, y) for (x, _), y in zip(pairs, minus)]))


def random_array(spec, rng, shape):
    """A random array of the given shape + (k,) with entries reduced mod p."""
    count = int(np.prod(shape, dtype=np.int64)) * spec.k
    return np.array([rng.randrange(spec.p) for _ in range(count)], dtype=spec.dtype).reshape(shape + (spec.k,))


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2**32),
       shapes=st.sampled_from([((), ()), ((3,), ()), ((), (4,)), ((2, 1), (1, 3)), ((5,), (5,))]))
def test_fold_matches_tuple_products(field, seed, shapes):
    # FieldSpec.fold on the outer products of broadcast rows, entry by entry
    # against the tuple product
    spec = FIELDS[field]
    rng = random.Random(seed)
    a, b = random_array(spec, rng, shapes[0]), random_array(spec, rng, shapes[1])
    out = fold_product(spec, a, b)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    assert out.shape == shape + (spec.k,)
    a_b, b_b = np.broadcast_to(a, shape + (spec.k,)), np.broadcast_to(b, shape + (spec.k,))
    for idx in np.ndindex(shape):
        assert tuple(out[idx].tolist()) == _ref_mul(spec, tuple(a_b[idx].tolist()), tuple(b_b[idx].tolist()))


def reference_products(lefts, b):
    """sum over h of a(h^-1) * b(h g) for each a in lefts, with h^-1 and h g
    looked up through G.index and each term a tuple product: no
    multiplication table, inversion array or array kernel."""
    G, spec = b.group, b.spec
    inverse = [G.index(h.inverse()) for h in G.elements]
    hg = [[G.index(h * g) for g in G.elements] for h in G.elements]
    bs = coefficients(b)
    out = []
    for a in lefts:
        terms = [(tuple(x), hg[i]) for i, x in enumerate(a.arr[inverse].tolist()) if any(x)]
        row = [(0,) * spec.k] * G.order
        for j in range(G.order):
            for x, hg_i in terms:
                row[j] = _ref_add(spec, row[j], _ref_mul(spec, x, bs[hg_i[j]]))
        out.append(row)
    return out


@hypothesis.seed(0)  # the same draws, and so about the same time, on every run
@settings(max_examples=12, deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2**32), count=st.integers(1, 4),
       density=st.sampled_from([0.05, 0.3, 1.0]), rational=st.lists(st.booleans(), min_size=5, max_size=5))
@example(field=(13, 3), seed=0, count=3, density=1.0, rational=[True] * 5)
@example(field=(2**31 + 11, 2), seed=1, count=2, density=0.3, rational=[True] * 5)
@example(field=(11, 2), seed=2, count=2, density=1.0, rational=[True, True, False, True, True])
def test_batched_products_match_pairwise(sl32_s8, field, seed, count, density, rational):
    # rational[i]: factor i lies in F_p, as most idempotents do; each of
    # the count left factors is multiplied by the last factor in its own
    # product, on the full table
    spec = FIELDS[field]
    rng = random.Random(seed)
    factors = [random_algebra_element(sl32_s8, spec, rng, density) for _ in range(count + 1)]
    for x, in_prime_field in zip(factors, rational):
        if in_prime_field:
            x.arr[:, 1:] = 0
    expected = [[list(c) for c in row] for row in reference_products(factors[:-1], factors[-1])]
    for a, row in zip(factors[:-1], expected):
        out = _convolve(sl32_s8, spec, a.arr, factors[-1].arr)
        assert out.shape == (168, spec.k)
        assert out.tolist() == row


@pytest.mark.parametrize("field", CENTER_FIELDS, ids=lambda f: f"{f[0]}^{f[1]}")
@pytest.mark.parametrize("group", ["sl32_s8", "c7c3"])
def test_center_products_match_group_algebra(request, group, field):
    G = request.getfixturevalue(group)
    spec = make_field(*field, seed=0)
    Z = _CenterAlgebra(G.class_product_coefficients(), spec)
    rng = random.Random(f"{group}:{field}")
    for _ in range(2):
        u, v = random_array(spec, rng, (Z.m,)), random_array(spec, rng, (Z.m,))
        assert to_algebra(G, spec, Z.mul(u, v)) == to_algebra(G, spec, u) * to_algebra(G, spec, v)
    for i in range(Z.m):
        class_sum = AlgebraElement.zero(G, spec)
        class_sum.arr[np.array(G.class_index_of) == i, 0] = 1
        assert to_algebra(G, spec, Z._mul_classes(v)[i]) == class_sum * to_algebra(G, spec, v)


@pytest.mark.parametrize("field", CENTER_FIELDS, ids=lambda f: f"{f[0]}^{f[1]}")
def test_stacked_center_products_match_one_at_a_time(c7c3, field):
    # a (B, m, k) stack of products, of two stacks or of a stack by one
    # factor, is one broadcast call
    spec = make_field(*field, seed=0)
    Z = _CenterAlgebra(c7c3.class_product_coefficients(), spec)
    rng = random.Random(f"stack:{field}")
    u, v = random_array(spec, rng, (5, Z.m)), random_array(spec, rng, (5, Z.m))
    assert Z.mul(u, v).tolist() == [Z.mul(a, b).tolist() for a, b in zip(u, v)]
    assert Z.mul(u, v[0]).tolist() == [Z.mul(a, v[0]).tolist() for a in u]


PRIME_FIELDS = {p: make_field(p) for p in (11, 2**31 + 11)}  # int64 and object arrays


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(sorted(PRIME_FIELDS)), seed=st.integers(0, 2**32))
def test_minpoly_annihilates_and_has_krylov_rank(p, seed):
    # A = c*I + (dim x r)(r x dim): minimal polynomials of degree up to r + 1
    spec = PRIME_FIELDS[p]
    rng = random.Random(seed)
    dim, r = rng.randint(1, 7), rng.randint(0, 3)
    low = (random_array(spec, rng, (dim, 1, r))[..., 0] * random_array(spec, rng, (1, dim, r))[..., 0] % p).sum(2)
    A = (low + np.eye(dim, dtype=spec.dtype) * rng.randrange(p)) % p

    def apply(w):
        return (A * w[:, 0] % p).sum(1, keepdims=True) % p

    krylov = krylov_matrix(apply, random_array(spec, rng, (dim,)), dim)
    m = minpoly(spec, krylov)
    assert m.coeffs[-1] == 1  # monic
    assert not (sum(c * u % p for c, u in zip(m.coeffs, krylov.T)) % p).any()
    assert m.degree() == MatrixFq(spec, krylov[..., None]).rank()


@pytest.mark.parametrize("field", [(11, 1), (2**31 + 11, 1)], ids=lambda f: f"{f[0]}^{f[1]}")
def test_minpoly_of_zero_vector_is_one(field):
    spec = make_field(*field)
    zero = np.zeros((4, 1), dtype=spec.dtype)
    assert minpoly(spec, krylov_matrix(lambda w: w, zero, 4)) == Polynomial.one(spec)


def test_minpoly_jordan_block_over_a_large_prime():
    # A = J_2(a) + (b) on F_p^3 with p > 2**31 and dtype object: v = (0, 1, 1)
    # has minimal polynomial (X - a)^2 (X - b)
    spec = PRIME_FIELDS[2**31 + 11]
    assert spec.dtype is object
    a, b = 2**31, 7

    def apply(w):
        return np.array([[(a * w[0, 0] + w[1, 0]) % spec.p], [a * w[1, 0] % spec.p], [b * w[2, 0] % spec.p]],
                        dtype=object)

    v = np.array([[0], [1], [1]], dtype=object)
    x = Polynomial.x(spec)
    root_a = x - Polynomial(spec, [a])
    expected = root_a * root_a * (x - Polynomial(spec, [b]))
    assert minpoly(spec, krylov_matrix(apply, v, 3)) == expected


@pytest.mark.parametrize("p, k", [(2**31 - 1, 1), (2**31 - 1, 2), (2**31 + 11, 1), (2**31 + 11, 2), (2**61 - 1, 1)])
def test_product_exact_near_int64_limits(q8, c7c3, p, k):
    # below 2**31 the sum over the group runs in chunks of 2 terms; from 2**31
    # up the arrays hold Python ints
    spec = make_field(p, k, seed=0)
    rng = random.Random(p + k)
    for G in (q8, c7c3):
        top = extreme_element(G, spec)
        assert coefficients(top * top) == reference_product(top, top)
        a, b = random_algebra_element(G, spec, rng), random_algebra_element(G, spec, rng)
        assert coefficients(a * b) == reference_product(a, b)
        assert coefficients(a * top) == reference_product(a, top)


@pytest.mark.parametrize("field", [(2**31 - 1, 1), (2**61 - 1, 1), (2**31 + 11, 2)],
                         ids=lambda f: str(f[0]) if f[1] == 1 else f"{f[0]}^{f[1]}")
def test_split_and_verify_near_int64_limits(c7c3, field):
    # q = 1 mod 21, so F_q[C7:C3] splits into three fields and two M(3, F_q)
    split = split_center(c7c3, make_field(*field, seed=0), seed=0)
    assert split.pairs() == ((1, 1), (1, 1), (1, 1), (3, 1), (3, 1))
    assert verify_split(split)


def test_right_ideal_dimension_matches_right_translates(c7c3):
    # the kernel's matrix E(h^-1 g) against the defining one, E(h g^-1)
    table, inv = c7c3.mul_table(), c7c3.inverse_indices
    for spec in (make_field(11), make_field(11, 2, seed=0)):
        for E in split_center(c7c3, spec, seed=0).idempotents:
            coeffs = coefficients(AlgebraElement(c7c3, spec, E))
            rows = [[coeffs[table[h][inv[g]]] for g in range(c7c3.order)] for h in range(c7c3.order)]
            assert _right_ideal_dimension(spec, E, table) == reference_rank(spec, rows)


def _random_matrix(spec, rng, nrows, ncols, rank_cap):
    """The rows, as lists of coefficient tuples, of an nrows x ncols matrix
    of rank at most rank_cap: a product of random nrows x r and r x ncols
    factors, sometimes with one row copied over another."""
    r = rng.randint(0, rank_cap)
    left = [[random_scalar(spec, rng) for _ in range(r)] for _ in range(nrows)]
    right = [[random_scalar(spec, rng) for _ in range(ncols)] for _ in range(r)]
    rows = [[dot(spec, left[i], [right[t][j] for t in range(r)]) for j in range(ncols)] for i in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    return rows


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([(11, 2), (13, 3), (2**31 + 11, 2)]), seed=st.integers(0, 2**32))
def test_rank_expansion_matches_row_reduce(field, seed):
    spec = FIELDS[field]
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    rows = _random_matrix(spec, rng, nrows, ncols, min(nrows, ncols))
    assert as_matrix(spec, rows).rank() == reference_rank(spec, rows)


def test_matrix_rows_are_what_rank_sees():
    spec = FIELDS[(11, 2)]
    arr = np.zeros((3, 3, 2), dtype=np.int64)
    arr[0, 0, 0] = arr[1, 1, 1] = arr[2, 2, 0] = 1
    m = MatrixFq(spec, arr)
    assert m.rank() == 3
    assert arr.sum() == 3  # rank eliminates a copy
    m.arr[2] = 0
    assert m.rank() == 2


def reference_echelon(rows, p):
    """The row echelon form _eliminate leaves, reduced mod p, on lists of
    Python ints reduced at every step: first nonzero pivot, swapped up,
    scaled to 1."""
    out = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(out[0])):
        pr = next((i for i in range(r, len(out)) if out[i][c]), None)
        if pr is None:
            continue
        out[r], out[pr] = out[pr], out[r]
        inv = pow(out[r][c], -1, p)
        out[r] = [x * inv % p for x in out[r]]
        for i in range(r + 1, len(out)):
            f = out[i][c]
            if f:
                out[i] = [(x - f * y) % p for x, y in zip(out[i], out[r])]
        r += 1
    return out


def _worst_case_rows(p, n):
    """L U mod p with L unit lower and U unit upper triangular, p - 1 off the
    diagonal: every pivot's column and scaled row are p - 1 below and right
    of it, so every update subtracts (p - 1)**2 from every trailing entry."""
    low = [[1 if i == j else p - 1 if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else p - 1 if j > i else 0 for j in range(n)] for i in range(n)]
    return [[sum(low[i][t] * up[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]


def _low_rank_rows(rng, p, nrows, ncols, rank):
    left = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)], dtype=object)
    right = np.array([[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)], dtype=object)
    return (left.dot(right) % p).tolist()


def _staircase_rows(rng, p, nrows, ncols):
    """Rows with zero leading entries of random lengths, shuffled, so that
    most pivots are found below the current row and swapped up."""
    rows = [[0] * rng.randrange(ncols) for _ in range(nrows)]
    rows = [zeros + [1 + rng.randrange(p - 1)] + [rng.randrange(p) for _ in range(ncols - len(zeros) - 1)]
            for zeros in rows]
    rng.shuffle(rows)
    return rows


def _with_zero_lines(rng, rows, count):
    """rows with count zero rows and count zero columns put in at random places."""
    rows = [list(r) for r in rows]
    for _ in range(count):
        c = rng.randrange(len(rows[0]) + 1)
        rows = [r[:c] + [0] + r[c:] for r in rows]
        rows.insert(rng.randrange(len(rows) + 1), [0] * len(rows[0]))
    return rows


def _empty_column_then_pivots(rng, p, nrows, ncols, c):
    """Random rows whose column c is twice column 0: no pivot in column c,
    though the block right of it still has full rank."""
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    for row in rows:
        row[c] = 2 * row[0] % p
    return rows


# small and middle primes, primes near 2**30 and 2**31, whose update
# products (p - 1)**2 come nearest 2**63 in int64, and 2**31 + 11, where
# the arrays hold Python ints; the 40 x 40 worst case subtracts (p - 1)**2
# from every trailing entry at each of its 39 updates
ECHELON_PRIMES = (11, 31, 37, 8191, 8209, 1073741789, 2**31 - 1, 2**31 + 11)


@pytest.mark.parametrize("p", ECHELON_PRIMES)
def test_elimination_leaves_the_reference_echelon_form(p):
    rng = random.Random(p)
    dtype = np.int64 if p < 2**31 else object
    cases = [
        (_worst_case_rows(p, 40), 40),
        ([[rng.randrange(p) for _ in range(44)] for _ in range(36)], 36),
        (_low_rank_rows(rng, p, 44, 36, 31), 31),
        (_staircase_rows(rng, p, 30, 24), None),  # row swaps
        (_with_zero_lines(rng, _low_rank_rows(rng, p, 20, 18, 12), 5), 12),  # zero rows and columns
        (_with_zero_lines(rng, _staircase_rows(rng, p, 14, 14), 3), None),
        (_low_rank_rows(rng, p, 9, 50, 7), 7),  # wide
        ([[rng.randrange(p) for _ in range(11)] for _ in range(48)], 11),  # tall
        (_staircase_rows(rng, p, 8, 45), None),
        (_staircase_rows(rng, p, 45, 8), None),
        ([[0] * 6 for _ in range(4)], 0),
        (_empty_column_then_pivots(rng, p, 14, 12, 5), 11),  # the early stop must not fire
        (_low_rank_rows(rng, p, 30, 30, 12), 12),  # the trailing block empties at column 12
    ]
    for rows, rank in cases:
        expected = reference_echelon(rows, p)
        if rank is None:
            rank = sum(map(any, expected))
        a = np.array(rows, dtype=dtype)
        w = a % p
        assert _eliminate(w, p) == rank
        assert w.tolist() == expected
        assert a.dtype == dtype and a.tolist() == rows  # the copy leaves a as it was


@pytest.mark.parametrize("p", [31, 37])
def test_blown_up_rank_in_each_working_dtype(p):
    # a 24 x 24 matrix over F_{p^2} with entries outside F_p blows up to
    # 48 x 48
    spec = make_field(p, 2, seed=0)
    rng = random.Random(p)
    left = [[random_scalar(spec, rng) for _ in range(17)] for _ in range(24)]
    right = [[random_scalar(spec, rng) for _ in range(24)] for _ in range(17)]
    rows = [[dot(spec, left[i], [right[t][j] for t in range(17)]) for j in range(24)] for i in range(24)]
    m = as_matrix(spec, rows)
    assert m.arr[..., 1:].any()
    assert m.rank() == reference_rank(spec, rows) == 17


@pytest.mark.parametrize("field, size, outside_fp", [
    ((11, 1), 5, False),
    ((11, 1), 48, False),
    ((11, 2), 24, True),  # blown up to 48 x 48
    ((13, 3), 4, True),
    ((13, 3), 6, False),
    ((2**31 + 11, 2), 6, False),  # Python ints
])
def test_rank_reduces_the_whole_array_once(field, size, outside_fp):
    # MatrixFq.rank eliminates a reduced copy and leaves the matrix as it was
    spec = FIELDS[field]
    rng = random.Random(size)
    if outside_fp:
        rows = [[random_scalar(spec, rng) for _ in range(size)] for _ in range(size)]
    else:
        rows = [[(rng.randrange(spec.p),) + (0,) * (spec.k - 1) for _ in range(size)] for _ in range(size)]
    m = as_matrix(spec, rows)
    assert bool(m.arr[..., 1:].any()) == outside_fp
    arr = m.arr.copy()
    assert m.rank() == reference_rank(spec, rows)
    assert np.array_equal(m.arr, arr)


@pytest.mark.parametrize("p, dim", [
    (11, 6),  # a 6 x 7 Krylov matrix
    (11, 40),  # 40 x 41
    (2**31 + 11, 4),  # 4 x 5, Python ints
], ids=["11-6-int64", "11-40-int16", "2147483659-4-object"])
def test_minpoly_reduces_the_whole_array_once(p, dim):
    # minpoly eliminates a reduced copy of its Krylov matrix, leaves the
    # matrix as it was, and reads only the pivot rows up to column t
    spec = PRIME_FIELDS[p]

    def cyclic_shift(w):
        return np.roll(w, 1, axis=0)

    v = np.zeros((dim, 1), dtype=spec.dtype)
    v[0, 0] = 1
    krylov = krylov_matrix(cyclic_shift, v, dim)
    before = krylov.copy()
    assert minpoly(spec, krylov) == Polynomial(spec, [spec.p - 1] + [0] * (dim - 1) + [1])  # X^dim - 1
    assert np.array_equal(krylov, before)


def test_rank_blows_up_entries_outside_fp():
    # diag(x, 1) over F_{13^3}: rank 2, though its constant coefficients
    # diag(0, 1) have rank 1
    spec = FIELDS[(13, 3)]
    x, zero, one = (0, 1, 0), (0, 0, 0), (1, 0, 0)
    m = as_matrix(spec, [[x, zero], [zero, one]])
    assert m.rank() == 2
    assert _eliminate(m.arr[..., 0] % spec.p, spec.p) == 1


def test_rank_of_fp_entries_skips_the_blow_up(monkeypatch):
    spec = FIELDS[(13, 3)]
    rng = random.Random(13)
    rows = [[(rng.randrange(spec.p), 0, 0) for _ in range(7)] for _ in range(3)]
    rows += [[_ref_add(spec, a, b) for a, b in zip(rows[0], rows[1])], rows[2]]
    m = as_matrix(spec, rows)
    expected = _eliminate(_blow_up(spec, m.arr) % spec.p, spec.p) // spec.k
    assert expected == reference_rank(spec, rows) == 3

    def no_blow_up(*args):
        raise AssertionError("an F_p-valued matrix was blown up")

    monkeypatch.setattr("wedderburn.ffield._blow_up", no_blow_up)
    assert m.rank() == expected
