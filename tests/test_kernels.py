"""Differential tests of the array kernels: the F_q product of arrays and the
group-algebra product against the scalar kernels FieldSpec.add and mul run
one base-p int at a time, the center's products against the group
algebra's, minimal polynomials against their definition, the
companion-matrix rank expansion against a row reduction on the scalar
kernels, and the echelon form that the delayed-reduction elimination
leaves against a plain-Python one."""

import functools

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedderburn import AlgebraElement, MatrixFq, Polynomial, make_field, minpoly, split_center, verify_split
from wedderburn import ffield
from wedderburn.ffield import _NARROW_MIN_ENTRIES, _blow_up, _eliminate, _working_copy, _working_dtype
from wedderburn.oracle import _CenterAlgebra, _convolve, _right_ideal_dimension

FIELDS = {(11, 1): make_field(11), (11, 2): make_field(11, 2, seed=0), (13, 3): make_field(13, 3, seed=0),
          (2**31 + 11, 2): make_field(2**31 + 11, 2, seed=0)}
CENTER_FIELDS = [(11, 1), (13, 2), (13, 3), (2**31 + 11, 2)]


def coefficients(x):
    """The coefficients of the AlgebraElement x as base-p ints, each packed
    from its row as it stands: a row with an entry outside [0, p) packs to a
    different value, so a product left unreduced fails the comparison."""
    return tuple(x.spec.pack(row) for row in x.arr.tolist())


def reference_product(a, b):
    """sum over i, j of a(g_i) b(g_j) g_i g_j, one scalar kernel call at a time."""
    spec, table = a.spec, a.group.mul_table()
    out = [0] * a.group.order
    for i, x in enumerate(coefficients(a)):
        if x:
            for j, y in enumerate(coefficients(b)):
                if y:
                    out[table[i][j]] = spec.add(out[table[i][j]], spec.mul(x, y))
    return tuple(out)


def reference_rank(spec, rows):
    """Rank of a list of rows of base-p ints by Gaussian elimination, one
    scalar kernel call at a time."""
    out = [list(r) for r in rows]
    rank = 0
    for c in range(len(out[0]) if out else 0):
        pr = next((i for i in range(rank, len(out)) if out[i][c]), None)
        if pr is None:
            continue
        out[rank], out[pr] = out[pr], out[rank]
        inv = spec.inv(out[rank][c])
        for i in range(rank + 1, len(out)):
            if out[i][c]:
                f = spec.mul(out[i][c], inv)
                out[i] = [spec.sub(a, spec.mul(f, b)) for a, b in zip(out[i], out[rank])]
        rank += 1
    return rank


def random_scalar(spec, rng):
    """The base-p int of k draws rng.randrange(p), its coefficients."""
    return spec.pack([rng.randrange(spec.p) for _ in range(spec.k)])


def dot(spec, xs, ys):
    """sum of x * y over the pairs of base-p ints, on the scalar kernels."""
    return functools.reduce(spec.add, map(spec.mul, xs, ys), 0)


def as_rows(spec, values):
    """The (len(values), k) array of a list of base-p ints."""
    return np.array([spec.unpack(v) for v in values], dtype=spec.dtype)


def as_matrix(spec, rows):
    """The MatrixFq whose entries are the base-p ints of rows."""
    return MatrixFq(spec, np.array([[spec.unpack(v) for v in row] for row in rows], dtype=spec.dtype))


def random_algebra_element(G, spec, rng, density=1.0):
    coeffs = [random_scalar(spec, rng) if rng.random() < density else 0 for _ in range(G.order)]
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
    scaled = spec.mul_arrays(a.arr, np.array(spec.unpack(c), dtype=spec.dtype))
    assert np.array_equal(scaled, as_rows(spec, [spec.mul(x, c) for x, _ in pairs]))
    assert np.array_equal((a.arr + b.arr) % spec.p, as_rows(spec, [spec.add(x, y) for x, y in pairs]))
    assert np.array_equal((a.arr - b.arr) % spec.p, as_rows(spec, [spec.sub(x, y) for x, y in pairs]))


def random_array(spec, rng, shape):
    """A random array of the given shape + (k,) with entries reduced mod p."""
    count = int(np.prod(shape, dtype=np.int64)) * spec.k
    return np.array([rng.randrange(spec.p) for _ in range(count)], dtype=spec.dtype).reshape(shape + (spec.k,))


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2**32),
       shapes=st.sampled_from([((), ()), ((3,), ()), ((), (4,)), ((2, 1), (1, 3)), ((5,), (5,))]))
def test_mul_arrays_matches_field_elements(field, seed, shapes):
    spec = FIELDS[field]
    rng = random.Random(seed)
    a, b = random_array(spec, rng, shapes[0]), random_array(spec, rng, shapes[1])
    out = spec.mul_arrays(a, b)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    assert out.shape == shape + (spec.k,)
    a_b, b_b = np.broadcast_to(a, shape + (spec.k,)), np.broadcast_to(b, shape + (spec.k,))
    for idx in np.ndindex(shape):
        expected = spec.mul(spec.pack(a_b[idx].tolist()), spec.pack(b_b[idx].tolist()))
        assert tuple(out[idx].tolist()) == spec.unpack(expected)


def reference_products(lefts, b):
    """sum over h of a(h^-1) * b(h g) for each a in lefts, with h^-1 and h g
    looked up through G.index and each term a FieldSpec.mul of base-p
    values: no multiplication table, inversion array or array kernel."""
    G, spec = b.group, b.spec
    inverse = [G.index(h.inverse()) for h in G.elements]
    hg = [[G.index(h * g) for g in G.elements] for h in G.elements]
    bs = [spec.pack(c) for c in b.arr.tolist()]
    out = []
    for a in lefts:
        terms = [(spec.pack(x), hg[i]) for i, x in enumerate(a.arr[inverse].tolist()) if any(x)]
        row = [0] * G.order
        for j in range(G.order):
            for x, hg_i in terms:
                row[j] = spec.add(row[j], spec.mul(x, bs[hg_i[j]]))
        out.append([spec.unpack(v) for v in row])
    return out


@settings(max_examples=12, deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2**32), count=st.integers(1, 4),
       density=st.sampled_from([0.05, 0.3, 1.0]), rational=st.lists(st.booleans(), min_size=5, max_size=5))
@example(field=(13, 3), seed=0, count=3, density=1.0, rational=[True] * 5)
@example(field=(2**31 + 11, 2), seed=1, count=2, density=0.3, rational=[True] * 5)
@example(field=(11, 2), seed=2, count=2, density=1.0, rational=[True, True, False, True, True])
def test_batched_products_match_pairwise(sl32_s8, field, seed, count, density, rational):
    # rational[i]: factor i lies in F_p, as most idempotents do; cols asks
    # for the products at a few group elements only, as verify_split does
    # at the class representatives
    spec = FIELDS[field]
    rng = random.Random(seed)
    factors = [random_algebra_element(sl32_s8, spec, rng, density) for _ in range(count + 1)]
    for x, in_prime_field in zip(factors, rational):
        if in_prime_field:
            x.arr[:, 1:] = 0
    arrs = [x.arr for x in factors]
    expected = [[list(c) for c in row] for row in reference_products(factors[:-1], factors[-1])]
    out = _convolve(sl32_s8, spec, arrs, sl32_s8.mul_table())
    assert out.shape == (count, 168, spec.k)
    assert out.tolist() == expected
    cols = rng.sample(range(168), rng.randint(1, 8))
    out = _convolve(sl32_s8, spec, arrs, sl32_s8.mul_table()[:, cols])
    assert out.shape == (count, len(cols), spec.k)
    assert out.tolist() == [[row[g] for g in cols] for row in expected]


@pytest.mark.parametrize("field", CENTER_FIELDS, ids=lambda f: f"{f[0]}^{f[1]}")
@pytest.mark.parametrize("group", ["sl32_s8", "c7c3"])
def test_center_products_match_group_algebra(request, group, field):
    G = request.getfixturevalue(group)
    spec = make_field(*field, seed=0)
    Z = _CenterAlgebra(G, spec)
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
    Z = _CenterAlgebra(c7c3, spec)
    rng = random.Random(f"stack:{field}")
    u, v = random_array(spec, rng, (5, Z.m)), random_array(spec, rng, (5, Z.m))
    assert Z.mul(u, v).tolist() == [Z.mul(a, b).tolist() for a, b in zip(u, v)]
    assert Z.mul(u, v[0]).tolist() == [Z.mul(a, v[0]).tolist() for a in u]


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2**32))
def test_minpoly_annihilates_and_has_krylov_rank(field, seed):
    # A = c*I + (dim x r)(r x dim): minimal polynomials of degree up to r + 1
    spec = FIELDS[field]
    p = spec.p
    rng = random.Random(seed)
    dim, r = rng.randint(1, 7), rng.randint(0, 3)
    low = spec.mul_arrays(random_array(spec, rng, (dim, 1, r)), random_array(spec, rng, (1, dim, r))).sum(2) % p
    A = (low + np.eye(dim, dtype=spec.dtype)[:, :, None] * random_array(spec, rng, ())) % p

    def apply(w):
        return spec.mul_arrays(A, w[None]).sum(1) % p

    v = random_array(spec, rng, (dim,))
    m = minpoly(spec, apply, v)
    assert m.coeffs[-1] == 1  # monic
    krylov = [v]
    for _ in range(dim):
        krylov.append(apply(krylov[-1]))
    coeffs = np.array([spec.unpack(c) for c in m.coeffs], dtype=spec.dtype)
    assert coeffs.shape == (m.degree() + 1, spec.k)
    assert not (spec.mul_arrays(coeffs[:, None], np.stack(krylov[: m.degree() + 1])).sum(0) % p).any()
    assert m.degree() == MatrixFq(spec, np.stack(krylov, axis=1)).rank()


@pytest.mark.parametrize("field", [(11, 1), (2**31 + 11, 2)], ids=lambda f: f"{f[0]}^{f[1]}")
def test_minpoly_of_zero_vector_is_one(field):
    spec = FIELDS[field]
    zero = np.zeros((4, spec.k), dtype=spec.dtype)
    assert minpoly(spec, lambda w: w, zero) == Polynomial.one(spec)


def test_minpoly_jordan_block_over_large_extension():
    # A = J_2(a) + (b) on F_q^3 with a, b outside F_p and dtype object:
    # v = (0, 1, 1) has minimal polynomial (X - a)^2 (X - b)
    spec = FIELDS[(2**31 + 11, 2)]
    assert spec.dtype is object
    a, b = spec.pack([3, 2**31]), spec.pack([7, 5])
    arr_a, arr_b = (np.array(spec.unpack(c), dtype=object) for c in (a, b))

    def apply(w):
        return np.stack([(spec.mul_arrays(arr_a, w[0]) + w[1]) % spec.p,
                         spec.mul_arrays(arr_a, w[1]), spec.mul_arrays(arr_b, w[2])])

    v = np.array([[0, 0], [1, 0], [1, 0]], dtype=object)
    x = Polynomial.x(spec)
    root_a = x - Polynomial(spec, [a])
    expected = root_a * root_a * (x - Polynomial(spec, [b]))
    assert minpoly(spec, apply, v) == expected


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
            coeffs = coefficients(E)
            rows = [[coeffs[table[h][inv[g]]] for g in range(c7c3.order)] for h in range(c7c3.order)]
            assert _right_ideal_dimension(E, table) == reference_rank(spec, rows)


def _random_matrix(spec, rng, nrows, ncols, rank_cap):
    """The rows, as lists of base-p ints, of an nrows x ncols matrix of rank
    at most rank_cap: a product of random nrows x r and r x ncols factors,
    sometimes with one row copied over another."""
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
    """The row echelon form _eliminate leaves, up to congruence mod p, on
    lists of Python ints reduced at every step: first nonzero pivot, swapped
    up, scaled to 1."""
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


# the working dtype of each p once a matrix is narrowed, and the unreduced
# updates between two reductions of the trailing block in it,
# (2**(bits - 1) - 1 - p) // (p - 1)**2: 327 and 36 in int16 (p = 11, 31),
# 1657009 and 32 in int32 (p = 37, 8191), and in int64, which smaller
# matrices keep at every p < 2**31, about 9.2e16 at p = 11, 1.4e11 at 8209,
# 8 at 1073741789 and 2 at 2**31 - 1; from 2**31 up the arrays hold Python
# ints and every update is reduced.  The 40 x 40 worst case makes 39
# updates, so it passes the period at 31 and 8191 (narrowed) and at 2**31 - 1
WORKING_DTYPES = {11: np.int16, 31: np.int16, 37: np.int32, 8191: np.int32, 8209: np.int64,
                  1073741789: np.int64, 2**31 - 1: np.int64, 2**31 + 11: object}


@pytest.mark.parametrize("p", sorted(WORKING_DTYPES))
def test_delayed_reduction_leaves_the_reference_echelon_form(p, monkeypatch):
    rng = random.Random(p)
    dtype = np.int64 if p < 2**31 else object
    assert _working_dtype(np.zeros((1, _NARROW_MIN_ENTRIES), dtype=dtype), p) == WORKING_DTYPES[p]
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
    for narrow_from in (_NARROW_MIN_ENTRIES, 0):  # at 0 every case, however small, runs in p's working dtype
        monkeypatch.setattr("wedderburn.ffield._NARROW_MIN_ENTRIES", narrow_from)
        for rows, rank in cases:
            expected = reference_echelon(rows, p)
            if rank is None:
                rank = sum(map(any, expected))
            a = np.array(rows, dtype=dtype)
            w = _working_copy(a, p)
            assert w.dtype == (WORKING_DTYPES[p] if a.size >= narrow_from else dtype)
            assert _eliminate(w, p) == rank
            assert (w % p).tolist() == expected
            assert a.dtype == dtype and a.tolist() == rows  # the copy leaves a as it was


@pytest.mark.parametrize("p", [31, 37])
def test_blown_up_rank_in_each_working_dtype(p):
    # a 24 x 24 matrix over F_{p^2} with entries outside F_p blows up to
    # 48 x 48, which is eliminated in int16 at p = 31 and int32 at p = 37
    spec = make_field(p, 2, seed=0)
    rng = random.Random(p)
    left = [[random_scalar(spec, rng) for _ in range(17)] for _ in range(24)]
    right = [[random_scalar(spec, rng) for _ in range(24)] for _ in range(17)]
    rows = [[dot(spec, left[i], [right[t][j] for t in range(17)]) for j in range(24)] for i in range(24)]
    m = as_matrix(spec, rows)
    assert m.arr[..., 1:].any()
    assert _working_dtype(_blow_up(spec, m.arr), p) == WORKING_DTYPES[p]
    assert m.rank() == reference_rank(spec, rows) == 17


def full_reductions(monkeypatch, call):
    """call() with _reduce and _eliminate watched: the count of _reduce calls
    on an array of the eliminated shape before, during and after _eliminate."""
    events = []
    reduce, eliminate = ffield._reduce, ffield._eliminate

    def watched_reduce(x, p, out=None):
        events.append(x.shape)
        return reduce(x, p, out)

    def watched_eliminate(w, p):
        events.append("start")
        r = eliminate(w, p)
        events.append(("end", w.shape))
        return r

    monkeypatch.setattr(ffield, "_reduce", watched_reduce)
    monkeypatch.setattr(ffield, "_eliminate", watched_eliminate)
    result = call()
    shape = next(e for e in events if e[0] == "end")[1]
    start, end = events.index("start"), events.index(("end", shape))
    return result, tuple(sum(e == shape for e in part)
                         for part in (events[:start], events[start:end], events[end + 1:]))


@pytest.mark.parametrize("field, size, outside_fp", [
    ((11, 1), 5, False),
    ((11, 1), 48, False),  # narrowed to int16
    ((11, 2), 24, True),  # blown up to 48 x 48
    ((13, 3), 4, True),
    ((13, 3), 6, False),
    ((2**31 + 11, 2), 6, False),  # Python ints
])
def test_rank_reduces_the_whole_array_once(field, size, outside_fp, monkeypatch):
    # MatrixFq.rank reduces its working copy as it makes it, and nothing
    # reduces the whole array again, before the pivot loop or after it
    spec = FIELDS[field]
    rng = random.Random(size)
    if outside_fp:
        rows = [[random_scalar(spec, rng) for _ in range(size)] for _ in range(size)]
    else:
        rows = [[rng.randrange(spec.p) for _ in range(size)] for _ in range(size)]
    m = as_matrix(spec, rows)
    assert bool(m.arr[..., 1:].any()) == outside_fp
    rank, counts = full_reductions(monkeypatch, m.rank)
    assert rank == reference_rank(spec, rows)
    assert counts == (1, 0, 0)


@pytest.mark.parametrize("field, dim, dtype", [
    ((11, 1), 6, np.int64),  # a 6 x 7 Krylov matrix
    ((11, 1), 40, np.int16),  # 40 x 41, narrowed
    ((2**31 + 11, 2), 4, object),  # blown up to 8 x 10, Python ints
], ids=["11-6-int64", "11-40-int16", "2147483659^2-4-object"])
def test_minpoly_reduces_the_whole_array_once(field, dim, dtype, monkeypatch):
    # minpoly eliminates a working copy of its Krylov matrix, reduced as it
    # is made, and then reads only the pivot rows up to column kt
    spec = FIELDS[field]
    krylov_shape = (spec.k * dim, spec.k * (dim + 1))
    assert _working_dtype(np.zeros(krylov_shape, dtype=spec.dtype), spec.p) == dtype

    def cyclic_shift(w):
        return np.roll(w, 1, axis=0)

    v = np.zeros((dim, spec.k), dtype=spec.dtype)
    v[0, 0] = 1
    m, counts = full_reductions(monkeypatch, lambda: minpoly(spec, cyclic_shift, v))
    assert m == Polynomial(spec, [spec.p - 1] + [0] * (dim - 1) + [1])  # X^dim - 1
    assert counts == (1, 0, 0)


def test_rank_blows_up_entries_outside_fp():
    # diag(x, 1) over F_{13^3}: rank 2, though its constant coefficients
    # diag(0, 1) have rank 1
    spec = FIELDS[(13, 3)]
    x = spec.pack([0, 1, 0])
    m = as_matrix(spec, [[x, 0], [0, 1]])
    assert m.rank() == 2
    assert _eliminate(_working_copy(m.arr[..., 0], spec.p), spec.p) == 1


def test_rank_of_fp_entries_skips_the_blow_up(monkeypatch):
    spec = FIELDS[(13, 3)]
    rng = random.Random(13)
    rows = [[rng.randrange(spec.p) for _ in range(7)] for _ in range(3)]
    rows += [[spec.add(a, b) for a, b in zip(rows[0], rows[1])], rows[2]]
    m = as_matrix(spec, rows)
    expected = _eliminate(_working_copy(_blow_up(spec, m.arr), spec.p), spec.p) // spec.k
    assert expected == reference_rank(spec, rows) == 3

    def no_blow_up(*args):
        raise AssertionError("an F_p-valued matrix was blown up")

    monkeypatch.setattr("wedderburn.ffield._blow_up", no_blow_up)
    assert m.rank() == expected
