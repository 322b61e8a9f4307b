import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest

from wedderburn import (
    AlgebraElement,
    FiniteGroup,
    MatrixFq,
    ModularCaseError,
    Permutation,
    analytic_decomposition,
    cyclotomic_partition,
    generate,
    make_field,
    split_center,
    verify_split,
)
from wedderburn import cli, ffield, oracle
from wedderburn.cli import resolve_group
from wedderburn.oracle import _CenterAlgebra

from test_kernels import as_rows, random_scalar


@pytest.fixture(scope="module")
def split11(sl32_s8, f11):
    return split_center(sl32_s8, f11, seed=0)


def delta(G, spec, i):
    """The group element g_i as an element of F_q[G]."""
    out = AlgebraElement.zero(G, spec)
    out.arr[i, 0] = 1
    return out


def plus(a, b, sign=1):
    """a + sign * b in F_q[G], coefficient array by coefficient array."""
    return AlgebraElement(a.group, a.spec, (a.arr + sign * b.arr) % a.spec.p)


def test_multiply_unit_law(sl32_s8, f11):
    rng = random.Random(0)
    one = AlgebraElement.unit(sl32_s8, f11)
    assert one == delta(sl32_s8, f11, 0)
    x = AlgebraElement(sl32_s8, f11, as_rows(f11, [random_scalar(f11, rng) for _ in range(168)]))
    assert one * x == x
    assert x * one == x


def test_multiply_group_elements_follow_table(sl32_s8, f11):
    # delta_g * delta_h = delta_{gh}
    rng = random.Random(1)
    table = sl32_s8.mul_table()
    for _ in range(20):
        i, j = rng.randrange(168), rng.randrange(168)
        a = delta(sl32_s8, f11, i)
        b = delta(sl32_s8, f11, j)
        assert a * b == delta(sl32_s8, f11, table[i][j])


def test_multiply_rejects_mismatch(sl32_s8, s5, f11, f13):
    a = AlgebraElement.unit(sl32_s8, f11)
    with pytest.raises(ValueError):
        a * AlgebraElement.unit(s5, f11)
    with pytest.raises(ValueError):
        a * AlgebraElement.unit(sl32_s8, f13)


def class_sums(G, spec):
    """One class sum per conjugacy class, in class order."""
    sums = []
    for ci in range(len(G.classes)):
        s = AlgebraElement.zero(G, spec)
        s.arr[[i for i, cj in enumerate(G.class_index_of) if cj == ci], 0] = 1
        sums.append(s)
    return sums


def test_class_sums_are_central(sl32_s8, f11):
    sums = class_sums(sl32_s8, f11)
    assert len(sums) == 6
    deltas = [delta(sl32_s8, f11, sl32_s8.index(g)) for g in sl32_s8.generators]
    for s in sums:
        for d in deltas:
            assert s * d == d * s
    for a in sums:
        for b in sums:
            assert a * b == b * a


def test_all_ones_squared(sl32_s8, f11):
    # the sum of all group elements z satisfies z^2 = |G| * z
    z = AlgebraElement(sl32_s8, f11, np.ones((168, 1), dtype=f11.dtype))
    scaled = AlgebraElement(sl32_s8, f11, z.arr * 168 % f11.p)
    assert z * z == scaled
    assert scaled.arr[0].tolist() == [3]  # 168 = 3 mod 11


def test_split_f11(split11):
    assert split11.pairs() == ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1))
    assert sum(split11.block_dims) == 168
    assert verify_split(split11)


def test_split_f13(sl32_s8, f13):
    split = split_center(sl32_s8, f13, seed=0)
    assert split.pairs() == ((1, 1), (6, 1), (7, 1), (8, 1), (3, 2))
    assert verify_split(split)


def test_split_trivial_group(f11):
    G = generate([Permutation.identity(1)])
    split = split_center(G, f11)
    assert split.pairs() == ((1, 1),)
    assert verify_split(split)


def test_split_rejects_modular_case(sl32_s8):
    spec7 = make_field(7)
    with pytest.raises(ModularCaseError):
        split_center(sl32_s8, spec7)


def test_verify_rejects_corruption(sl32_s8, f11, split11):
    es = list(split11.idempotents)
    bad = es[2].arr.copy()
    bad[5, 0] = (bad[5, 0] + 1) % 11
    es[2] = AlgebraElement(sl32_s8, f11, bad)
    corrupted = type(split11)(idempotents=tuple(es), blocks=split11.blocks)
    assert not verify_split(corrupted)


def test_verify_checks_the_trace_congruence(split11, monkeypatch):
    # swap the dimensions of the 6x6 and 7x7 blocks: D = d*n^2 and the sum
    # still hold, and with the rank route stubbed to agree, only the trace
    # congruence D = |G| * e(1) mod p (36 and 49 differ mod 11) can tell
    assert split11.block_dims[3:5] == (36, 49)
    es = split11.idempotents

    def swap(t):
        return t[:3] + (t[4], t[3]) + t[5:]

    swapped = type(split11)(es, swap(split11.blocks))
    assert swapped.block_dims == swap(split11.block_dims)
    ranks_agree_with(swapped, monkeypatch)
    assert not verify_split(swapped)


def ranks_agree_with(split, monkeypatch):
    """Stub both rank routes of verify_split to agree with each block's
    claim: the Krylov certificate reaches every n*d it is asked for, and
    the full-rank fallback returns the claimed dimension."""
    claimed = dict(zip(map(id, split.idempotents), split.block_dims))
    monkeypatch.setattr(oracle, "_krylov_ranks", lambda G, spec, arrs, lengths, rng: list(lengths))
    monkeypatch.setattr(oracle, "_right_ideal_dimension", lambda e, table: claimed[id(e)])


def recording(monkeypatch, name):
    """Patch oracle.<name> to record each value it returns."""
    seen = []
    real = getattr(oracle, name)

    def wrapper(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(oracle, name, wrapper)
    return seen


def test_verify_rejects_a_rank_only_swap(split11, monkeypatch):
    # swap a 3x3 block (D = 9) with the 8x8 one (D = 64): D = d*n^2, the sum
    # and the center degree still hold, and so does the trace congruence,
    # as 9 = 64 mod 11.  Only the rank certificate can tell: the block that
    # claims n = 8 lies in M_3(F_11), where F_11[x] has dimension at most 3,
    # so its Krylov rank never reaches 8 in any draw, and its full rank is 9
    assert split11.block_dims[1] == 9 and split11.block_dims[5] == 64

    def swap(t):
        return (t[0], t[5]) + t[2:5] + (t[1],)

    swapped = dataclasses.replace(split11, blocks=swap(split11.blocks))
    with monkeypatch.context() as m:
        ranks_agree_with(swapped, m)
        assert verify_split(swapped)
    krylov = recording(monkeypatch, "_krylov_ranks")
    full = recording(monkeypatch, "_right_ideal_dimension")
    assert not verify_split(swapped)
    assert len(krylov) == oracle.KRYLOV_DRAWS
    assert krylov[0][0] == 1 and krylov[0][1] <= 3 and krylov[0][2:] == [3, 6, 7, 3]
    assert all(len(ranks) == 1 and ranks[0] <= 3 for ranks in krylov[1:])
    assert full == [9]


def test_verify_rejects_a_wrong_centre_degree(split11):
    # claim the 6x6 block as M_3 over F_{q^4}: D = 4 * 3^2 is still 36, so
    # the sum, the trace congruence and the dimension all hold, and only
    # the rank of e*Z, 1 and not 4, can tell
    assert split11.blocks[3] == (6, 1)
    claimed = dataclasses.replace(split11, blocks=split11.blocks[:3] + ((3, 4),) + split11.blocks[4:])
    assert claimed.block_dims == split11.block_dims
    assert not verify_split(claimed)


def test_verify_rejects_a_dimension_sum_before_any_rank(split11, monkeypatch):
    # claim the 6x6 block as 5x5: the D sum is 157, not |G| = 168.  The
    # trace congruence holds (36 = 25 mod 11) and so does the center degree,
    # so without the sum check verify would reach the Krylov certificate
    def krylov_ranks(*args):
        raise AssertionError("took a Krylov rank")

    monkeypatch.setattr(oracle, "_krylov_ranks", krylov_ranks)
    claimed = dataclasses.replace(split11, blocks=split11.blocks[:3] + ((5, 1),) + split11.blocks[4:])
    assert sum(claimed.block_dims) == 157
    assert not verify_split(claimed)


def no_full_rank(monkeypatch):
    def full_rank(E, table):
        raise AssertionError("verify_split fell back to a full rank")

    monkeypatch.setattr(oracle, "_right_ideal_dimension", full_rank)


# the seven fields of the sl32_oracle benchmark, then F_5 and F_169
SL32_FIELDS = ((11, 1), (13, 1), (17, 1), (23, 1), (29, 1), (11, 2), (13, 3), (5, 1), (13, 2))


@pytest.mark.parametrize("group", ["builtin:sl32-s8", "builtin:sl32-p2f2"])
def test_verify_takes_no_full_rank_on_good_splits(group, monkeypatch):
    # nor builds a full table, over fields below |G| and F_179 above it
    G = resolve_group(group)
    no_full_rank(monkeypatch)
    table_reads(monkeypatch, full_reads=False)
    for p, k in SL32_FIELDS + ((179, 1),):
        split = split_center(G, make_field(p, k, seed=0), seed=0)
        assert verify_split(split), (p, k)
        krylov_ranks_are_bounded_and_reached(split)


@pytest.mark.parametrize("p,k", [(11, 1), (13, 3)])
def test_short_draws_fall_back_to_one_full_rank_per_block(sl32_s8, p, k, monkeypatch):
    # every draw's Krylov ranks stubbed to 0: each block takes all
    # KRYLOV_DRAWS draws, asked for n*d vectors each time, then one full rank
    split = split_center(sl32_s8, make_field(p, k, seed=0), seed=0)
    draws = []
    monkeypatch.setattr(oracle, "_krylov_ranks",
                        lambda G, spec, arrs, lengths, rng: draws.append(list(lengths)) or [0] * len(lengths))
    full = recording(monkeypatch, "_right_ideal_dimension")
    assert verify_split(split)
    assert full == list(split.block_dims)
    assert draws == [[n * d for n, d in split.blocks]] * oracle.KRYLOV_DRAWS


@pytest.mark.parametrize("k", [1, 2])
def test_verify_rejects_two_blocks_claimed_as_one_over_a_wider_centre(sl32_s8, k, monkeypatch):
    # the two 3x3 blocks over F_11 or F_121, merged into one idempotent and
    # claimed as M_3(F_{q^2}): D = 18 = 9 + 9, the sum, the trace congruence
    # and the center degree 2 all hold, and F_q[x] reaches dimension 3 + 3 =
    # n*d on the product.  Only the field check can tell: e*Z is F_q x F_q,
    # where every minimal polynomial of degree 2k over F_p is reducible
    split = split_center(sl32_s8, make_field(11, k, seed=0), seed=0)
    i, j = [b for b, block in enumerate(split.blocks) if block == (3, 1)]
    merged = plus(split.idempotents[i], split.idempotents[j])
    rest = [b for b in range(len(split.blocks)) if b not in (i, j)]
    claimed = type(split)(tuple(split.idempotents[b] for b in rest) + (merged,),
                          tuple(split.blocks[b] for b in rest) + ((3, 2),))
    assert claimed.block_dims == (1, 36, 49, 64, 18) and sum(split.block_dims) == 168
    assert not verify_split(claimed)
    no_full_rank(monkeypatch)
    monkeypatch.setattr(_CenterAlgebra, "is_field", lambda Z, e, dim, rng: True)
    assert verify_split(claimed)


def test_verify_rejects_a_modular_group_algebra(monkeypatch):
    # F_5[C_5] is local: its one idempotent, claimed as the field F_{5^5},
    # passes the sum, the trace congruence (5 * 1 = 5 = 0 mod 5) and the
    # center degree; with both certificates stubbed to agree, only the check
    # that p does not divide |G| refuses it
    G = generate([Permutation([1, 2, 3, 4, 0])])
    f5 = make_field(5)
    claimed = oracle.CentralSplit((AlgebraElement.unit(G, f5),), ((1, 5),))
    ranks_agree_with(claimed, monkeypatch)
    monkeypatch.setattr(_CenterAlgebra, "is_field", lambda Z, e, dim, rng: True)
    assert not verify_split(claimed)


@pytest.mark.parametrize("field", [(2**31 - 1, 1), (2**61 - 1, 1), (2**31 + 11, 2)],
                         ids=lambda f: str(f[0]) if f[1] == 1 else f"{f[0]}^{f[1]}")
def test_krylov_steps_are_exact_near_int64_limits(c7c3, field):
    # below 2**31 a step sums its terms in chunks of 2; from 2**31 up the
    # arrays hold Python ints.  A wrapped sum would make the n*d + 1 vectors
    # of a block independent, above the bound
    krylov_ranks_are_bounded_and_reached(split_center(c7c3, make_field(*field, seed=0), seed=0))


def krylov_ranks_are_bounded_and_reached(split):
    """F_q[x] for x in M_n(F_{q^d}) has dimension at most n*d over F_q, the
    bound the certificate's proof rests on: on each block of a good split,
    n*d + 1 Krylov vectors never have rank above n*d, and every block
    reaches n*d within KRYLOV_DRAWS draws."""
    G, spec = split.idempotents[0].group, split.idempotents[0].spec
    lengths = [n * d for n, d in split.blocks]
    rng = random.Random(f"krylov-test:{spec.p}:{spec.k}:{G.order}")
    reached = set()
    for _ in range(oracle.KRYLOV_DRAWS):
        ranks = oracle._krylov_ranks(G, spec, [e.arr for e in split.idempotents], [r + 1 for r in lengths], rng)
        assert all(rank <= r for rank, r in zip(ranks, lengths)), (ranks, lengths)
        reached |= {b for b, (rank, r) in enumerate(zip(ranks, lengths)) if rank == r}
    assert reached == set(range(len(lengths)))


def test_verify_rejects_a_zero_idempotent(sl32_s8, f11, split11):
    # an extra zero block keeps the sum, orthogonality and idempotence; an
    # idempotent without a block must not be truncated away, and an
    # appended block (n, d) with n = 0 or d = 0, of dimension 0, must not pass
    es = split11.idempotents + (AlgebraElement.zero(sl32_s8, f11),)
    assert not verify_split(dataclasses.replace(split11, idempotents=es))
    for block in ((0, 0), (0, 1), (1, 0)):
        assert not verify_split(dataclasses.replace(split11, idempotents=es, blocks=split11.blocks + (block,)))


def counting_products(monkeypatch, seen_cols=None):
    """Record the number of left factors of each call of the product kernel,
    which AlgebraElement products and verify_split's batches share, from
    here on; given a list seen_cols, append to it the group indices of each
    call's table columns, the table's row 0, as g_0 is the identity."""
    calls = []
    convolve = oracle._convolve

    def counting(G, spec, arrs, table):
        calls.append(len(arrs) - 1)
        if seen_cols is not None:
            seen_cols.append(table[0].tolist())
        return convolve(G, spec, arrs, table)

    monkeypatch.setattr(oracle, "_convolve", counting)
    return calls


def test_verify_rejects_class_functions_that_are_not_orthogonal(split11, monkeypatch):
    # (2 e0, e1 - e0) are central and still sum to 1, but their product is
    # -2 e0 and neither is idempotent: the first product rejects them
    e0, e1 = split11.idempotents[:2]
    es = (plus(e0, e0), plus(e1, e0, -1)) + split11.idempotents[2:]
    calls = counting_products(monkeypatch)
    assert not verify_split(dataclasses.replace(split11, idempotents=es))
    assert len(calls) == 1


def test_verify_rejects_a_sum_preserving_non_central_change(sl32_s8, f11, split11, monkeypatch):
    # move one coefficient of a nontrivial class from e3 to e2: the sum is
    # still 1, but neither is constant on that class, which verify checks
    # before any product
    assert sl32_s8.classes[1].size > 1
    last = max(i for i, ci in enumerate(sl32_s8.class_index_of) if ci == 1)
    moved = delta(sl32_s8, f11, last)
    es = list(split11.idempotents)
    es[2], es[3] = plus(es[2], moved), plus(es[3], moved, -1)
    calls = counting_products(monkeypatch)
    assert not verify_split(dataclasses.replace(split11, idempotents=tuple(es)))
    assert not calls


def test_verify_rejects_a_missing_block_before_any_product(split11, monkeypatch):
    # the other blocks are still central, orthogonal and idempotent, but
    # their sum is not 1
    dropped = type(split11)(split11.idempotents[:-1], split11.blocks[:-1])
    calls = counting_products(monkeypatch)
    assert not verify_split(dropped)
    assert not calls


@pytest.mark.parametrize("position", [0, 3])
def test_verify_rejects_idempotents_of_another_field_or_group(sl32_s8, sl32_p2f2, f11, f13, split11, position,
                                                               monkeypatch):
    # one idempotent swapped in from the split over F_13, or from the split of
    # the other SL(3,2) action over F_11: False, with no product and no raise
    others = [split_center(sl32_s8, f13, seed=0), split_center(sl32_p2f2, f11, seed=0)]
    calls = counting_products(monkeypatch)
    for other in others:
        es = list(split11.idempotents)
        es[position] = other.idempotents[position]
        assert not verify_split(dataclasses.replace(split11, idempotents=tuple(es)))
    assert not calls


@pytest.mark.parametrize("p,products", [(11, 15), (13, 10)])
def test_verify_makes_one_product_per_pair_of_blocks(sl32_s8, p, products, monkeypatch):
    # m(m-1)/2 products for m blocks, 6 blocks over F_11 and 5 over F_13, in
    # m - 1 kernel calls: e_j against the stacked e_0, ..., e_(j-1)
    split = split_center(sl32_s8, make_field(p), seed=0)
    calls = counting_products(monkeypatch)
    assert verify_split(split)
    assert calls == list(range(1, len(split.idempotents)))
    assert sum(calls) == products


@pytest.mark.parametrize("p,k", [(11, 1), (13, 3)])
def test_verify_multiplies_only_at_class_representatives(sl32_s8, p, k, monkeypatch):
    # the e_i are class functions, so each e_i * e_j is central and verify
    # reads it at one representative per class, never at all of G
    split = split_center(sl32_s8, make_field(p, k, seed=0), seed=0)
    reps = [sl32_s8.index(c.representative) for c in sl32_s8.classes]
    seen = []
    counting_products(monkeypatch, seen)
    assert verify_split(split)
    assert len(reps) == len(sl32_s8.classes)
    assert seen == [reps] * (len(split.idempotents) - 1)


def test_split_ranks_each_center_block_once(sl32_s8, f11, q8, monkeypatch):
    # a block is ranked once, when a draw that does not generate its parent
    # splits it off, and a final block reuses that rank; verify_split ranks
    # every block again, on its own.  At seed 0 SL(3,2) over F_11 ranks
    # nothing (its first draw generates the center); S6 over F_7 and Q8
    # over F_5 rank the blocks of draws that do not generate
    seen = []
    rank = _CenterAlgebra.block_dimension

    def counting(self, e):
        seen.append(e.tobytes())
        return rank(self, e)

    monkeypatch.setattr(_CenterAlgebra, "block_dimension", counting)
    s6 = resolve_group(f"file:{GROUP_DIR / 's6.txt'}")
    for G, spec, ranks in [(sl32_s8, f11, False), (s6, make_field(7), True), (q8, make_field(5), True)]:
        seen.clear()
        split = split_center(G, spec, seed=0)
        assert bool(seen) == ranks
        assert len(seen) == len(set(seen))
        calls = len(seen)
        assert verify_split(split)
        assert len(seen) == calls + len(split.idempotents)


def test_split_makes_the_class_products_of_each_factor_once(sl32_s8, f11, monkeypatch):
    # SL(3,2) over F_11 at seed 0: the first draw generates the 6-dimensional
    # center.  The draw's class products serve all six Krylov steps of the
    # matrix minpoly reads, whose vectors the six idempotents are combined
    # from; e_1 .. e_5
    # are each checked orthogonal to the stacked idempotents before them;
    # and the six are lifted mod 11^3 > 168 together, in two Newton steps of
    # two stacked products
    factors = []  # the shape of each right factor whose class products are made
    combined = []  # the shape of each combination's coefficients
    mul_classes, combine = _CenterAlgebra._mul_classes, _CenterAlgebra._combine

    def recording_classes(self, v):
        factors.append(v.shape)
        return mul_classes(self, v)

    def recording_combine(self, coeffs, rows):
        combined.append(coeffs.shape)
        return combine(self, coeffs, rows)

    monkeypatch.setattr(_CenterAlgebra, "_mul_classes", recording_classes)
    monkeypatch.setattr(_CenterAlgebra, "_combine", recording_combine)
    split_center(sl32_s8, f11, seed=0)
    assert factors == [(6, 1)] * 6 + [(6, 6, 1)] * 4
    assert combined == [(6, 1)] * 6 + [(6, 6, 1)] + [(b, 6, 1) for b in range(1, 6)] + [(6, 6, 1)] * 4


GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"
C15 = f"file:{GROUP_DIR / 'c15.txt'}"


@pytest.mark.parametrize("group,p,k,ranks", [("builtin:sl32-s8", 11, 1, False), ("builtin:sl32-s8", 13, 3, False),
                                             (f"file:{GROUP_DIR / 's6.txt'}", 7, 1, True)],
                         ids=["sl32-F11", "sl32-F13^3", "s6-F7"])
def test_split_ranks_only_center_matrices(group, p, k, ranks, monkeypatch):
    # every rank split_center takes is of an m x m center matrix; block
    # dimensions come from the lifted trace, not from ranks of |G| x |G|
    # matrices or their submatrices.  Over F_11 and F_13 the first draw
    # generates the center of SL(3,2), so every block's degree is read off
    # its factor and no rank is taken (over F_{13^3} no block is refined
    # again); over F_7 S6 still ranks the blocks of splits by draws that do
    # not generate
    G = resolve_group(group)
    rows = []
    rank = MatrixFq.rank

    def recording(self):
        rows.append(self.nrows)
        return rank(self)

    monkeypatch.setattr(MatrixFq, "rank", recording)
    split_center(G, make_field(p, k, seed=0), seed=0)
    assert max(rows, default=0) <= len(G.classes)
    assert bool(rows) == ranks


def test_lifted_dims_that_miss_the_order_are_an_internal_error(sl32_s8, f11, monkeypatch, capsys):
    real = oracle._lifted_block_dims

    def off_by_a_block(G, spec, idempotents):
        dims = real(G, spec, idempotents)
        return [4 if D == 1 else D for D in dims]  # still d * n^2, but the sum misses |G|

    monkeypatch.setattr(oracle, "_lifted_block_dims", off_by_a_block)
    with pytest.raises(AssertionError, match="do not sum to"):
        split_center(sl32_s8, f11, seed=0)
    code = cli.main(["oracle", "--p", "11"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: internal check failed: block dimensions do not sum to")


def test_refinement_stops_at_a_certified_block(f11, monkeypatch):
    # C15 over F_11 has ten blocks: one factorization decides every split
    # and certificate, as the first draw generates the 15-dimensional center
    # and each block's degree is read off its factor.  Trying the class sums
    # before the draws took 12, searching on after a certificate 85
    calls = []
    real = oracle.factor

    def counting(mu, seed=0):
        calls.append(mu.degree())
        return real(mu, seed=seed)

    monkeypatch.setattr(oracle, "factor", counting)
    split = split_center(resolve_group(C15), f11, seed=0)
    assert len(split.idempotents) == 10
    assert calls == [15]


@pytest.mark.parametrize("p,k,refined", [(11, 2, []), (13, 3, []), (13, 2, [4, 2, 2])])
def test_extension_refines_only_blocks_whose_degree_shares_a_factor_with_k(sl32_s8, p, k, refined, monkeypatch):
    # SL(3,2) over F_p has center degrees 1, and a 2 for p = 13: over F_q
    # only the d = 2 block at even k is refined again, into two of degree 1.
    # The F_q stage counts dimensions over F_p, k times those over F_q, and
    # factors only over F_p
    factored = []  # extension degree of each factored polynomial's field
    blocks = []  # F_p-dimension of the center of each block refined over F_q, then of the blocks it yields
    real_factor, real_refine = oracle.factor, oracle._try_refine

    def counting_factor(mu, seed=0):
        factored.append(mu.spec.k)
        return real_factor(mu, seed=seed)

    def recording_refine(Z, e, dim, rng, seed):
        done, todo = real_refine(Z, e, dim, rng, seed)
        if Z.spec.k > 1:
            blocks.extend([dim] + [d for _, d in done + todo])
        return done, todo

    monkeypatch.setattr(oracle, "factor", counting_factor)
    monkeypatch.setattr(oracle, "_try_refine", recording_refine)
    split_center(sl32_s8, make_field(p, k, seed=0), seed=0)
    assert blocks == refined
    assert set(factored) == {1}


def test_minpoly_steps_are_bounded_by_the_block_dimension(sl32_s8, f169, monkeypatch):
    # over F_169 the F_q stage refines SL(3,2)'s d = 2 block, whose center
    # has dimension 2 over F_q and 4 over F_p: its Krylov matrix holds 4
    # steps on the (m * k, 1) = (12, 1) columns, 12 x 5, not 12 x 13
    shapes = []  # the shape of each Krylov matrix minpoly reads
    real = oracle.minpoly

    def recording(spec, krylov):
        shapes.append(krylov.shape)
        return real(spec, krylov)

    monkeypatch.setattr(oracle, "minpoly", recording)
    split_center(sl32_s8, f169, seed=0)
    assert [shape for shape in shapes if shape[0] == 12] == [(12, 5)]


def test_exhausted_draws_are_an_internal_error(sl32_s8, f11, monkeypatch, capsys):
    # a block that no draw splits or certifies is a bug, not an input error
    monkeypatch.setattr(oracle, "MAX_RANDOM_DRAWS", 0)
    with pytest.raises(RuntimeError, match=r"^failed to split or certify a center block \(bug\)$"):
        split_center(sl32_s8, f11, seed=0)
    code = cli.main(["oracle", "--p", "11"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: internal check failed: failed to split or certify a center block (bug)\n"


# the zoo benchmark's groups, each with a prime below and a prime above its order
ZOO_PRIMES = (("c15", 11, 17), ("q8", 5, 11), ("d10", 7, 31), ("a4", 5, 13), ("s4", 7, 29), ("c7c3", 11, 43),
              ("a5", 7, 61), ("s5", 13, 127), ("psl27", 13, 179), ("a6", 11, 367), ("s6", 11, 727))
READ_OFF_CASES = ([(f"file:{GROUP_DIR / name}.txt", p, 1) for name, *primes in ZOO_PRIMES for p in primes]
                  + [("builtin:sl32-s8", p, k) for p, k in SL32_FIELDS[:7] + ((13, 2), (5, 8))])


@pytest.mark.parametrize("group,p,k", READ_OFF_CASES,
                         ids=[f"{Path(g).stem if g.startswith('file:') else 'sl32'}-F{p}^{k}" for g, p, k in READ_OFF_CASES])
def test_block_degrees_are_the_ranks_of_their_centers(group, p, k):
    # a block's d is read off a factor of a minimal polynomial without a rank
    # only when that polynomial's degree is the dimension of the center it
    # split; every d must still be the rank of its e*Z, on every seed's path
    G = resolve_group(group)
    reps = [c.index for c in G.classes]
    for seed in range(4):
        spec = make_field(p, k, seed=seed)
        split = split_center(G, spec, seed=seed)
        Z = _CenterAlgebra(G.class_product_coefficients(), spec)
        assert [d for _, d in split.blocks] == [Z.block_dimension(e.arr[reps]) for e in split.idempotents], seed


def test_repeated_factor_of_a_minimal_polynomial_is_an_internal_error(sl32_s8, f11, monkeypatch, capsys):
    def squared(mu, seed=0):
        return [(mu, 2)]

    monkeypatch.setattr(oracle, "factor", squared)
    with pytest.raises(AssertionError, match="non-squarefree"):
        split_center(sl32_s8, f11, seed=0)
    code = cli.main(["oracle", "--group", C15, "--p", "11"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: internal check failed: non-squarefree")


def test_split_f5_type2(sl32_s8):
    f5 = make_field(5)
    split = split_center(sl32_s8, f5, seed=0)
    assert split.pairs() == ((1, 1), (6, 1), (7, 1), (8, 1), (3, 2))
    assert verify_split(split)


def test_split_agrees_with_analytic_and_cyclo(sl32_s8, sl32_p2f2):
    actions = [sl32_s8, sl32_p2f2]
    for p, k in ((11, 1), (13, 1), (5, 1), (13, 2)):
        spec = make_field(p, k, seed=0)
        split = split_center(sl32_s8, spec, seed=0)
        rep = analytic_decomposition(sl32_s8, p, k, actions)
        assert rep.unique
        assert split.pairs() == rep.solutions[0], (p, k)
        orbits = cyclotomic_partition(sl32_s8, p, k)
        assert len(split.idempotents) == len(orbits)
        assert sorted(d for _, d in split.blocks) == sorted(len(o) for o in orbits)


def test_split_modulus_independence(sl32_s8):
    spec_a = make_field(13, 2, seed=0)
    spec_b = make_field(13, 2, seed=1)
    assert spec_a.modulus != spec_b.modulus
    split_a = split_center(sl32_s8, spec_a, seed=0)
    split_b = split_center(sl32_s8, spec_b, seed=0)
    assert split_a.pairs() == split_b.pairs() == ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1))


def test_split_deterministic_for_fixed_seed(sl32_s8, f13):
    a = split_center(sl32_s8, f13, seed=3)
    b = split_center(sl32_s8, f13, seed=3)
    assert [e.arr.tolist() for e in a.idempotents] == [e.arr.tolist() for e in b.idempotents]


def test_split_s5(s5, f11):
    # independent of the analytic route, which cannot pin S5 uniquely:
    # the true block structure of F_11[S5] comes out of the explicit algebra
    split = split_center(s5, f11, seed=0)
    assert split.pairs() == ((1, 1), (1, 1), (4, 1), (4, 1), (5, 1), (5, 1), (6, 1))
    assert verify_split(split)


# the zoo groups of bench/workloads.py, each at its two primes
ZOO_PRIMES = {"c15": (11, 17), "q8": (5, 11), "d10": (7, 31), "a4": (5, 13), "s4": (7, 29),
              "c7c3": (11, 43), "a5": (7, 61), "s5": (13, 127), "psl27": (13, 179),
              "a6": (11, 367), "s6": (11, 727)}


@pytest.mark.parametrize("name,p", [(name, p) for name, ps in ZOO_PRIMES.items() for p in ps])
def test_verify_split_on_the_zoo(name, p, monkeypatch):
    # every block dimension is proved by the Krylov certificate, and no
    # full table is built, at a prime below |G| and one above it
    G = resolve_group(f"file:{GROUP_DIR / (name + '.txt')}")
    split = split_center(G, make_field(p), seed=0)
    no_full_rank(monkeypatch)
    table_reads(monkeypatch, full_reads=False)
    assert verify_split(split)
    krylov_ranks_are_bounded_and_reached(split)


def plain_int_pairs(blocks) -> bool:
    return all(len(b) == 2 and type(b[0]) is int and type(b[1]) is int for b in blocks)


@pytest.mark.parametrize("name,p", [(name, p) for name, ps in ZOO_PRIMES.items() for p in ps])
def test_split_blocks_are_an_analytic_candidate_on_the_zoo(name, p):
    # both pipelines give the block multiset as plain (n, d) int pairs: the
    # split's is the analytic answer where that is unique, else one of its candidates
    G = resolve_group(f"file:{GROUP_DIR / (name + '.txt')}")
    blocks = split_center(G, make_field(p), seed=0).pairs()
    rep = analytic_decomposition(G, p, 1, [G])
    assert plain_int_pairs(blocks)
    assert all(plain_int_pairs(dec) for dec in rep.solutions)
    if rep.unique:
        assert blocks == rep.solutions[0]
    else:
        assert blocks in rep.solutions


def table_reads(monkeypatch, full_reads=True):
    """Record the stop of each FiniteGroup.mul_table call from here on; with
    full_reads False, a read of the whole table raises."""
    stops = []
    real = FiniteGroup.mul_table

    def reading(self, stop=None):
        stops.append(stop)
        if stop is None and not full_reads:
            raise AssertionError("read the whole multiplication table")
        return real(self, stop)

    monkeypatch.setattr(FiniteGroup, "mul_table", reading)
    return stops


SPLIT_READS = [(f"file:{GROUP_DIR / (name + '.txt')}", p) for name, ps in ZOO_PRIMES.items() for p in ps] + [
    (f"builtin:{name}", p) for name in ("sl32-s8", "sl32-p2f2") for p in (13, 179)]


@pytest.mark.parametrize("group,p", SPLIT_READS, ids=[f"{Path(g).stem}-F{p}" for g, p in SPLIT_READS])
def test_split_reads_the_table_only_up_to_the_last_representative(group, p, monkeypatch):
    # the class constants are the split's one use of the table, and they
    # read its columns at the class representatives, each first-seen; a
    # fresh copy of the group has no class constants cached
    G = FiniteGroup(resolve_group(group).generators)
    stops = table_reads(monkeypatch, full_reads=False)
    split_center(G, make_field(p), seed=0)
    assert stops == [max(G.index(c.representative) for c in G.classes) + 1]


@pytest.mark.parametrize("p,k", [(11, 1), (13, 3)])
def test_verify_reads_the_full_table_once(sl32_s8, p, k, monkeypatch):
    # a good split reads no table: the products and the Krylov steps build
    # their own columns.  Blocks that fall back to the full rank share one
    # table per call
    split = split_center(sl32_s8, make_field(p, k, seed=0), seed=0)
    stops = table_reads(monkeypatch)
    assert verify_split(split)
    assert stops == []
    monkeypatch.setattr(oracle, "_krylov_ranks", lambda G, spec, arrs, lengths, rng: [0] * len(lengths))
    assert verify_split(split)
    assert stops == [None]


def test_algebra_element_keeps_its_array(sl32_s8, f11):
    # the constructor keeps an array of shape (|G|, k) as it is
    arr = as_rows(f11, [5] * sl32_s8.order)
    a = AlgebraElement(sl32_s8, f11, arr)
    assert a.arr is arr and a.group is sl32_s8 and a.spec is f11
    assert a.arr.shape == (sl32_s8.order, 1) and (a.arr == 5).all()
    for shape in ((sl32_s8.order - 1, 1), (sl32_s8.order, 2), (sl32_s8.order,)):
        with pytest.raises(ValueError):
            AlgebraElement(sl32_s8, f11, np.zeros(shape, dtype=f11.dtype))
    with pytest.raises(ValueError):
        AlgebraElement(sl32_s8, f11, arr.astype(object))


SPLIT_FIELDS = [("builtin:sl32-s8", 11, 1), ("builtin:sl32-s8", 13, 2), ("builtin:sl32-s8", 13, 3),
                ("builtin:sl32-s8", 2**31 + 11, 1), (f"file:{GROUP_DIR / 's6.txt'}", 7, 1)]


@pytest.mark.parametrize("group,p,k", SPLIT_FIELDS,
                         ids=["sl32-F11", "sl32-F13^2", "sl32-F13^3", "sl32-F2^31+11", "s6-F7"])
def test_split_and_verify_across_fields(group, p, k, monkeypatch):
    # the split and its check run on ints and arrays.  Over F_{13^2} the
    # d = 2 block is refined again on the center over F_q, of dimension 4
    # over F_13, whose minimal polynomial is the product of two irreducibles
    # of degree 2: Berlekamp's basis over F_13 has two vectors there.
    G = resolve_group(group)
    spec = make_field(p, k, seed=0)
    calls = []  # (p, deg f, basis size) of each _berlekamp_basis call
    degrees = set()  # the extension degree of each call's field
    real_basis = ffield._berlekamp_basis

    def recording_basis(f):
        basis = real_basis(f)
        calls.append((f.spec.p, f.degree(), len(basis)))
        degrees.add(f.spec.k)
        return basis

    monkeypatch.setattr(ffield, "_berlekamp_basis", recording_basis)
    assert verify_split(split_center(G, spec, seed=0))
    assert degrees <= {1}
    if (p, k) == (13, 2):
        assert (13, 4, 2) in calls
