import dataclasses
import hashlib
import random
import tracemalloc
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
    parse_cycles,
    split_center,
    verify_split,
)
from wedderburn import cli, ffield, oracle
from wedderburn.cli import resolve_group
from wedderburn.oracle import _CenterAlgebra

from closed_forms import cyclic_blocks, cyclic_group
from test_kernels import as_rows, random_scalar


@pytest.fixture(scope="module")
def split11(sl32_s8, f11):
    return split_center(sl32_s8, f11, seed=0)


def delta(G, spec, i):
    """The group element g_i as an element of F_q[G]."""
    out = AlgebraElement.zero(G, spec)
    out.arr[i, 0] = 1
    return out


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


def test_verify_rejects_corruption(split11):
    bad = split11.idempotents.copy()
    bad[2, 5, 0] = (bad[2, 5, 0] + 1) % 11
    assert not verify_split(dataclasses.replace(split11, idempotents=bad))


def test_verify_checks_the_trace_congruence(split11, monkeypatch):
    # swap the dimensions of the 6x6 and 7x7 blocks: D = d*n^2 and the sum
    # still hold, and with the rank route stubbed to agree, only the trace
    # congruence D = |G| * e(1) mod p (36 and 49 differ mod 11) can tell
    assert split11.block_dims[3:5] == (36, 49)

    def swap(t):
        return t[:3] + (t[4], t[3]) + t[5:]

    swapped = dataclasses.replace(split11, blocks=swap(split11.blocks))
    assert swapped.block_dims == swap(split11.block_dims)
    ranks_agree_with(swapped, monkeypatch)
    assert not verify_split(swapped)


def ranks_agree_with(split, monkeypatch):
    """Stub verify_split's rank route to agree with each block's claim: the
    Krylov certificate reaches every n*d it is asked for."""
    monkeypatch.setattr(oracle, "_krylov_ranks", lambda G, spec, arrs, lengths, rng: list(lengths))


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
    # so its Krylov rank never reaches 8 in any draw, and verify rejects it
    # after its draws without reading the whole table
    assert split11.block_dims[1] == 9 and split11.block_dims[5] == 64

    def swap(t):
        return (t[0], t[5]) + t[2:5] + (t[1],)

    swapped = dataclasses.replace(split11, blocks=swap(split11.blocks))
    with monkeypatch.context() as m:
        ranks_agree_with(swapped, m)
        assert verify_split(swapped)
    krylov = recording(monkeypatch, "_krylov_ranks")
    reads = table_reads(monkeypatch)
    assert not verify_split(swapped)
    assert len(krylov) == oracle.KRYLOV_DRAWS
    assert krylov[0][0] == 1 and krylov[0][1] <= 3 and krylov[0][2:] == [3, 6, 7, 3]
    assert all(len(ranks) == 1 and ranks[0] <= 3 for ranks in krylov[1:])
    assert len(reads) == oracle.KRYLOV_DRAWS and None not in reads


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


GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"
# the zoo groups of bench/workloads.py, each at its two primes, one below and one above its order
ZOO_PRIMES = {"c15": (11, 17), "q8": (5, 11), "d10": (7, 31), "a4": (5, 13), "s4": (7, 29),
              "c7c3": (11, 43), "a5": (7, 61), "s5": (13, 127), "psl27": (13, 179),
              "a6": (11, 367), "s6": (11, 727)}
# the seven fields of the sl32_oracle benchmark, then F_5 and F_169
SL32_FIELDS = ((11, 1), (13, 1), (17, 1), (23, 1), (29, 1), (11, 2), (13, 3), (5, 1), (13, 2))
# both SL(3,2) actions over fields below |G| and F_179 above it, and the zoo at its primes
GOOD_SPLITS = {"builtin:sl32-s8": SL32_FIELDS + ((179, 1),), "builtin:sl32-p2f2": SL32_FIELDS + ((179, 1),),
               **{name: tuple((p, 1) for p in ps) for name, ps in ZOO_PRIMES.items()}}


@pytest.mark.parametrize("group", GOOD_SPLITS)
def test_verify_takes_no_full_rank_on_good_splits(group, monkeypatch):
    # nor builds a full table: a good split that ran out of draws would be
    # rejected, so every block must reach n*d within KRYLOV_DRAWS draws
    G = resolve_group(group if group.startswith("builtin:") else f"file:{GROUP_DIR / group}.txt")
    table_reads(monkeypatch, full_reads=False)
    for p, k in GOOD_SPLITS[group]:
        split = split_center(G, make_field(p, k, seed=0), seed=0)
        assert verify_split(split), (p, k)
        krylov_ranks_are_bounded_and_reached(split)


@pytest.mark.parametrize("p,k", [(11, 1), (13, 3)])
def test_verify_rejects_a_block_short_after_its_draws(sl32_s8, p, k, monkeypatch):
    # every draw's Krylov ranks stubbed to 0: each block takes all
    # KRYLOV_DRAWS draws, asked for n*d vectors each time, and verify then
    # rejects the split without reading the whole table
    split = split_center(sl32_s8, make_field(p, k, seed=0), seed=0)
    draws = []
    monkeypatch.setattr(oracle, "_krylov_ranks",
                        lambda G, spec, arrs, lengths, rng: draws.append(list(lengths)) or [0] * len(lengths))
    table_reads(monkeypatch, full_reads=False)
    assert not verify_split(split)
    assert draws == [[n * d for n, d in split.blocks]] * oracle.KRYLOV_DRAWS


@pytest.mark.parametrize("k", [1, 2])
def test_verify_rejects_two_blocks_claimed_as_one_over_a_wider_centre(sl32_s8, k, monkeypatch):
    # the two 3x3 blocks over F_11 or F_121, merged into one idempotent and
    # claimed as M_3(F_{q^2}): D = 18 = 9 + 9, the sum, the trace congruence
    # and the center degree 2 all hold, and F_q[x] reaches dimension 3 + 3 =
    # n*d on the product.  Only the field check can tell: e*Z is F_q x F_q,
    # where every minimal polynomial of degree 2k over F_p is reducible
    split = split_center(sl32_s8, make_field(11, k, seed=0), seed=0)
    es = split.idempotents
    i, j = [b for b, block in enumerate(split.blocks) if block == (3, 1)]
    rest = [b for b in range(len(split.blocks)) if b not in (i, j)]
    claimed = dataclasses.replace(split, idempotents=np.concatenate([es[rest], [(es[i] + es[j]) % 11]]),
                                  blocks=tuple(split.blocks[b] for b in rest) + ((3, 2),))
    assert claimed.block_dims == (1, 36, 49, 64, 18) and sum(split.block_dims) == 168
    assert not verify_split(claimed)
    table_reads(monkeypatch, full_reads=False)
    certifies_every_field(monkeypatch)
    assert verify_split(claimed)


def certifies_every_field(monkeypatch):
    """Stub the refinement step, which verify_split runs as its field check,
    to certify every block it is given as one field."""
    monkeypatch.setattr(oracle, "_try_refine", lambda Z, e, dim, rng: ([(e, dim)], []))


def test_verify_rejects_a_modular_group_algebra(monkeypatch):
    # F_5[C_5] is local: its one idempotent, claimed as the field F_{5^5},
    # passes the sum, the trace congruence (5 * 1 = 5 = 0 mod 5) and the
    # center degree; with both certificates stubbed to agree, only the check
    # that p does not divide |G| refuses it
    G = generate([Permutation([1, 2, 3, 4, 0])])
    f5 = make_field(5)
    claimed = oracle.CentralSplit(G, f5, AlgebraElement.unit(G, f5).arr[None], ((1, 5),))
    ranks_agree_with(claimed, monkeypatch)
    certifies_every_field(monkeypatch)
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
    reaches n*d within KRYLOV_DRAWS draws.  Each draw's ranks, taken on a
    sample of coordinates, are those of the full vectors: the same draw
    again, from a copy of the stream, with a sample as large as |G|."""
    G, spec = split.group, split.spec
    lengths = [n * d for n, d in split.blocks]
    rng = random.Random(f"krylov-test:{spec.p}:{spec.k}:{G.order}")
    reached = set()
    for _ in range(oracle.KRYLOV_DRAWS):
        copy = random.Random()
        copy.setstate(rng.getstate())
        ranks = oracle._krylov_ranks(G, spec, split.idempotents, [r + 1 for r in lengths], rng)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(oracle, "_SAMPLE_SLACK", G.order)
            assert oracle._krylov_ranks(G, spec, split.idempotents, [r + 1 for r in lengths], copy) == ranks
        assert copy.getstate() == rng.getstate()
        assert all(rank <= r for rank, r in zip(ranks, lengths)), (ranks, lengths)
        reached |= {b for b, (rank, r) in enumerate(zip(ranks, lengths)) if rank == r}
    assert reached == set(range(len(lengths)))


def test_verify_rejects_a_zero_idempotent(split11):
    # an extra zero block keeps the sum, orthogonality and idempotence; an
    # idempotent without a block must not be truncated away, and an
    # appended block (n, d) with n = 0 or d = 0, of dimension 0, must not pass
    es = np.concatenate([split11.idempotents, np.zeros_like(split11.idempotents[:1])])
    assert not verify_split(dataclasses.replace(split11, idempotents=es))
    for block in ((0, 0), (0, 1), (1, 0)):
        assert not verify_split(dataclasses.replace(split11, idempotents=es, blocks=split11.blocks + (block,)))


def counting_ranks(monkeypatch):
    """Record each call of verify_split's work after its sum checks from
    here on, by name: a rank of a block center (block_dimension) and a draw
    of Krylov ranks (_krylov_ranks).  A split made before the call is not
    counted."""
    calls = []
    rank, krylov = _CenterAlgebra.block_dimension, oracle._krylov_ranks

    def counting_rank(self, e):
        calls.append("block_dimension")
        return rank(self, e)

    def counting_krylov(*args):
        calls.append("_krylov_ranks")
        return krylov(*args)

    monkeypatch.setattr(_CenterAlgebra, "block_dimension", counting_rank)
    monkeypatch.setattr(oracle, "_krylov_ranks", counting_krylov)
    return calls


def test_verify_rejects_class_functions_that_are_not_orthogonal(split11, monkeypatch):
    # (2 e0, e1 - e0) are central and still sum to 1, but their product is
    # -2 e0 and neither is idempotent.  The blocks and their sums are
    # unchanged, and the trace congruence of the trivial block, 168 * 2 e0(1)
    # = 2 != 1 mod 11, rejects them before any rank
    es = split11.idempotents.copy()
    es[:2] = 2 * es[0] % 11, (es[1] - es[0]) % 11
    assert split11.blocks[0] == (1, 1) and (168 * int(es[0, 0, 0]) - 1) % 11
    calls = counting_ranks(monkeypatch)
    assert not verify_split(dataclasses.replace(split11, idempotents=es))
    assert not calls


def test_verify_rejects_four_quarters_of_a_block(split11, monkeypatch):
    # the (6, 1) block's e replaced by four copies of e/4, each claiming
    # (3, 1): central and summing to 1, their D, 4 * 9 = 36, keep the sum
    # 168, and each copy passes the trace congruence, 36/4 = 9, and has rank
    # 1 on Z.  Only the count of center dimensions, d = 1 for the five other
    # blocks and the four copies, 9 != 6 classes, rejects them, before any
    # rank; each copy generates the 36-dimensional ideal, so its Krylov rank
    # would reach 3
    G = split11.group
    assert split11.blocks[3] == (6, 1)
    quarter = split11.idempotents[3] * pow(4, -1, 11) % 11
    es = np.concatenate([np.delete(split11.idempotents, 3, axis=0), [quarter] * 4])
    blocks = tuple(b for i, b in enumerate(split11.blocks) if i != 3) + ((3, 1),) * 4
    Z = _CenterAlgebra(G.class_product_coefficients(), split11.spec)
    assert Z.block_dimension(quarter[[c.index for c in G.classes]]) == 1
    assert (168 * int(quarter[0, 0]) - 9) % 11 == 0
    assert sum(d * n * n for n, d in blocks) == 168 and sum(d for _, d in blocks) == 9
    calls = counting_ranks(monkeypatch)
    assert not verify_split(dataclasses.replace(split11, idempotents=es, blocks=blocks))
    assert not calls


def test_verify_rejects_a_sum_preserving_non_central_change(sl32_s8, split11, monkeypatch):
    # move one coefficient of a nontrivial class from e3 to e2: the sum is
    # still 1, but neither is constant on that class, which verify checks
    # before any rank
    assert sl32_s8.classes[1].size > 1
    last = max(i for i, ci in enumerate(sl32_s8.class_index_of) if ci == 1)
    es = split11.idempotents.copy()
    es[2:4, last, 0] = (es[2:4, last, 0] + [1, -1]) % 11
    calls = counting_ranks(monkeypatch)
    assert not verify_split(dataclasses.replace(split11, idempotents=es))
    assert not calls


def test_verify_rejects_a_missing_block_before_any_product(split11, monkeypatch):
    # the other blocks are still central, orthogonal and idempotent, but
    # their sum is not 1: rejected before any rank or product
    dropped = dataclasses.replace(split11, idempotents=split11.idempotents[:-1], blocks=split11.blocks[:-1])
    calls = counting_ranks(monkeypatch)
    assert not verify_split(dropped)
    assert not calls


@pytest.mark.parametrize("position", [0, 3])
def test_verify_rejects_idempotents_of_another_field_or_group(sl32_s8, sl32_p2f2, f11, f13, split11, position,
                                                               monkeypatch):
    # one idempotent's row swapped in from the split over F_13, or from the
    # split of the other SL(3,2) action over F_11: False, with no rank and
    # no raise.  The one row that does not change the split is row 0 of the
    # other action: the trivial block's idempotent, 1/|G| times the sum of
    # the group, is the same array in every group algebra of order 168 over
    # F_11, so verify accepts it
    over_f13, other_action = split_center(sl32_s8, f13, seed=0), split_center(sl32_p2f2, f11, seed=0)
    calls = counting_ranks(monkeypatch)
    for other in (over_f13, other_action):
        calls.clear()
        es = split11.idempotents.copy()
        es[position] = other.idempotents[position]
        unchanged = np.array_equal(es, split11.idempotents)
        assert unchanged == (other is other_action and position == 0)
        assert verify_split(dataclasses.replace(split11, idempotents=es)) == unchanged
        assert bool(calls) == unchanged


@pytest.mark.parametrize("p,k", [(11, 1), (13, 3)])
def test_verify_reads_the_table_only_at_krylov_draws(sl32_s8, p, k, monkeypatch):
    # a good split makes no product in F_q[G]: its orthogonality is a count
    # of center dimensions, and the one table verify reads is the
    # KRYLOV_TERMS + 1 columns of each Krylov draw
    split = split_center(sl32_s8, make_field(p, k, seed=0), seed=0)
    products = []
    monkeypatch.setattr(oracle, "_convolve", lambda *args: products.append(args))
    calls = counting_ranks(monkeypatch)
    reads = table_reads(monkeypatch, full_reads=False)
    assert verify_split(split)
    assert not products
    assert len(reads) == calls.count("_krylov_ranks") >= 1
    assert all(len(r) == oracle.KRYLOV_TERMS + 1 and r[0] == 0 for r in reads)  # g_0 = 1 and its terms


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
    # center.  The draw's class products, made once as the matrix of w over
    # F_p, serve all six Krylov steps of the matrix minpoly reads, whose
    # vectors the six idempotents are combined from, with no call of mul:
    # w and the CRT coefficients lie in F_p.  e_1 .. e_5 are each checked
    # orthogonal to the stacked idempotents before them, in one mul each;
    # and the six are lifted mod 11^3 > 168 together, in two Newton steps of
    # two stacked products
    factors = []  # the shape of each right factor whose class products are made
    lefts = []  # the shape of each product's left factor
    mul_classes, mul = _CenterAlgebra._mul_classes, _CenterAlgebra.mul

    def recording_classes(self, v):
        factors.append(v.shape)
        return mul_classes(self, v)

    def recording_mul(self, u, v):
        lefts.append(u.shape)
        return mul(self, u, v)

    monkeypatch.setattr(_CenterAlgebra, "_mul_classes", recording_classes)
    monkeypatch.setattr(_CenterAlgebra, "mul", recording_mul)
    split_center(sl32_s8, f11, seed=0)
    assert factors == [(6, 1)] * 6 + [(6, 6, 1)] * 4
    assert lefts == [(b, 6, 1) for b in range(1, 6)] + [(6, 6, 1)] * 4


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

    def counting(mu):
        calls.append(mu.degree())
        return real(mu)

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

    def counting_factor(mu):
        factored.append(mu.spec.k)
        return real_factor(mu)

    def recording_refine(Z, e, dim, rng):
        done, todo = real_refine(Z, e, dim, rng)
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


READ_OFF_CASES = ([(f"file:{GROUP_DIR / name}.txt", p, 1) for name, primes in ZOO_PRIMES.items() for p in primes]
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
        assert [d for _, d in split.blocks] == [Z.block_dimension(e[reps]) for e in split.idempotents], seed


def test_repeated_factor_of_a_minimal_polynomial_is_an_internal_error(sl32_s8, f11, monkeypatch, capsys):
    # factor rejects a polynomial with a repeated factor, and the refinement
    # turns that into an internal error, exit 1
    def rejecting(mu):
        raise ValueError("factor takes a squarefree polynomial")

    monkeypatch.setattr(oracle, "factor", rejecting)
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
    assert a.idempotents.tolist() == b.idempotents.tolist()


def test_split_s5(s5, f11):
    # independent of the analytic route, which cannot pin S5 uniquely:
    # the true block structure of F_11[S5] comes out of the explicit algebra
    split = split_center(s5, f11, seed=0)
    assert split.pairs() == ((1, 1), (1, 1), (4, 1), (4, 1), (5, 1), (5, 1), (6, 1))
    assert verify_split(split)


@pytest.mark.parametrize("name,p", [(name, p) for name, ps in ZOO_PRIMES.items() for p in ps])
def test_verify_split_on_the_zoo(name, p, monkeypatch):
    # the column sample costs the zoo's good splits no draw: verify asks
    # for the same lengths and gets the same Krylov ranks, draw by draw, as
    # with a sample as large as |G|, at a prime below |G| and one above it
    G = resolve_group(f"file:{GROUP_DIR / (name + '.txt')}")
    split = split_center(G, make_field(p), seed=0)
    draws = []
    for slack in (oracle._SAMPLE_SLACK, G.order):
        with monkeypatch.context() as m:
            m.setattr(oracle, "_SAMPLE_SLACK", slack)
            draws.append(recording(m, "_krylov_ranks"))
            assert verify_split(split)
    assert draws[0] == draws[1]


# the sha256 of repr(draws), draws holding per _krylov_ranks call of one
# verify_split the lengths it is asked for and each (bound, value) it takes
# from verify's stream, on the zoo's 22 splits and on both SL(3,2) actions
# over the sl32_oracle fields.  The field certificates of the d >= 2 blocks
# draw from the same stream first, so these pin their draws too.  Pinned
# when the field certificate was a loop of its own beside the refinement's
VERIFY_DRAWS = {
    ("c15", 11, 1): "a2d37f62989dbcd4efa5178f96f11f2c97788c1ccbe57e964910f6f51a726614",
    ("c15", 17, 1): "c03e4ccd132f3cc96c8fd55c316c0b36f374ebf0c67b18f6392d7a3f94cd1f31",
    ("q8", 5, 1): "c525416f68b5291173e527786da9055d0eeb1285b2539eb696eff8effca34ff2",
    ("q8", 11, 1): "87391331a030449bcd7422327b89d908c5cd001d38ef6b62154340e11345eaca",
    ("d10", 7, 1): "1bc28f29c903ecdd78b414c5fff894e0d667db1db4c0314703f972417ae94025",
    ("d10", 31, 1): "652033bb16fcc9365d2bb27d9ed1bf80067e1a8b7499d9d404deb3434d6c052a",
    ("a4", 5, 1): "49b7ee1770945ef163a61134cafcdc3e363112ccba39d7cc78738fc7d2d9344f",
    ("a4", 13, 1): "7cb852218678873ec67d0da6b7b071c74572ac2c8b5e2ac1e6b2d3e817036c3c",
    ("s4", 7, 1): "7dd0024c2a3e9f6db88f04a8166710a1490f2d6dcb94c3f379189672e43f6685",
    ("s4", 29, 1): "011667d8f3b96699b9db7c26c1a4eb2c67bbccb74da787abeaea61f42a0c0954",
    ("c7c3", 11, 1): "6bf264585ca50485a2ea6e08fb420c7fd64c8a993434797d187ad0fb904357e9",
    ("c7c3", 43, 1): "2548c392d0d283ab7eb3ea644c24636bb40793e02ed61f65c9dd009f1908e8c4",
    ("a5", 7, 1): "3232425694f60e368ceffdba9ab3e6657c5a1f595bdea13fa185d65ce12b49fd",
    ("a5", 61, 1): "5a35fe4def6b454724928f33ad6bf433e4c88affe8a193de1988c4f172559d89",
    ("s5", 13, 1): "c1d739aef4a019e1212d9511690dc0cbb26f9bdf068c2c52fa9a25c6cd815349",
    ("s5", 127, 1): "43567d53ef420e908c000631d58dc68813b45e9d5cf13244828e7f25df914e31",
    ("psl27", 13, 1): "b8701893855eca51fb813e6170ab3ddd2043db50a00b92f3038a8cdae78b7cea",
    ("psl27", 179, 1): "c04c45ce0286a7a8fb7aaf6b77ff979de30fd74f113811e76c98ea345670683b",
    ("a6", 11, 1): "fa480d005c19c925e70f274e660651d05e8345b05177d9ec99b6170aeef25174",
    ("a6", 367, 1): "2cd942169d7ef9ddef19b0b360ab7ad364143cf2bb2b1b6749df2cdc2611ef7e",
    ("s6", 11, 1): "18c589da1c1fa5077bbda25949f65d96c23be28b20a0d2f8aba7c401dea5e591",
    ("s6", 727, 1): "7901082ae452256218a9979996d031f7bf3bf9e368edbbaf5f176ef899cfe4c3",
    ("sl32-s8", 11, 1): "4216c9edd556c0ea5f61072563ce2a95e9a5290c604ee3834753f57ac069a999",
    ("sl32-s8", 13, 1): "b8701893855eca51fb813e6170ab3ddd2043db50a00b92f3038a8cdae78b7cea",
    ("sl32-s8", 17, 1): "22902177c43fafb783f6412c9ec1348be509649b0eb2dd8e00127b8f3f2a3ad8",
    ("sl32-s8", 23, 1): "a7c344ccde3b38a34f1d98b4bc960069e9399809d33656495d5c436304a6d8ac",
    ("sl32-s8", 29, 1): "3f217480e0d4428cbf5e7347478c88ef9ffb17824b1e031be0deec7ce733b1d6",
    ("sl32-s8", 11, 2): "c7dc174e573f74d1f06a3e4814b66bfaf282650c92bce3ef196e9f4fdeaae1b2",
    ("sl32-s8", 13, 3): "bf4f98a65447529ea8f56954e674d6e7a870356ebb3888238dc4456e46671f31",
    ("sl32-p2f2", 11, 1): "4216c9edd556c0ea5f61072563ce2a95e9a5290c604ee3834753f57ac069a999",
    ("sl32-p2f2", 13, 1): "b8701893855eca51fb813e6170ab3ddd2043db50a00b92f3038a8cdae78b7cea",
    ("sl32-p2f2", 17, 1): "22902177c43fafb783f6412c9ec1348be509649b0eb2dd8e00127b8f3f2a3ad8",
    ("sl32-p2f2", 23, 1): "a7c344ccde3b38a34f1d98b4bc960069e9399809d33656495d5c436304a6d8ac",
    ("sl32-p2f2", 29, 1): "3f217480e0d4428cbf5e7347478c88ef9ffb17824b1e031be0deec7ce733b1d6",
    ("sl32-p2f2", 11, 2): "c7dc174e573f74d1f06a3e4814b66bfaf282650c92bce3ef196e9f4fdeaae1b2",
    ("sl32-p2f2", 13, 3): "bf4f98a65447529ea8f56954e674d6e7a870356ebb3888238dc4456e46671f31",
}


@pytest.mark.parametrize("group,p,k", VERIFY_DRAWS, ids=[f"{g}-F{p}^{k}" for g, p, k in VERIFY_DRAWS])
def test_verify_draws_are_pinned(group, p, k, monkeypatch):
    G = resolve_group(f"builtin:{group}" if group.startswith("sl32") else f"file:{GROUP_DIR / group}.txt")
    split = split_center(G, make_field(p, k, seed=0), seed=0)
    draws = []
    real = oracle._krylov_ranks

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def randrange(self, bound):
            draws[-1].append((bound, self.rng.randrange(bound)))
            return draws[-1][-1][1]

    def recording(G, spec, arrs, lengths, rng):
        draws.append([list(lengths)])
        return real(G, spec, arrs, lengths, Recording(rng))

    monkeypatch.setattr(oracle, "_krylov_ranks", recording)
    assert verify_split(split)
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == VERIFY_DRAWS[group, p, k]


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


@pytest.mark.parametrize("n, p, k", [(15, 11, 1), (21, 5, 1), (21, 5, 2), (40, 7, 1), (40, 7, 2),
                                     (60, 7, 1), (99, 5, 1), (100, 7, 1)])
def test_cyclic_groups_split_into_their_cyclotomic_cosets(n, p, k):
    # one M_1(F_{q^d}) per q-cyclotomic coset of size d of Z/n, each split
    # verified; C_99 and C_100 take minimal polynomials of degree up to 100
    split = split_center(cyclic_group(n), make_field(p, k, seed=0), seed=0)
    assert split.pairs() == cyclic_blocks(n, p, k)
    assert verify_split(split)


def table_reads(monkeypatch, full_reads=True):
    """Record the elements of each FiniteGroup.mul_table call from here on,
    as a list, or None for the whole table; with full_reads False, a read
    of the whole table raises."""
    reads = []
    real = FiniteGroup.mul_table

    def reading(self, elements=None):
        reads.append(None if elements is None else [int(c) for c in elements])
        if elements is None and not full_reads:
            raise AssertionError("read the whole multiplication table")
        return real(self, elements)

    monkeypatch.setattr(FiniteGroup, "mul_table", reading)
    return reads


SPLIT_READS = [(f"file:{GROUP_DIR / (name + '.txt')}", p) for name, ps in ZOO_PRIMES.items() for p in ps] + [
    (f"builtin:{name}", p) for name in ("sl32-s8", "sl32-p2f2") for p in (13, 179)]


@pytest.mark.parametrize("group,p", SPLIT_READS, ids=[f"{Path(g).stem}-F{p}" for g, p in SPLIT_READS])
def test_split_reads_the_table_only_up_to_the_last_representative(group, p, monkeypatch):
    # the class constants are the split's one use of the table, and they
    # read its columns at the class representatives alone; a fresh copy of
    # the group has no class constants cached
    G = FiniteGroup(resolve_group(group).generators)
    reads = table_reads(monkeypatch, full_reads=False)
    split_center(G, make_field(p), seed=0)
    assert reads == [[c.index for c in G.classes]]


class CountedTakes(np.ndarray):
    """An index map viewed so that its take calls, the gathers that build
    the table's columns, are counted in CountedTakes.calls."""

    calls = 0

    def take(self, *args, **kwargs):
        CountedTakes.calls += 1
        return super().take(*args, **kwargs)


def counted_group(generators):
    """A fresh group on generators, its gathers counted in CountedTakes."""
    G = FiniteGroup(generators)
    G._right = [r.view(CountedTakes) for r in G._right]
    return G


def test_each_table_column_is_built_once(sl32_s8, f11):
    # mul_table makes each column on its elements' parent words once, one
    # gather from its parent's column, and no other: S6's class constants
    # take 21 gathers, SL(3,2)'s 7 and one verify_split on SL(3,2) over F_11
    # 19.  S7's class constants read 15 columns, 41 with their parent
    # words, 0.8 MB of int32, and stay under 2 MB in all
    for generators, gathers in ((resolve_group(f"file:{GROUP_DIR / 's6.txt'}").generators, 21),
                                (sl32_s8.generators, 7)):
        G = counted_group(generators)
        CountedTakes.calls = 0
        G.class_product_coefficients()
        assert CountedTakes.calls == gathers
    G = counted_group(sl32_s8.generators)
    split = split_center(G, f11, seed=0)
    CountedTakes.calls = 0
    assert verify_split(split)
    assert CountedTakes.calls == 19
    s7 = generate([parse_cycles("(1,2,3,4,5,6,7)", 7), parse_cycles("(1,2)", 7)])
    tracemalloc.start()
    try:
        s7.class_product_coefficients()
        assert tracemalloc.get_traced_memory()[1] < 2 * 10**6
    finally:
        tracemalloc.stop()


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


@pytest.mark.parametrize("group,p,k", SPLIT_FIELDS,
                         ids=["sl32-F11", "sl32-F13^2", "sl32-F13^3", "sl32-F2^31+11", "s6-F7"])
def test_split_idempotents_are_one_read_only_array(group, p, k):
    # a split is plain data: its group, its field, one read-only (B, |G|, k)
    # array of dtype spec.dtype, and its blocks; splits compare by identity
    G = resolve_group(group)
    spec = make_field(p, k, seed=0)
    split = split_center(G, spec, seed=0)
    es = split.idempotents
    assert split.group is G and split.spec is spec
    assert type(es) is np.ndarray and es.shape == (len(split.blocks), G.order, k) and es.dtype == spec.dtype
    assert not es.flags.writeable
    with pytest.raises(ValueError):
        es[0, 0, 0] = 0
    assert split == split and dataclasses.replace(split) != split


def test_verify_rejects_a_malformed_idempotent_array(split11, monkeypatch):
    # a wrong shape or dtype is False before any rank
    es = split11.idempotents
    calls = counting_ranks(monkeypatch)
    for bad in (es[:-1], es[:, 1:], es[..., 0], np.concatenate([es, es], axis=2), es[None],
                es.astype(np.int32), es.astype(object)):
        assert not verify_split(dataclasses.replace(split11, idempotents=bad)), (bad.shape, bad.dtype)
    assert not calls
    assert verify_split(split11)


def test_verify_rejects_out_of_range_entries_without_raising(split11):
    # rows shifted by -p or p, the same elements mod p.  On the two 3x3
    # blocks merged and claimed as one (3, 2) block, the field certificate
    # would split e*Z and check the parts against the unreduced row, so the
    # range check, not an internal error, must answer
    es = split11.idempotents
    shifted = es.copy()
    shifted[3] -= 11
    assert not verify_split(dataclasses.replace(split11, idempotents=shifted))
    rest = [0, 3, 4, 5]
    assert [split11.blocks[b] for b in (1, 2)] == [(3, 1), (3, 1)]
    merged = np.concatenate([es[rest], [(es[1] + es[2]) % 11 + 11]])
    claimed = dataclasses.replace(split11, idempotents=merged,
                                  blocks=tuple(split11.blocks[b] for b in rest) + ((3, 2),))
    assert not verify_split(claimed)
