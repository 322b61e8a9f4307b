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
from wedderburn import cli, oracle
from wedderburn.cli import resolve_group
from wedderburn.oracle import _CenterAlgebra

from test_kernels import as_rows


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
    x = AlgebraElement(sl32_s8, f11, as_rows([f11.random_element(rng) for _ in range(168)]))
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
    scaled = AlgebraElement(sl32_s8, f11, f11.mul_arrays(z.arr, np.array(f11.scalar(168).coeffs)))
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
    """Stub both rank routes of verify_split, the sampled certificate and its
    full-rank fallback, to return each block's claimed dimension."""
    claimed = dict(zip(map(id, split.idempotents), split.block_dims))
    monkeypatch.setattr(oracle, "_sampled_rank", lambda e, table, w, rng: claimed[id(e)])
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
    # claims 64 has sampled ranks of at most 9, and its full rank is 9
    assert split11.block_dims[1] == 9 and split11.block_dims[5] == 64

    def swap(t):
        return (t[0], t[5]) + t[2:5] + (t[1],)

    swapped = dataclasses.replace(split11, blocks=swap(split11.blocks))
    with monkeypatch.context() as m:
        ranks_agree_with(swapped, m)
        assert verify_split(swapped)
    sampled = recording(monkeypatch, "_sampled_rank")
    full = recording(monkeypatch, "_right_ideal_dimension")
    assert not verify_split(swapped)
    assert sampled[0] == 1 and len(sampled) == 3 and max(sampled[1:]) <= 9
    assert full == [9]


def no_full_rank(monkeypatch):
    def full_rank(E, table):
        raise AssertionError("verify_split fell back to a full rank")

    monkeypatch.setattr(oracle, "_right_ideal_dimension", full_rank)


# the seven fields of the sl32_oracle benchmark, then F_5 and F_169
SL32_FIELDS = ((11, 1), (13, 1), (17, 1), (23, 1), (29, 1), (11, 2), (13, 3), (5, 1), (13, 2))


@pytest.mark.parametrize("group", ["builtin:sl32-s8", "builtin:sl32-p2f2"])
def test_verify_takes_no_full_rank_on_good_splits(group, monkeypatch):
    G = resolve_group(group)
    no_full_rank(monkeypatch)
    for p, k in SL32_FIELDS:
        assert verify_split(split_center(G, make_field(p, k, seed=0), seed=0)), (p, k)


@pytest.mark.parametrize("p,k", [(11, 1), (13, 3)])
def test_short_draws_fall_back_to_one_full_rank_per_block(sl32_s8, p, k, monkeypatch):
    split = split_center(sl32_s8, make_field(p, k, seed=0), seed=0)
    draws = []
    monkeypatch.setattr(oracle, "_sampled_rank", lambda e, table, w, rng: draws.append(w) or 0)
    full = recording(monkeypatch, "_right_ideal_dimension")
    assert verify_split(split)
    assert full == list(split.block_dims)
    assert draws == [min(168, D + oracle.CERTIFICATE_OVERSAMPLE) for D in split.block_dims for _ in range(2)]


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


def test_split_ranks_each_center_block_once(sl32_s8, f11, monkeypatch):
    # the final blocks reuse the center degree their last refinement ranked;
    # verify_split ranks every block again, on its own
    seen = []
    rank = _CenterAlgebra.block_dimension

    def counting(self, e):
        seen.append(e.tobytes())
        return rank(self, e)

    monkeypatch.setattr(_CenterAlgebra, "block_dimension", counting)
    split = split_center(sl32_s8, f11, seed=0)
    assert len(seen) == len(set(seen))
    calls = len(seen)
    assert verify_split(split)
    assert len(seen) == calls + len(split.idempotents)


GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"
C15 = f"file:{GROUP_DIR / 'c15.txt'}"


@pytest.mark.parametrize("group,p,k", [("builtin:sl32-s8", 11, 1), ("builtin:sl32-s8", 13, 3),
                                       (f"file:{GROUP_DIR / 's6.txt'}", 7, 1)],
                         ids=["sl32-F11", "sl32-F13^3", "s6-F7"])
def test_split_ranks_only_center_matrices(group, p, k, monkeypatch):
    # every rank split_center takes is of an m x m center matrix; block
    # dimensions come from the lifted trace, not from ranks of |G| x |G|
    # matrices or their submatrices
    G = resolve_group(group)
    rows = []
    rank = MatrixFq.rank

    def recording(self):
        rows.append(self.nrows)
        return rank(self)

    monkeypatch.setattr(MatrixFq, "rank", recording)
    split_center(G, make_field(p, k, seed=0), seed=0)
    assert rows and max(rows) <= len(G.classes)


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
    # C15 over F_11 has ten blocks: 12 factorizations decide every split
    # and certificate; searching on after a certificate took 85, and trying
    # the identity class sum (minimal polynomial X - 1) as well took 20
    calls = []
    real = oracle.factor

    def counting(mu, seed=0):
        calls.append(mu.degree())
        return real(mu, seed=seed)

    monkeypatch.setattr(oracle, "factor", counting)
    split = split_center(resolve_group(C15), f11, seed=0)
    assert len(split.idempotents) == 10
    assert len(calls) == 12


@pytest.mark.parametrize("p,k,refined", [(11, 2, []), (13, 3, []), (13, 2, [2, 1, 1])])
def test_extension_refines_only_blocks_whose_degree_shares_a_factor_with_k(sl32_s8, p, k, refined, monkeypatch):
    # SL(3,2) over F_p has center degrees 1, and a 2 for p = 13: over F_q
    # only the d = 2 block at even k is refined again, into two of degree 1
    factored = []  # extension degree of each factored polynomial's field
    blocks = []  # center dimension of each block refined over F_q
    real_factor, real_refine = oracle.factor, oracle._try_refine

    def counting_factor(mu, seed=0):
        factored.append(mu.spec.k)
        return real_factor(mu, seed=seed)

    def recording_refine(Z, e, rng, seed):
        split, d = real_refine(Z, e, rng, seed)
        if Z.spec.k > 1:
            blocks.append(d)
        return split, d

    monkeypatch.setattr(oracle, "factor", counting_factor)
    monkeypatch.setattr(oracle, "_try_refine", recording_refine)
    split_center(sl32_s8, make_field(p, k, seed=0), seed=0)
    assert blocks == refined
    assert set(factored) == ({1, k} if refined else {1})


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
    # every block dimension is proved by the sampled rank certificate
    G = resolve_group(f"file:{GROUP_DIR / (name + '.txt')}")
    split = split_center(G, make_field(p), seed=0)
    no_full_rank(monkeypatch)
    assert verify_split(split)


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
    # the products, the sampled ranks and every full-rank fallback share
    # one table per call
    split = split_center(sl32_s8, make_field(p, k, seed=0), seed=0)
    stops = table_reads(monkeypatch)
    assert verify_split(split)
    assert stops == [None]
    stops.clear()
    monkeypatch.setattr(oracle, "_sampled_rank", lambda e, table, w, rng: 0)
    assert verify_split(split)
    assert stops == [None]


def test_algebra_element_keeps_its_array(sl32_s8, f11):
    # the constructor keeps an array of shape (|G|, k) as it is; a coefficient of
    # another field is rejected where a FieldElement is read into a field, by
    # spec.element (test_ffield.py::test_element_rejects_an_element_of_another_field)
    arr = as_rows([f11.scalar(5)] * sl32_s8.order)
    a = AlgebraElement(sl32_s8, f11, arr)
    assert a.arr is arr and a.group is sl32_s8 and a.spec is f11
    assert a.arr.shape == (sl32_s8.order, 1) and (a.arr == 5).all()
    for shape in ((sl32_s8.order - 1, 1), (sl32_s8.order, 2), (sl32_s8.order,)):
        with pytest.raises(ValueError):
            AlgebraElement(sl32_s8, f11, np.zeros(shape, dtype=f11.dtype))
    with pytest.raises(ValueError):
        AlgebraElement(sl32_s8, f11, arr.astype(object))
