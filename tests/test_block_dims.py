"""Block dimensions of F_q[G]: split_center pins each D = dim e*F_q[G] from
the trace congruence D = |G| * e(1) mod p, the shape D = d * n^2, the sum
over blocks and submatrix ranks; the full rank of e's |G| x |G| matrix of
right translates is the independent route verify_split keeps."""

from pathlib import Path

import pytest

from wedderburn import make_field, split_center
from wedderburn.cli import resolve_group
from wedderburn.oracle import MAX_SUBMATRIX_TESTS, _pin_block_dims, _right_ideal_dimension

GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"

# group, a prime below |G| and a prime above |G|, neither dividing |G|: the
# zoo benchmark's primes, with those of PSL(2,7) for both SL(3,2) builtins
GROUPS = (
    ("builtin:sl32-s8", 13, 179),
    ("builtin:sl32-p2f2", 13, 179),
    ("q8", 5, 11),
    ("a4", 5, 13),
    ("s4", 7, 29),
    ("c7c3", 11, 43),
    ("a5", 7, 61),
    ("s5", 13, 127),
    ("psl27", 13, 179),
)


@pytest.mark.parametrize("name,below,above", GROUPS, ids=[g[0] for g in GROUPS])
def test_block_dims_match_full_rank(name, below, above):
    G = resolve_group(name if name.startswith("builtin:") else f"file:{GROUP_DIR / name}.txt")
    for p in (below, above):
        split = split_center(G, make_field(p), seed=0)
        for e, D in zip(split.idempotents, split.block_dims):
            assert D == _right_ideal_dimension(e), (name, p)
            trace = G.order * int(e.arr[0, 0]) % p
            assert (D - trace) % p == 0, (name, p)
            if p > G.order:
                assert D == trace, (name, p)


def _no_rank(*args):
    pytest.fail("no rank needed")


def test_pin_singleton_propagates():
    # block 0 is pinned at 9, which caps block 1 at 14 - 9 - 4 = 1 and
    # block 2 at 14 - 9 - 1 = 4
    assert _pin_block_dims(14, [[9], [1, 4], [4, 9]], _no_rank, _no_rank) == [9, 1, 4]


@pytest.mark.parametrize("total,candidates", [
    (12, [[4], [9, 16]]),  # 9 > 12 - 4
    (10, [[1], []]),
    (10, [[1], [4]]),  # every block pinned, but short of the total
])
def test_pin_empty_feasible_set_raises(total, candidates):
    with pytest.raises(AssertionError):
        _pin_block_dims(total, candidates, _no_rank, _no_rank)


def test_pin_submatrix_bounds_pin_every_block():
    truth = [4, 4, 1]
    widths = []

    def lower_bound(i, w):
        widths.append(w)
        return min(truth[i], w)

    assert _pin_block_dims(9, [[1, 4], [1, 4], [1, 4, 9]], lower_bound, _no_rank) == truth
    assert widths and all(w <= 6 for w in widths)


def test_pin_ambiguous_blocks_fall_back_to_full_rank():
    truth = [4, 4, 1]
    tests, exact = [], []

    def exact_dim(i):
        exact.append(i)
        return truth[i]

    got = _pin_block_dims(9, [[1, 4], [1, 4], [1, 4, 9]], lambda i, w: tests.append(i) or 0, exact_dim)
    assert got == truth
    assert len(tests) == MAX_SUBMATRIX_TESTS
    assert exact and len(exact) == len(set(exact))


@pytest.mark.parametrize("full_rank", [9, 2])  # above the bounds, not a candidate
def test_pin_rejects_full_rank_outside_feasible_set(full_rank):
    with pytest.raises(AssertionError):
        _pin_block_dims(9, [[1, 4], [1, 4], [1, 4, 9]], lambda i, w: 0, lambda i: full_rank)
