"""Block dimensions of F_q[G]: split_center reads each D = dim e*F_q[G] off
the trace |G| * e(1) of the idempotent e lifted to the Galois ring mod p^s,
p^s > |G|; the full rank of e's |G| x |G| matrix of right translates,
_right_ideal_dimension in test_kernels, is the reference here."""

from pathlib import Path

import pytest

from wedderburn import make_field, split_center
from wedderburn.cli import resolve_group

from test_kernels import _right_ideal_dimension

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
    table = G.mul_table()
    for p in (below, above):
        split = split_center(G, make_field(p), seed=0)
        for e, D in zip(split.idempotents, split.block_dims):
            assert D == _right_ideal_dimension(split.spec, e, table), (name, p)
            trace = G.order * int(e[0, 0]) % p
            assert (D - trace) % p == 0, (name, p)
            if p > G.order:
                assert D == trace, (name, p)


# the Galois-ring path, p < |G|: over F_{below^2} some idempotents have
# coefficients outside F_p, and over F_7, 7**3 < |S6| = 720 < 7**4 gives s = 4
@pytest.mark.parametrize("name,p,k", [("builtin:sl32-s8", 13, 2), ("c7c3", 11, 2), ("a5", 7, 2), ("s6", 7, 1)])
def test_lifted_block_dims_match_full_rank(name, p, k):
    G = resolve_group(name if name.startswith("builtin:") else f"file:{GROUP_DIR / name}.txt")
    assert p < G.order
    split = split_center(G, make_field(p, k, seed=0), seed=0)
    table = G.mul_table()
    for e, D in zip(split.idempotents, split.block_dims):
        assert D == _right_ideal_dimension(split.spec, e, table)
    if k > 1:
        assert split.idempotents[..., 1:].any()
