from pathlib import Path

import pytest

from wedderburn import (
    BUILTIN_GROUPS,
    deleted_module_check,
    generate,
    inner_product,
    is_prime,
    load_group,
    parse_cycles,
    perm_character,
    Permutation,
)

GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"

# every group file, the builtins, and small actions at the edges of the certificate
BRUTE_FORCE_GROUPS = {
    **{f.stem: (lambda f=f: load_group(f)) for f in sorted(GROUP_DIR.glob("*.txt"))},
    **{f"builtin:{name}": make for name, make in sorted(BUILTIN_GROUPS.items())},
    "s3-on-5": lambda: generate([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3)", 5)]),
    "identity-on-1": lambda: generate([Permutation.identity(1)]),
    "identity-on-3": lambda: generate([Permutation.identity(3)]),
    "s2-on-2": lambda: generate([parse_cycles("(1,2)", 2)]),
}
# two-point stabilizer orders of the builtin doubly transitive actions
STAB2 = {"builtin:sl32-s8": 3, "builtin:sl32-p2f2": 4, "builtin:s5": 6}


def test_perm_character_sl32_s8(sl32_s8):
    chi = perm_character(sl32_s8)
    assert chi == (8, 0, 2, 0, 1, 1)
    # fixed-point counts are constant on each class
    for i, ci in enumerate(sl32_s8.class_index_of):
        g = sl32_s8.elements[i]
        assert sum(1 for x in range(8) if g(x) == x) == chi[ci]


def test_perm_character_trivial():
    G = generate([Permutation.identity(1)])
    assert perm_character(G) == (1,)


def test_perm_character_p2f2(sl32_p2f2):
    chi = perm_character(sl32_p2f2)
    assert chi[0] == 7


def test_inner_product_norms(sl32_s8, sl32_p2f2):
    chi8 = perm_character(sl32_s8)
    assert inner_product(sl32_s8, chi8, chi8) == 2
    chi7 = perm_character(sl32_p2f2)
    assert inner_product(sl32_p2f2, chi7, chi7) == 2
    # independent route: Burnside on ordered pairs, summed over all elements
    pair_orbits = sum(
        sum(1 for x in range(7) if g(x) == x) ** 2 for g in sl32_p2f2.elements
    )
    assert pair_orbits == 2 * sl32_p2f2.order


def test_inner_product_with_trivial_counts_orbits(sl32_s8, sl32_p2f2, s5):
    for G in (sl32_s8, sl32_p2f2, s5):
        chi = perm_character(G)
        assert inner_product(G, chi, (1,) * len(G.classes)) == len(G.point_orbits()) == 1
    # an intransitive action: S3 moving {1,2,3} inside 5 points
    H = generate([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3)", 5)])
    chi = perm_character(H)
    assert inner_product(H, chi, (1,) * len(H.classes)) == len(H.point_orbits()) == 3


def test_inner_product_rejects_mixed_groups(sl32_s8, s5):
    # S5 has seven classes, SL(3,2) six: the values cannot be paired up
    with pytest.raises(ValueError):
        inner_product(sl32_s8, perm_character(sl32_s8), perm_character(s5))
    with pytest.raises(ValueError):
        inner_product(s5, perm_character(sl32_s8), perm_character(sl32_s8))


def test_inner_product_exactness_guard(sl32_s8):
    bad = (1, 0, 0, 0, 0, 0)
    with pytest.raises(ArithmeticError):
        inner_product(sl32_s8, bad, bad)


def test_deleted_module_check_sl32(sl32_s8, sl32_p2f2):
    assert deleted_module_check(sl32_p2f2, 11)
    assert deleted_module_check(sl32_s8, 11)


def test_deleted_module_check_s5(s5):
    assert deleted_module_check(s5, 7)
    chi = perm_character(s5)
    assert inner_product(s5, chi, chi) == 2


def test_deleted_module_check_divisibility(sl32_s8, sl32_p2f2, s5):
    # the two-point stabilizers have orders 3 and 4, the point counts 8 and 7
    assert not deleted_module_check(sl32_s8, 3)
    assert not deleted_module_check(sl32_s8, 2)
    assert not deleted_module_check(sl32_p2f2, 7)
    assert not deleted_module_check(sl32_p2f2, 2)
    # S5 natural action: w = 5, |G_{1,2}| = 6
    assert not deleted_module_check(s5, 5)
    assert not deleted_module_check(s5, 3)


def test_deleted_module_check_all_good_primes(sl32_s8, sl32_p2f2):
    for p in (5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        for G in (sl32_s8, sl32_p2f2):
            assert deleted_module_check(G, p), (p, G.degree)


def test_deleted_module_check_not_transitive():
    H = generate([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3)", 5)])
    assert not deleted_module_check(H, 11)
    assert len(H.point_orbits()) == 3
    chi = perm_character(H)
    assert inner_product(H, chi, chi) != 2


def test_deleted_module_check_rejects_nonprime(s5):
    with pytest.raises(ValueError):
        deleted_module_check(s5, 6)


@pytest.mark.parametrize("name", sorted(BRUTE_FORCE_GROUPS))
def test_deleted_module_check_matches_brute_force(name):
    # the reference walks the elements: (g(0), g(1)) reaches all w(w - 1)
    # ordered pairs of distinct points iff the action is doubly transitive,
    # and the two-point stabilizer is counted directly
    G = BRUTE_FORCE_GROUPS[name]()
    w = G.degree
    doubly = w >= 2 and len({(g(0), g(1)) for g in G.elements}) == w * (w - 1)
    stab2 = sum(1 for g in G.elements if g(0) == 0 and g(1) == 1) if w >= 2 else None
    chi = perm_character(G)
    assert (inner_product(G, chi, chi) == 2) == doubly
    if doubly:
        assert stab2 == G.order // (w * (w - 1))
    assert stab2 == STAB2.get(name, stab2)
    for p in filter(is_prime, range(2, 51)):
        expected = doubly and w % p != 0 and stab2 % p != 0
        assert deleted_module_check(G, p) == expected, (name, p)

