import math
from pathlib import Path

import pytest

from wedderburn import (
    BUILTIN_GROUPS,
    ModularCaseError,
    Permutation,
    cyclotomic_partition,
    generate,
    is_prime,
    load_group,
    power_class,
    sl32_expected_row,
)
from wedderburn import cyclo

GOOD_PRIMES = [p for p in range(5, 101) if is_prime(p) and p != 7]

GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"

# the zoo benchmark's two primes per group file, and 11 and 13 for the builtins
PARTITION_CASES = [
    ("c15", 11, 17), ("q8", 5, 11), ("d10", 7, 31), ("a4", 5, 13), ("s4", 7, 29), ("c7c3", 11, 43),
    ("a5", 7, 61), ("s5", 13, 127), ("psl27", 13, 179), ("a6", 11, 367), ("s6", 11, 727),
] + [(f"builtin:{name}", 11, 13) for name in sorted(BUILTIN_GROUPS)]


def i_q(G, p, k):
    """The subgroup {q^j mod e} of the residues mod e = exp(G), q = p^k, sorted."""
    e = G.exponent
    return tuple(sorted({pow(p**k, j, e) for j in range(e)}))


def i_q_orbits(G, p, k):
    """Orbits of the classes under all power maps l in I_q, each sorted and
    ordered by smallest member: the reference partition."""
    return tuple(sorted({tuple(sorted({power_class(G, c, l) for l in i_q(G, p, k)})) for c in range(len(G.classes))}))


def sizes(orbits):
    return tuple(len(o) for o in orbits)


def test_context_q_congruent_1_mod_84(sl32_s8):
    # 13^2 = 169 = 2*84 + 1, so every power map is the identity on classes
    assert sl32_s8.exponent == 84
    assert i_q(sl32_s8, 13, 2) == (1,)
    assert sizes(cyclotomic_partition(sl32_s8, 13, 2)) == (1,) * 6


def test_context_p13(sl32_s8):
    assert i_q(sl32_s8, 13, 1) == (1, 13)
    orbits = cyclotomic_partition(sl32_s8, 13, 1)
    assert sorted(sizes(orbits)) == [1, 1, 1, 1, 2]
    merged = next(o for o in orbits if len(o) == 2)
    assert merged == (4, 5)  # the two order-7 classes fuse


def test_context_rejects_modular_case(sl32_s8):
    for p in (2, 3, 7):
        with pytest.raises(ModularCaseError):
            cyclotomic_partition(sl32_s8, p, 1)
    with pytest.raises(ValueError):
        cyclotomic_partition(sl32_s8, 6, 1)
    with pytest.raises(ValueError):
        cyclotomic_partition(sl32_s8, 11, 0)


def test_input_checks_run_in_order(sl32_s8):
    # primality first, then k, then the modular case
    with pytest.raises(ValueError, match="not prime"):
        cyclotomic_partition(sl32_s8, 6, 0)
    with pytest.raises(ValueError, match="k must be positive"):
        cyclotomic_partition(sl32_s8, 7, 0)
    # the reference row rejects the modular primes before it looks at k
    with pytest.raises(ModularCaseError):
        sl32_expected_row(7, 0)


def test_trivial_group_partition():
    G = generate([Permutation.identity(2)])
    assert cyclotomic_partition(G, 11, 1) == ((0,),)


def test_component_counts(sl32_s8):
    assert sizes(cyclotomic_partition(sl32_s8, 11, 1)) == (1,) * 6
    assert sorted(sizes(cyclotomic_partition(sl32_s8, 13, 1))) == [1, 1, 1, 1, 2]
    assert sizes(cyclotomic_partition(sl32_s8, 13, 2)) == (1,) * 6


def test_partition_grid_invariants(sl32_s8):
    for p in GOOD_PRIMES:
        for k in range(1, 13):
            orbits = cyclotomic_partition(sl32_s8, p, k)
            # rational classes stay alone
            for rational in (0, 1, 2, 3):
                assert (rational,) in orbits, (p, k)
            merged = any(len(o) == 2 for o in orbits)
            assert merged == (pow(p, k, 7) in (3, 5, 6)), (p, k)
            assert sum(sizes(orbits)) == 6
            ordq = len(i_q(sl32_s8, p, k))
            assert all(ordq % size == 0 for size in sizes(orbits))


def test_orbit_closure_under_power_maps(sl32_s8):
    # applying any power map from I_q to any orbit member stays in the orbit
    for p in (13, 23, 41):
        for orbit in cyclotomic_partition(sl32_s8, p, 1):
            for c in orbit:
                for l in i_q(sl32_s8, p, 1):
                    assert power_class(sl32_s8, c, l) in orbit


def test_exponent_and_gcd(sl32_s8):
    assert sl32_s8.exponent == 84
    assert math.gcd(11**3, sl32_s8.exponent) == 1
    assert cyclotomic_partition(sl32_s8, 11, 3) == i_q_orbits(sl32_s8, 11, 3)


@pytest.mark.parametrize("name,p1,p2", PARTITION_CASES, ids=[c[0] for c in PARTITION_CASES])
def test_partition_is_the_i_q_orbit_partition(name, p1, p2):
    G = BUILTIN_GROUPS[name[8:]]() if name.startswith("builtin:") else load_group(GROUP_DIR / f"{name}.txt")
    for p in (p1, p2):
        for k in (1, 2, 3):
            assert cyclotomic_partition(G, p, k) == i_q_orbits(G, p, k), (name, p, k)


@pytest.mark.parametrize("group,p,m", [("sl32_s8", 11, 6), ("sl32_s8", 13, 6), ("c15", 17, 15)])
def test_partition_makes_one_power_class_call_per_class(group, p, m, request, monkeypatch):
    # sigma_q is read off once per class, whatever the orbit lengths
    G = load_group(GROUP_DIR / "c15.txt") if group == "c15" else request.getfixturevalue(group)
    assert len(G.classes) == m
    calls = []

    def counted(G, c, l):
        calls.append(c)
        return power_class(G, c, l)

    monkeypatch.setattr(cyclo, "power_class", counted)
    cyclotomic_partition(G, p, 1)
    assert sorted(calls) == list(range(m))
