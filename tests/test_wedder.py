import hashlib
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedderburn import (
    ModularCaseError,
    analytic_decomposition,
    builtin_sl32_s8,
    cyclotomic_partition,
    forced_components,
    generate,
    is_prime,
    load_group,
    is_sl32_class_data,
    Permutation,
    sl32_type,
    solve,
    splitting_field_check,
)
from wedderburn.units import TYPE1_COMPONENTS, TYPE2_COMPONENTS, sl32_expected_row


def brute_force_square_sums(total, slots):
    """All multisets of `slots` positive integers with squares summing to total."""
    sols = []

    def rec(rem, left, mx, acc):
        if left == 0:
            if rem == 0:
                sols.append(tuple(acc))
            return
        for n in range(min(mx, math.isqrt(rem - (left - 1))), 0, -1):
            acc.append(n)
            rec(rem - n * n, left - 1, n, acc)
            acc.pop()

    rec(total, slots, math.isqrt(total), [])
    return sols


def test_forced_components_sl32(sl32_s8, sl32_p2f2):
    comps = forced_components(sl32_s8, 11, [sl32_s8, sl32_p2f2])
    assert sorted(comps) == [(1, 1), (6, 1), (7, 1)]


def test_forced_components_trivial():
    G = generate([Permutation.identity(1)])
    assert forced_components(G, 11, [G]) == [(1, 1)]


def test_forced_components_s5(s5):
    comps = forced_components(s5, 11, [s5])
    assert sorted(comps) == [(1, 1), (4, 1)]


def test_forced_components_rejects_modular(sl32_s8):
    with pytest.raises(ModularCaseError):
        forced_components(sl32_s8, 7, [sl32_s8])


def test_solve_type1_unique():
    forced = [(1, 1), (6, 1), (7, 1)]
    rep = solve(168, [1] * 6, forced)
    assert rep.unique
    assert rep.solutions[0] == ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1))


def test_solve_type2_unique():
    forced = [(1, 1), (6, 1), (7, 1)]
    rep = solve(168, [1, 1, 1, 1, 2], forced)
    assert rep.unique
    assert rep.solutions[0] == ((1, 1), (6, 1), (7, 1), (8, 1), (3, 2))
    # remaining mass: 64 + 2*9 = 82
    assert sum(d * n * n for n, d in rep.solutions[0] if (n, d) not in forced) == 82


def test_solve_negative_control_matches_brute_force():
    rep = solve(168, [1] * 6, [(1, 1)])
    oracle = brute_force_square_sums(167, 5)
    assert len(oracle) == 11
    assert not rep.unique
    assert len(rep.solutions) == len(oracle)
    got = {tuple(sorted((n for n, _ in dec), reverse=True)) for dec in rep.solutions}
    assert got == {tuple(sorted((1,) + s, reverse=True)) for s in oracle}


def brute_force_solve(group_order, degrees, forced):
    """The ordered (n, d) pair lists `solve` should return, or None where it
    should raise ValueError: itertools over the sizes of each slot, one sorted
    multiset per choice, filtered by mass and sorted by the (d, n) keys."""
    ones = list(degrees).count(1)
    mass = sum(d * n * n for n, d in forced)
    if any(d != 1 for _, d in forced) or len(forced) > ones or mass > group_order:
        return None
    slots = sorted(degrees)[len(forced):]
    sizes = [range(1, math.isqrt(group_order // d) + 1) for d in slots]
    found = set()
    for ns in itertools.product(*sizes):
        blocks = forced + list(zip(ns, slots))
        if sum(d * n * n for n, d in blocks) == group_order:
            found.add(tuple(sorted(blocks, key=lambda b: (b[1], b[0]))))
    if any((1, 1) not in sol for sol in found):
        return None  # solve refuses a candidate without the trivial block
    return sorted(found, key=lambda sol: [(d, n) for n, d in sol])


@settings(max_examples=300, deadline=None)
@given(
    group_order=st.integers(1, 200),
    degrees=st.lists(st.sampled_from([1, 2, 3, 4]), max_size=5),
    forced=st.lists(st.tuples(st.integers(1, 14), st.sampled_from([1, 1, 1, 2])), max_size=3),
    trivial=st.booleans(),
)
@example(group_order=10, degrees=[1], forced=[], trivial=True)  # no slot left, forced mass < |G|
@example(group_order=1, degrees=[1], forced=[], trivial=True)  # no slot left, forced mass = |G|
@example(group_order=50, degrees=[1, 1, 2], forced=[(7, 1)], trivial=False)
@example(group_order=168, degrees=[1] * 5, forced=[], trivial=True)
# ten candidates: free degree-1 sizes merge with the forced 1 and 2, and a degree's sizes are listed increasing
@example(group_order=73, degrees=[1, 1, 1, 2, 2, 3], forced=[(2, 1)], trivial=True)
# a forced size equal to a free size: (1, 1), (3, 1), (3, 1)
@example(group_order=19, degrees=[1, 1, 1], forced=[(3, 1)], trivial=True)
# the last two slots, 50 = 1^2 + 7^2 = 5^2 + 5^2 and 85 = 2^2 + 9^2 = 6^2 + 7^2: both candidates of each, in order
@example(group_order=51, degrees=[1, 1, 1], forced=[], trivial=True)
@example(group_order=86, degrees=[1, 1, 1], forced=[], trivial=True)
# a degree-2 run after the degree-1 run: 1 + 9 + 2 * (1 + 9) and 1 + 25 + 2 * (1 + 1)
@example(group_order=30, degrees=[1, 1, 2, 2], forced=[], trivial=True)
# forced blocks fill every degree-1 slot; only the degree-2 run is free
@example(group_order=37, degrees=[1, 1, 2, 2], forced=[(4, 1)], trivial=True)
def test_solve_matches_brute_force(group_order, degrees, forced, trivial):
    forced = ([(1, 1)] if trivial else []) + forced
    expected = brute_force_solve(group_order, degrees, forced)
    if expected is None:
        with pytest.raises(ValueError):
            solve(group_order, degrees, forced)
        return
    rep = solve(group_order, degrees, forced)
    assert list(rep.solutions) == expected
    # plain tuples of exact int pairs
    assert all(type(dec) is tuple and all(type(c) is tuple and type(c[0]) is int and type(c[1]) is int
                                          for c in dec) for dec in rep.solutions)
    assert rep.unique == (len(expected) == 1)


def test_solve_pins_s6_candidates():
    # the count and a sha256 of the ordered candidate list pin both the set and its order
    G = load_group(Path(__file__).resolve().parents[1] / "bench" / "groups" / "s6.txt")
    rep = analytic_decomposition(G, 11, 1, [G])
    assert len(rep.solutions) == 3037 and not rep.unique
    digest = hashlib.sha256(str(list(rep.solutions)).encode()).hexdigest()
    assert digest == "9517268e226402cb1898d9ff40e76e1f3ffbb7e64213e9a3dcfa2e16f949586d"


def test_solve_rejects_candidates_without_the_trivial_block():
    # 8 = 2^2 + 2^2 is the only filling of two degree-1 slots
    with pytest.raises(ValueError, match="trivial"):
        solve(8, [1, 1], [])
    # 27 = 1 + 1 + 5^2 = 3 * 3^2: the second candidate lacks the trivial block
    with pytest.raises(ValueError, match="trivial"):
        solve(27, [1, 1, 1], [])


def test_solve_fills_thousands_of_slots_without_deep_recursion():
    # 5000 degree-1 slots, all 1 x 1: the least remaining mass ends the search at once
    rep = solve(5000, [1] * 5000, [(1, 1)])
    assert rep.unique and rep.solutions[0] == ((1, 1),) * 5000
    # one 2 x 2 block among 1000 slots; a size that would leave a later slot
    # below its degree is never tried
    rep = solve(1004, [1] * 1001, [(1, 1)])
    assert rep.unique and rep.solutions[0] == ((1, 1),) * 1000 + ((2, 1),)
    # 1000 slots of each of two degrees and an excess of 9 = 3 + 6 = 3 + 3 + 3: one 2 x 2 block
    # of each degree, or three of degree 1, every other block 1 x 1
    rep = solve(3009, [1] * 1000 + [2] * 1000, [(1, 1)])
    assert rep.solutions == (((1, 1),) * 999 + ((2, 1),) + ((1, 2),) * 999 + ((2, 2),),
                             ((1, 1),) * 997 + ((2, 1),) * 3 + ((1, 2),) * 1000)


def test_component_is_a_plain_pair(sl32_s8):
    forced = forced_components(sl32_s8, 11, [sl32_s8])
    assert forced == [(1, 1), (7, 1)]
    assert all(type(c) is tuple for c in forced + list(TYPE1_COMPONENTS + TYPE2_COMPONENTS))
    blocks = solve(10, [1, 1], [(1, 1)]).solutions[0]
    assert blocks == ((1, 1), (3, 1)) and type(blocks[1]) is tuple


def test_solve_restoring_forced_restores_uniqueness():
    rep = solve(168, [1] * 6, [(1, 1), (6, 1), (7, 1)])
    assert rep.unique and len(rep.solutions) == 1


def test_solve_errors():
    with pytest.raises(ValueError):
        solve(168, [1, 1, 2], [(1, 1)] * 3)  # only two degree-1 slots
    with pytest.raises(ValueError):
        solve(10, [1], [(9, 1)])  # forced mass 81 > 10
    with pytest.raises(ValueError):
        solve(168, [1] * 6, [(3, 2)])  # forced blocks must have d = 1


def test_solve_rejects_degrees_below_one():
    # a degree 0 slot would divide by zero, a negative one would reach isqrt
    with pytest.raises(ValueError, match="center degree 0 must be at least 1"):
        solve(10, [0, 1], [])
    with pytest.raises(ValueError, match="center degree -1 must be at least 1"):
        solve(10, [-1, 1], [])
    with pytest.raises(ValueError, match="center degree -2 must be at least 1"):
        solve(10, [1, -2, 0], [(1, 1)])


def test_solve_no_solution_reports_empty():
    rep = solve(7, [1, 1], [(1, 1)])  # 1 + n^2 = 7 has no solution
    assert rep.solutions == () and not rep.unique


def builtin_type(p, k):
    """The SL(3,2) type of (p, k), read as the CLI reads it: sl32_type on
    the q-power cycles of the builtin SL(3,2)."""
    G = builtin_sl32_s8()
    return sl32_type(G, cyclotomic_partition(G, p, k))


def test_sl32_type_values():
    assert builtin_type(11, 1) == 1
    assert builtin_type(13, 3) == 2
    assert builtin_type(5, 1) == 2
    assert builtin_type(13, 2) == 1
    assert builtin_type(29, 5) == 1  # 29 = 1 mod 7


def test_sl32_type_matches_reference_rows():
    # one prime per nonzero residue class mod 7, instantiated for l in {0, 1}
    residue_primes = {1: 29, 2: 23, 3: 31, 4: 11, 5: 5, 6: 13}
    for residue, p in residue_primes.items():
        for k_res in range(6):
            for l in (0, 1):
                k = k_res + 6 * l
                if k == 0:
                    continue
                row = sl32_expected_row(p, k)
                assert builtin_type(p, k) == row.family_type, (p, k)


def test_report_partition_gives_the_type_on_every_action(sl32_s8, sl32_p2f2):
    # the type read off each action's own q-power cycles is the one the builtin SL(3,2) gives
    psl27 = load_group(Path(__file__).resolve().parents[1] / "bench" / "groups" / "psl27.txt")
    for p in (5, 11, 13, 23, 29, 31, 199):
        for k in (1, 2, 3, 6):
            for G in (sl32_s8, sl32_p2f2, psl27):
                rep = analytic_decomposition(G, p, k, [G])
                assert sl32_type(G, rep.partition) == builtin_type(p, k), (p, k)
                assert sorted(map(len, rep.partition)) == sorted(d for _, d in rep.solutions[0])


def test_sl32_type_needs_two_order7_classes(s5):
    with pytest.raises(AssertionError, match="order-7"):
        sl32_type(s5, ((0,),))


def test_splitting_field_check():
    # the reference rows and the plain pairs solve returns
    assert splitting_field_check(TYPE1_COMPONENTS)
    assert not splitting_field_check(TYPE2_COMPONENTS)
    assert 1 + 36 + 49 + 64 + 9 + 9 == 168
    assert splitting_field_check(((1, 1),))
    assert splitting_field_check(solve(10, [1, 1], [(1, 1)]).solutions[0])
    assert not splitting_field_check(solve(168, [1, 1, 1, 1, 2], [(1, 1), (6, 1), (7, 1)]).solutions[0])


def test_analytic_pipeline_sl32(sl32_s8, sl32_p2f2):
    actions = [sl32_s8, sl32_p2f2]
    rep = analytic_decomposition(sl32_s8, 11, 1, actions)
    assert rep.unique and rep.solutions[0] == TYPE1_COMPONENTS
    rep = analytic_decomposition(sl32_s8, 13, 1, actions)
    assert rep.unique and rep.solutions[0] == TYPE2_COMPONENTS
    for dec in rep.solutions:
        assert sum(d * n * n for n, d in dec) == 168


def test_analytic_pipeline_s5(s5):
    # class fusion never happens for S5 (all classes rational), so the slots
    # are six 1s after the forced blocks and uniqueness genuinely fails
    rep = analytic_decomposition(s5, 11, 1, [s5])
    assert not rep.unique
    true_degrees = tuple(sorted([1, 1, 4, 4, 5, 5, 6], reverse=True))
    got = {tuple(sorted((n for n, _ in dec), reverse=True)) for dec in rep.solutions}
    assert true_degrees in got


def test_is_sl32_class_data(sl32_s8, sl32_p2f2, s5):
    assert is_sl32_class_data(sl32_s8)
    assert is_sl32_class_data(sl32_p2f2)
    assert not is_sl32_class_data(s5)


def test_grid_uniqueness_and_reference_match(sl32_s8, sl32_p2f2):
    actions = [sl32_s8, sl32_p2f2]
    primes = [p for p in range(5, 200) if is_prime(p) and p != 7]
    for p in primes:
        for k in (1, 2, 3, 7, 12):
            rep = analytic_decomposition(sl32_s8, p, k, actions)
            assert rep.unique, (p, k)
            row = sl32_expected_row(p, k)
            assert rep.solutions[0] == row.components, (p, k)
