import math

import pytest

from wedderburn import (
    ModularCaseError,
    Permutation,
    build_context,
    component_count_and_degrees,
    cyclotomic_partition,
    generate,
    is_prime,
    power_class,
)

GOOD_PRIMES = [p for p in range(5, 101) if is_prime(p) and p != 7]


def test_context_q_congruent_1_mod_84(sl32_s8):
    # 13^2 = 169 = 2*84 + 1, so every power map is the identity on classes
    ctx = build_context(sl32_s8, 13, 2)
    assert ctx.e == 84
    assert ctx.i_q == (1,)
    part = cyclotomic_partition(ctx)
    assert part.sizes == (1,) * 6


def test_context_p13(sl32_s8):
    ctx = build_context(sl32_s8, 13, 1)
    assert ctx.i_q == (1, 13)
    assert ctx.q == 13
    part = cyclotomic_partition(ctx)
    assert sorted(part.sizes) == [1, 1, 1, 1, 2]
    merged = next(o for o in part.orbits if len(o) == 2)
    assert merged == (4, 5)  # the two order-7 classes fuse


def test_context_rejects_modular_case(sl32_s8):
    for p in (2, 3, 7):
        with pytest.raises(ModularCaseError):
            build_context(sl32_s8, p, 1)
    with pytest.raises(ValueError):
        build_context(sl32_s8, 6, 1)
    with pytest.raises(ValueError):
        build_context(sl32_s8, 11, 0)


def test_trivial_group_partition():
    G = generate([Permutation.identity(2)])
    ctx = build_context(G, 11, 1)
    part = cyclotomic_partition(ctx)
    assert part.orbits == ((0,),)
    assert component_count_and_degrees(ctx) == (1, (1,))


def test_component_counts(sl32_s8):
    assert component_count_and_degrees(build_context(sl32_s8, 11, 1)) == (6, (1,) * 6)
    assert component_count_and_degrees(build_context(sl32_s8, 13, 1)) == (5, (1, 1, 1, 1, 2))
    assert component_count_and_degrees(build_context(sl32_s8, 13, 2)) == (6, (1,) * 6)


def test_i_q_is_multiplicatively_closed(sl32_s8):
    for p in (11, 13, 29, 97):
        ctx = build_context(sl32_s8, p, 1)
        s = set(ctx.i_q)
        assert 1 in s
        for a in s:
            for b in s:
                assert a * b % ctx.e in s


def test_partition_grid_invariants(sl32_s8):
    for p in GOOD_PRIMES:
        for k in range(1, 13):
            ctx = build_context(sl32_s8, p, k)
            part = cyclotomic_partition(ctx)
            # rational classes stay alone
            for rational in (0, 1, 2, 3):
                assert (rational,) in part.orbits, (p, k)
            merged = any(len(o) == 2 for o in part.orbits)
            assert merged == (pow(p, k, 7) in (3, 5, 6)), (p, k)
            assert sum(part.sizes) == 6
            ordq = len(ctx.i_q)
            assert all(ordq % size == 0 for size in part.sizes)


def test_orbit_closure_under_power_maps(sl32_s8):
    # applying any power map from I_q to any orbit member stays in the orbit
    for p in (13, 23, 41):
        ctx = build_context(sl32_s8, p, 1)
        part = cyclotomic_partition(ctx)
        for orbit in part.orbits:
            for c in orbit:
                for l in ctx.i_q:
                    assert power_class(sl32_s8, c, l) in orbit


def test_exponent_and_gcd(sl32_s8):
    ctx = build_context(sl32_s8, 11, 3)
    assert ctx.e == sl32_s8.exponent == 84
    assert math.gcd(ctx.q, ctx.e) == 1
