import decimal
import math
import re

import pytest

from wedderburn import ModularCaseError, gl_order, sl32_expected_row, solve, unit_group
from wedderburn.cli import _format_units
from wedderburn.units import TYPE1_COMPONENTS, TYPE2_COMPONENTS


def brute_force_gl2_count(q):
    return sum(
        1
        for a in range(q)
        for b in range(q)
        for c in range(q)
        for d in range(q)
        if (a * d - b * c) % q
    )


def test_gl_order_small():
    assert gl_order(1, 7) == 6
    assert gl_order(2, 3) == 48 == brute_force_gl2_count(3)
    assert gl_order(2, 5) == 480 == brute_force_gl2_count(5)
    assert gl_order(3, 2) == 168


def test_gl_order_torus_divisibility():
    for n in range(1, 9):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            assert gl_order(n, q) % (q - 1) ** n == 0


def test_gl_order_rejects():
    with pytest.raises(ValueError):
        gl_order(0, 5)
    with pytest.raises(ValueError):
        gl_order(2, 1)


SL32_FORCED = [(1, 1), (6, 1), (7, 1)]


def test_unit_group_type1():
    # the reference row and solve's candidate
    candidate = solve(168, [1] * 6, SL32_FORCED).solutions[0]
    expected = 10 * gl_order(3, 11) ** 2 * gl_order(6, 11) * gl_order(7, 11) * gl_order(8, 11)
    for blocks in (TYPE1_COMPONENTS, candidate):
        assert _format_units(11, 1, blocks) == "F_11^× × GL(3, 11) × GL(3, 11) × GL(6, 11) × GL(7, 11) × GL(8, 11)"
        assert unit_group(blocks, 11, 1) == expected


def test_unit_group_type2():
    candidate = solve(168, [1, 1, 1, 1, 2], SL32_FORCED).solutions[0]
    expected = 12 * gl_order(6, 13) * gl_order(7, 13) * gl_order(8, 13) * gl_order(3, 169)
    for blocks in (TYPE2_COMPONENTS, candidate):
        assert _format_units(13, 1, blocks) == "F_13^× × GL(6, 13) × GL(7, 13) × GL(8, 13) × GL(3, 13^2)"
        assert unit_group(blocks, 13, 1) == expected


def test_unit_group_trivial():
    blocks = ((1, 1),)
    assert _format_units(11, 1, blocks) == "F_11^×"
    assert unit_group(blocks, 11, 1) == 10


def test_unit_group_over_an_extension_field():
    # over F_{13^2} the d = 2 block sits over F_{13^4}
    assert _format_units(13, 2, TYPE2_COMPONENTS) == (
        "F_13^2^× × GL(6, 13^2) × GL(7, 13^2) × GL(8, 13^2) × GL(3, 13^4)")
    assert unit_group(TYPE2_COMPONENTS, 13, 2) == (
        168 * gl_order(6, 169) * gl_order(7, 169) * gl_order(8, 169) * gl_order(3, 13**4))


@pytest.mark.parametrize("blocks,p,k", [
    *((components, p, k) for components in (TYPE1_COMPONENTS, TYPE2_COMPONENTS)
      for p, k in ((11, 1), (13, 2), (199, 12))),
    (((1, 1), (2, 3), (5, 2), (4, 4)), 13, 3),
])
def test_unit_group_is_the_exact_gl_order_product(blocks, p, k):
    # an exact Decimal: equal to the int product of gl_order, hashed like it,
    # an int again under int(), and printed as plain digits; at p = 199,
    # k = 12 beyond the default int-to-str digit limit of 4300
    want = math.prod(gl_order(n, p ** (k * d)) for n, d in blocks)
    order = unit_group(blocks, p, k)
    assert isinstance(order, decimal.Decimal)
    assert order == want and hash(order) == hash(want)
    assert int(order) == want
    digits = str(order)
    assert re.fullmatch(r"[1-9][0-9]*", digits)
    assert digits == str(decimal.Decimal(want))


@pytest.mark.parametrize("blocks,k", [(((0, 1),), 1), (((1, 1), (3, 0)), 1), (((1, 1),), 0)])
def test_unit_group_rejects_n_d_or_k_below_one(blocks, k):
    with pytest.raises(ValueError):
        unit_group(blocks, 11, k)


def test_reference_rule_by_residue():
    # type 1 exactly when q = p^k is a square mod 7: for k even always, for
    # k odd iff p is; one prime per residue p mod 7 = 1..6
    type1 = 0
    for p in (29, 23, 17, 11, 5, 13):
        for k in range(1, 7):
            row = sl32_expected_row(p, k)
            want = 1 if k % 2 == 0 or p % 7 in (1, 2, 4) else 2
            assert row.family_type == want, (p, k)
            assert row.components == (TYPE1_COMPONENTS if want == 1 else TYPE2_COMPONENTS)
            assert sl32_expected_row(p, k + 6) == row
            type1 += want == 1
    assert type1 == 27


def test_reference_rows():
    assert sl32_expected_row(11, 6).family_type == 1  # k = 6l row covers every p
    assert sl32_expected_row(13, 6).family_type == 1
    assert sl32_expected_row(13, 5).family_type == 2  # 13 = -1 mod 7, k = 6l+5
    assert sl32_expected_row(13, 5).components == TYPE2_COMPONENTS
    assert sl32_expected_row(29, 1).family_type == 1  # 29 = 1 mod 7
    with pytest.raises(ValueError):
        sl32_expected_row(7, 1)


def test_reference_row_rejects_the_modular_primes():
    # |SL(3,2)| = 168 = 2^3 3 7: every prime divisor is the modular case
    for p in (2, 3, 7):
        with pytest.raises(ModularCaseError):
            sl32_expected_row(p, 1)


def test_reference_row_exists_only_for_fields():
    # no row for a p that is not prime, checked first, nor for k < 1,
    # checked after the modular case, as cyclotomic_partition rejects both
    for p in (25, 21, 6, 1, 0, -11):
        for k in (1, 0):
            with pytest.raises(ValueError, match="not prime"):
                sl32_expected_row(p, k)
    for p, k in ((11, 0), (11, -1), (13, -2)):
        with pytest.raises(ValueError, match="k must be positive"):
            sl32_expected_row(p, k)
    with pytest.raises(ModularCaseError):
        sl32_expected_row(3, -1)


def test_unit_group_matches_reference_for_sample_grid():
    for p in (5, 11, 13, 29, 199):
        for k in (1, 2, 3, 6, 12):
            row = sl32_expected_row(p, k)
            want = math.prod(gl_order(n, p ** (k * d)) for n, d in row.components)
            assert unit_group(row.components, p, k) == want
