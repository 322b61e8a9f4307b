"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import json
import math
import random
import time

from wedderburn import (
    AlgebraElement,
    Polynomial,
    analytic_decomposition,
    builtin_sl32_on_p2f2,
    builtin_sl32_s8,
    cli,
    factor,
    deleted_module_check,
    generate,
    gl_order,
    inner_product,
    is_prime,
    make_field,
    parse_cycles,
    perm_character,
    power_class,
    sl32_expected_row,
    sl32_type,
    solve,
    split_center,
    splitting_field_check,
    unit_group,
    verify_split,
)

from test_kernels import random_scalar
from test_perm import point_orbits

GRID_PRIMES = [p for p in range(11, 200) if is_prime(p)]
ORACLE_FIELDS = ((11, 1), (13, 1), (5, 1), (13, 2))

_grid_cache = {}
_split_cache = {}


def _report(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_class_table(capsys):
    t0 = time.perf_counter()
    code = cli.main(["classes", "--group", "builtin:sl32-s8", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    data = json.loads(out)
    ok = (
        code == 0
        and len(data["classes"]) == 6
        and sorted(c["size"] for c in data["classes"]) == [1, 21, 24, 24, 42, 56]
        and sorted(c["order"] for c in data["classes"]) == [1, 2, 3, 4, 7, 7]
        and data["exponent"] == 84
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, "class table", ok)


def test_criterion_2_power_map_fusion():
    G = builtin_sl32_s8()
    a, b = (i for i, c in enumerate(G.classes) if c.element_order == 7)
    ok = (
        power_class(G, a, 2) == a
        and power_class(G, a, 4) == a
        and power_class(G, a, 3) == b
        and power_class(G, a, 5) == b
        and power_class(G, a, 6) == b
        and power_class(G, b, 2) == b
        and power_class(G, b, 4) == b
        and power_class(G, b, 3) == a
    )
    _report(2, "power-map fusion", ok)


def test_criterion_3_forced_components():
    primes = (5, 11, 13, 23, 29, 31, 37, 41, 43)
    s8 = builtin_sl32_s8()
    p2 = builtin_sl32_on_p2f2()
    ok = True
    for p in primes:
        ok = ok and deleted_module_check(s8, p) and deleted_module_check(p2, p)
    forced = {(s8.degree - 1, 1), (p2.degree - 1, 1)}
    ok = ok and forced == {(7, 1), (6, 1)}
    _report(3, "forced components", ok)


def test_criterion_4_reference_grid():
    s8 = builtin_sl32_s8()
    p2 = builtin_sl32_on_p2f2()
    actions = [s8, p2]
    ok = True
    t0 = time.perf_counter()
    for p in GRID_PRIMES + [5]:
        for k in range(1, 13):
            rep = analytic_decomposition(s8, p, k, actions)
            row = sl32_expected_row(p, k)
            dec = rep.solutions[0] if rep.unique else None
            cell_ok = (
                rep.unique
                and dec == row.components
                and sl32_type(s8, rep.partition) == row.family_type
            )
            if cell_ok:
                want = 1
                for n, d in row.components:
                    want *= gl_order(n, p ** (k * d))
                cell_ok = unit_group(dec, p, k) == want
            if not cell_ok:
                print(f"  grid cell p={p} k={k} mismatched")
                ok = False
            _grid_cache[(p, k)] = (dec, row)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    print(f"  grid: {len(_grid_cache)} cells in {elapsed:.2f}s")
    _report(4, "reference grid", ok)


def test_criterion_5_oracle_equivalence():
    G = builtin_sl32_s8()
    type1 = ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1))
    type2 = ((1, 1), (6, 1), (7, 1), (8, 1), (3, 2))
    expected = {(11, 1): type1, (13, 1): type2, (5, 1): type2, (13, 2): type1}
    ok = True
    for p, k in ORACLE_FIELDS:
        spec = make_field(p, k, seed=0)
        t0 = time.perf_counter()
        split = split_center(G, spec, seed=0)
        verified = verify_split(split)
        elapsed = time.perf_counter() - t0
        _split_cache[(p, k)] = split
        field_ok = split.pairs() == expected[(p, k)] and verified and elapsed < 60.0
        print(f"  F_{p}^{k}: blocks {split.pairs()} verified={verified} in {elapsed:.2f}s")
        ok = ok and field_ok
    _report(5, "oracle equivalence", ok)


def test_criterion_6_splitting_field():
    ok = 1 + 36 + 49 + 64 + 9 + 9 == 168
    items = list(_grid_cache.items())
    if not items:
        # stands alone if criterion 4 did not run first
        s8 = builtin_sl32_s8()
        actions = [s8, builtin_sl32_on_p2f2()]
        for p in GRID_PRIMES + [5]:
            for k in range(1, 13):
                rep = analytic_decomposition(s8, p, k, actions)
                items.append(((p, k), (rep.solutions[0], sl32_expected_row(p, k))))
    for (p, k), (dec, row) in items:
        ok = ok and splitting_field_check(dec) == (row.family_type == 1)
    _report(6, "splitting-field criterion", ok)


def test_criterion_7_uniqueness_negative_control():
    rep_weak = solve(168, [1] * 6, [(1, 1)])
    rep_full = solve(168, [1] * 6, [(1, 1), (6, 1), (7, 1)])
    ok = (
        not rep_weak.unique
        and len(rep_weak.solutions) > 1
        and rep_full.unique
        and len(rep_full.solutions) == 1
    )
    _report(7, "uniqueness negative control", ok)


def test_criterion_8_gl_order_oracle():
    def count_invertible_2x2(q):
        return sum(
            1
            for a in range(q)
            for b in range(q)
            for c in range(q)
            for d in range(q)
            if (a * d - b * c) % q
        )

    ok = (
        gl_order(2, 3) == 48 == count_invertible_2x2(3)
        and gl_order(2, 5) == 480 == count_invertible_2x2(5)
        and gl_order(3, 2) == 168
    )
    _report(8, "gl_order oracle", ok)


def test_criterion_9_property_suites():
    ok = True

    # field axioms: 1000 seeded samples across F_11 and F_169
    f11 = make_field(11)
    f169 = make_field(13, 2, seed=0)
    rng = random.Random(99)
    for spec in (f11, f169):
        for _ in range(500):
            a, b, c = (random_scalar(spec, rng) for _ in range(3))
            add, mul = spec.add, spec.mul
            ok = ok and add(add(a, b), c) == add(a, add(b, c))
            ok = ok and mul(mul(a, b), c) == mul(a, mul(b, c))
            ok = ok and mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            if a:
                ok = ok and mul(a, spec.inv(a)) == 1

    # factor round-trip: 200 seeded random polynomials of degree <= 12 per field
    for spec in (f11, f169):
        rng = random.Random(2024)
        for trial in range(200):
            coeffs = [random_scalar(spec, rng) for _ in range(1 + rng.randrange(12))]
            coeffs.append(1 + rng.randrange(spec.p - 1))
            f = Polynomial(spec, coeffs)
            facs = factor(f, seed=trial)
            prod = Polynomial.one(spec)
            for g, m in facs:
                ok = ok and g.is_irreducible()
                prod = math.prod([g] * m, start=prod)
            ok = ok and prod == f.monic()

    # Burnside: inner product with the trivial character counts orbits
    for G in (builtin_sl32_s8(), builtin_sl32_on_p2f2()):
        chi = perm_character(G)
        ok = ok and inner_product(G, chi, (1,) * len(G.classes)) == len(point_orbits(G)) == 1
    H = generate([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3)", 5)])
    chiH = perm_character(H)
    ok = ok and inner_product(H, chiH, (1,) * len(H.classes)) == len(point_orbits(H)) == 3

    # idempotent system: e_i^2 = e_i, e_i e_j = 0, sum e_i = 1
    split = _split_cache.get((11, 1)) or split_center(builtin_sl32_s8(), f11, seed=0)
    es = split.idempotents
    G = builtin_sl32_s8()
    for i, a in enumerate(es):
        for j, b in enumerate(es):
            prod = a * b
            ok = ok and (prod == a if i == j else not prod.arr.any())
    total = AlgebraElement(G, f11, sum(e.arr for e in es) % f11.p)
    ok = ok and total == AlgebraElement.unit(G, f11)

    _report(9, "property suites", ok)
