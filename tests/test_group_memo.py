"""The q-independent data a group keeps: power classes and the permutation
character's (points, norm) pair are computed at most once per group, give
the answers a fresh computation gives, and stay with their own group."""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from wedderburn import (
    Permutation,
    analytic_decomposition,
    builtin_s5,
    builtin_sl32_on_p2f2,
    builtin_sl32_s8,
    deleted_module_check,
    inner_product,
    is_prime,
    load_group,
    perm_character,
    power_class,
)
from wedderburn import charkit

GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"

# the cells of `check --p 5,11..199 --k 1..12`
GRID = [(p, k) for p in [5] + [p for p in range(11, 200) if is_prime(p)] for k in range(1, 13)]

# fresh groups, so no memo is shared with another test
FRESH_GROUPS = {
    **{f"builtin:{make.__name__}": make.__wrapped__ for make in (builtin_sl32_s8, builtin_sl32_on_p2f2, builtin_s5)},
    **{f.stem: (lambda f=f: load_group(f)) for f in sorted(GROUP_DIR.glob("*.txt"))},
}


def fresh_sl32_actions():
    G = builtin_sl32_s8.__wrapped__()
    return G, [G, builtin_sl32_on_p2f2.__wrapped__()]


def totient(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_grid_computes_each_power_and_character_once(monkeypatch):
    G, actions = fresh_sl32_actions()
    powers, characters = [], []
    pow_, chi = Permutation.__pow__, charkit.perm_character
    monkeypatch.setattr(Permutation, "__pow__", lambda g, m: powers.append(m) or pow_(g, m))
    monkeypatch.setattr(charkit, "perm_character", lambda H: characters.append(H) or chi(H))
    assert len(GRID) == 516
    for p, k in GRID:
        analytic_decomposition(G, p, k, actions)
    # q is a unit mod every element order, so the class of order o meets phi(o) residues
    assert [c.element_order for c in G.classes] == [1, 2, 3, 4, 7, 7]
    assert len(powers) == sum(totient(c.element_order) for c in G.classes) == 18
    assert characters == actions  # the fixed points are counted once per action


@pytest.mark.parametrize("name", sorted(FRESH_GROUPS))
def test_power_class_matches_repeated_products(name):
    # the reference powers the representative by repeated Permutation products
    G = FRESH_GROUPS[name]()
    e = G.exponent
    expected = {}
    for ci, c in enumerate(G.classes):
        g, ginv = c.representative, c.representative.inverse()
        x = Permutation.identity(G.degree)
        for m in range(2 * e + 1):
            expected[ci, m] = int(G.class_index_of[G.index(x)])
            x = x * g
        x = Permutation.identity(G.degree)
        for m in range(1, e + 1):
            x = x * ginv
            expected[ci, -m] = int(G.class_index_of[G.index(x)])
    queries = sorted(expected)
    random.Random(name).shuffle(queries)
    for ci, m in queries:
        assert power_class(G, ci, m) == expected[ci, m], (name, ci, m)


def test_copies_of_a_group_keep_separate_memos(monkeypatch):
    powers = []
    pow_ = Permutation.__pow__
    monkeypatch.setattr(Permutation, "__pow__", lambda g, m: powers.append(m) or pow_(g, m))
    G1, G2 = builtin_sl32_s8.__wrapped__(), builtin_sl32_s8.__wrapped__()
    answers = []
    for G in (G1, G2):
        answers.append([power_class(G, ci, m) for ci in range(len(G.classes)) for m in range(84)])
        # every residue mod each order, 1 + 2 + 3 + 4 + 7 + 7, computed on this copy alone
        assert len(powers) == sum(c.element_order for c in G.classes) == 24
        powers.clear()
    assert answers[0] == answers[1]
    assert deleted_module_check(G1, 11) and deleted_module_check(G2, 11)
    assert G1._perm_norm == G2._perm_norm == (8, 2) and G1._power_classes is not G2._power_classes


@pytest.mark.parametrize("name", sorted(FRESH_GROUPS))
def test_deleted_module_check_matches_a_recomputed_character(name):
    G = FRESH_GROUPS[name]()
    for p in [p for p in range(5, 200) if is_prime(p)] + [2**31 + 11]:
        chi = perm_character(G)
        w = chi[0]
        expected = inner_product(G, chi, chi) == 2 and w % p != 0 and G.order // (w * (w - 1)) % p != 0
        assert deleted_module_check(G, p) == expected, (name, p)


def test_grid_from_four_threads_matches_a_serial_run():
    G, actions = fresh_sl32_actions()
    serial = [analytic_decomposition(G, p, k, actions) for p, k in GRID]
    H, fresh_actions = fresh_sl32_actions()
    start = threading.Barrier(4)

    def run(seed):
        order = list(range(len(GRID)))
        random.Random(seed).shuffle(order)
        start.wait()
        reports = [None] * len(GRID)
        for i in order:
            reports[i] = analytic_decomposition(H, *GRID[i], fresh_actions)
        return reports

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside each memo's check-then-write
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(run, seed) for seed in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(reports == serial for reports in results)
    assert H._power_classes == G._power_classes and len(H._power_classes) == 18
    assert H._perm_norm == G._perm_norm and fresh_actions[1]._perm_norm == actions[1]._perm_norm
