"""A third route to the paper's number: count the units of F_q[G] one by one.

An element a of F_q[G] is a unit exactly when left multiplication by it is
invertible, and that map is a (k|G|)-square matrix over F_p.  So the test
enumerates all q^|G| elements in chunks, builds their left-regular matrices
from a multiplication table it computes itself, and counts the full-rank
ones with one batched elimination mod p per chunk.  The count shares no
step with the analytic pipeline or the oracle; it is compared with the
order that `units --format json` prints, the product of |GL(n, q^d)| over
the blocks.  Cells above about 10^5 elements are marked slow.
"""

import json

import numpy as np
import pytest

from wedderburn import cli

CHUNK = 50_000  # elements per batched elimination

# name -> generators as cycle strings, with the degree they act on
GROUPS = {
    "C2": (2, ["(1,2)"]),
    "C3": (3, ["(1,2,3)"]),
    "C4": (4, ["(1,2,3,4)"]),
    "C5": (5, ["(1,2,3,4,5)"]),
    "C6": (6, ["(1,2,3,4,5,6)"]),
    "C7": (7, ["(1,2,3,4,5,6,7)"]),
    "C8": (8, ["(1,2,3,4,5,6,7,8)"]),
    "C2xC2": (4, ["(1,2)", "(3,4)"]),
    "C2xC4": (6, ["(1,2)", "(3,4,5,6)"]),
    "C2^3": (6, ["(1,2)", "(3,4)", "(5,6)"]),
    "S3": (3, ["(1,2,3)", "(1,2)"]),
    "D4": (4, ["(1,2,3,4)", "(1,3)"]),
    "Q8": (8, ["(1,3,2,4)(5,7,6,8)", "(1,5,2,6)(3,8,4,7)"]),
}

# (group, p, k), p >= 5 and p not dividing |G|: at most about 10^5 elements
CELLS = [
    ("C2", 5, 1), ("C2", 7, 1), ("C2", 11, 1), ("C2", 13, 1),
    ("C3", 5, 1), ("C3", 7, 1), ("C3", 11, 1), ("C3", 13, 1),
    ("C4", 5, 1), ("C4", 7, 1), ("C4", 11, 1), ("C4", 13, 1),
    ("C2xC2", 5, 1), ("C2xC2", 7, 1), ("C2xC2", 11, 1),
    ("C5", 7, 1), ("C6", 5, 1), ("C7", 5, 1), ("S3", 5, 1),
    ("C2", 5, 2), ("C3", 5, 2), ("C2", 7, 2), ("C2", 11, 2),
]
# 117,649 to 390,625 elements each
SLOW_CELLS = [
    ("C8", 5, 1), ("C2xC4", 5, 1), ("C2^3", 5, 1), ("D4", 5, 1), ("Q8", 5, 1),
    ("S3", 7, 1), ("C5", 11, 1), ("C4", 5, 2),
]


def parse_perm(cycles: str, degree: int) -> tuple:
    image = list(range(degree))
    for cycle in cycles.strip("()").split(")("):
        points = [int(x) - 1 for x in cycle.split(",")]
        for a, b in zip(points, points[1:] + points[:1]):
            image[a] = b
    return tuple(image)


def multiplication_table(degree: int, gens) -> np.ndarray:
    """T[g, h] = the index of g*h (apply h, then g) in the closure of gens."""
    gens = [parse_perm(g, degree) for g in gens]
    elements = [tuple(range(degree))]
    index = {elements[0]: 0}
    for x in elements:  # grows while it is read: a breadth-first closure
        for s in gens:
            y = tuple(x[s[i]] for i in range(degree))
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    return np.array([[index[tuple(g[h[i]] for i in range(degree))] for h in elements] for g in elements])


def field_matrices(p: int, k: int, coeffs: np.ndarray) -> np.ndarray:
    """The k x k matrices over F_p of multiplication by coeffs[..., :k] in F_p[x]/(x^2 - r), r a non-square."""
    if k == 1:
        return coeffs[..., None]
    r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    a, b = coeffs[..., 0], coeffs[..., 1]
    return np.stack([np.stack([a, r * b % p], -1), np.stack([b, a], -1)], -2)


def count_full_rank(M: np.ndarray, p: int) -> int:
    """The number of invertible matrices over F_p in the batch M of shape (B, N, N)."""
    M = M % p
    B, N, _ = M.shape
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)])
    rows = np.arange(B)
    full = np.ones(B, dtype=bool)
    for c in range(N):
        nonzero = M[:, c:, c] != 0
        full &= nonzero.any(axis=1)
        pivot = c + nonzero.argmax(axis=1)
        M[rows, c], M[rows, pivot] = M[rows, pivot], M[rows, c].copy()
        M[:, c] = M[:, c] * inverse[M[:, c, c]][:, None] % p
        M[:, c + 1:] = (M[:, c + 1:] - M[:, c + 1:, c, None] * M[:, None, c]) % p
    return int(full.sum())


def count_units(table: np.ndarray, p: int, k: int) -> int:
    """Units of F_q[G], q = p^k, by the rank of every element's left-regular matrix over F_p."""
    n = len(table)
    total = p ** (n * k)
    powers = p ** np.arange(n * k, dtype=np.int64)
    units = 0
    for start in range(0, total, CHUNK):
        idx = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        coeffs = (idx[:, None] // powers % p).reshape(-1, n, k)  # coeffs[:, g]: a_g in F_q
        blocks = field_matrices(p, k, coeffs)  # (B, n, k, k)
        M = np.zeros((len(idx), n * k, n * k), dtype=np.int64)
        for g in range(n):
            for y in range(n):  # a_g * y lands on g*y: column y, row g*y
                h = table[g, y]
                M[:, h * k:(h + 1) * k, y * k:(y + 1) * k] = blocks[:, g]
        units += count_full_rank(M, p)
    return units


def printed_order(tmp_path, capsys, name: str, p: int, k: int) -> int:
    degree, gens = GROUPS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(f"degree {degree}\n" + "".join(g + "\n" for g in gens))
    code = cli.main(["units", "--group", f"file:{path}", "--p", str(p), "--k", str(k), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0, out
    return int(json.loads(out)["order"])


def test_count_full_rank_matches_small_cases():
    # GL(2, 5) has 480 elements; the 625 matrices over F_5, one per batch entry
    idx = np.arange(625)
    M = np.stack([idx % 5, idx // 5 % 5, idx // 25 % 5, idx // 125], -1).reshape(-1, 2, 2)
    assert count_full_rank(M, 5) == 480
    # F_25 has 24 units: multiplication by each of its 25 elements
    coeffs = np.stack([idx[:25] % 5, idx[:25] // 5], -1)
    assert count_full_rank(field_matrices(5, 2, coeffs), 5) == 24


@pytest.mark.parametrize("name,p,k", CELLS, ids=[f"{g}-{p}^{k}" for g, p, k in CELLS])
def test_units_order_counts_the_units(tmp_path, capsys, name, p, k):
    table = multiplication_table(*GROUPS[name])
    assert count_units(table, p, k) == printed_order(tmp_path, capsys, name, p, k)


@pytest.mark.slow
@pytest.mark.parametrize("name,p,k", SLOW_CELLS, ids=[f"{g}-{p}^{k}" for g, p, k in SLOW_CELLS])
def test_units_order_counts_the_units_slow(tmp_path, capsys, name, p, k):
    table = multiplication_table(*GROUPS[name])
    assert count_units(table, p, k) == printed_order(tmp_path, capsys, name, p, k)
