"""Expected answers computed by the benchmark itself, never by the package.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.  The facts used are the paper's theorem for SL(3,2)
(the type depends only on whether q is a square mod 7), |GL(n, Q)| as a
product, the hook-length formula for S_n, q-cyclotomic cosets for C_n, and
properties every decomposition must have (sum of d * n^2 equals |G|).
"""

from __future__ import annotations

import math

SL32_ORDER = 168
SL32_TYPE1 = ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1))
SL32_TYPE2 = ((1, 1), (6, 1), (7, 1), (8, 1), (3, 2))


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only asks about numbers below 10^4."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def sl32_expected(q: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(type, blocks as (n, d)) of F_q SL(3,2): type 1 iff q is a nonzero square mod 7."""
    if q % 7 in (1, 2, 4):
        return 1, SL32_TYPE1
    return 2, SL32_TYPE2


def gl_order(n: int, Q: int) -> int:
    out = 1
    for i in range(n):
        out *= Q**n - Q**i
    return out


def unit_group_order(q: int, blocks) -> int:
    """Order of the product of GL(n, q^d) over the blocks (n, d)."""
    out = 1
    for n, d in blocks:
        out *= gl_order(n, q**d)
    return out


def parse_decimal(text: str) -> int:
    """Exact value of a decimal string of any length.  Chunks of 1000 digits
    stay below Python's int-from-string digit limit, so this check never
    trips the limit itself."""
    if not text.isdigit():
        raise ValueError(f"not a decimal string: {text[:40]!r}")
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def hook_degrees(n: int) -> list[int]:
    """Degrees of the irreducible characters of S_n, from the hook-length formula."""
    out = []

    def partitions(rest, largest, parts):
        if rest == 0:
            out.append(_hook_degree(parts, n))
            return
        for part in range(min(rest, largest), 0, -1):
            partitions(rest - part, part, parts + [part])

    partitions(n, n, [])
    return sorted(out)


def _hook_degree(shape: list[int], n: int) -> int:
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(n) // hooks


def cyclotomic_coset_sizes(n: int, q: int) -> list[int]:
    """Sizes of the orbits of x -> q*x on Z/n."""
    seen = set()
    sizes = []
    for x in range(n):
        if x in seen:
            continue
        size = 0
        y = x
        while y not in seen:
            seen.add(y)
            size += 1
            y = y * q % n
        sizes.append(size)
    return sorted(sizes)


def _pairs(components) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((c["n"], c["d"]) for c in components))


def check_units(payload: dict, p: int, k: int) -> list[str]:
    """One `units --format json` cell of the SL(3,2) grid."""
    q = p**k
    want_type, want_blocks = sl32_expected(q)
    problems = []
    if payload.get("q") != {"p": p, "k": k}:
        problems.append(f"q echoed as {payload.get('q')}")
    if payload.get("type") != want_type:
        problems.append(f"type {payload.get('type')}, expected {want_type}")
    got = _pairs(payload.get("components", []))
    if got != tuple(sorted(want_blocks)):
        problems.append(f"blocks {got}, expected {tuple(sorted(want_blocks))}")
    fields = sorted((u["n"], u["field"]) for u in payload.get("unit_group", []))
    want_fields = sorted((n, f"{p}^{k * d}") for n, d in want_blocks)
    if fields != want_fields:
        problems.append(f"unit-group factors {fields}, expected {want_fields}")
    try:
        order = parse_decimal(payload.get("order", ""))
    except ValueError as exc:
        problems.append(str(exc))
    else:
        if order != unit_group_order(q, want_blocks):
            problems.append("unit-group order differs from the product of |GL(n, q^d)|")
    return problems


def check_sl32_split(pairs, block_dims, verified: bool, q: int) -> list[str]:
    """One brute-force split of F_q SL(3,2)."""
    problems = []
    want = tuple(sorted(sl32_expected(q)[1]))
    if tuple(sorted(pairs)) != want:
        problems.append(f"blocks {tuple(sorted(pairs))}, expected {want}")
    if not verified:
        problems.append("verify_split returned false")
    if sum(block_dims) != SL32_ORDER:
        problems.append(f"block dimensions sum to {sum(block_dims)}, expected {SL32_ORDER}")
    return problems


def _mass(blocks) -> int:
    return sum(d * n * n for n, d in blocks)


def expected_blocks(kind: tuple, q: int):
    """Blocks the benchmark can predict for a group kind, or None."""
    if kind[0] == "symmetric":
        return tuple(sorted((deg, 1) for deg in hook_degrees(kind[1])))
    if kind[0] == "cyclic":
        return tuple(sorted((1, d) for d in cyclotomic_coset_sizes(kind[1], q)))
    if kind[0] == "sl32":
        return tuple(sorted(sl32_expected(q)[1]))
    return None


def check_zoo(decompose_rc: int, decompose: dict, oracle: dict, order: int, kind: tuple, q: int) -> list[str]:
    """One group file and prime: `decompose` then `oracle`."""
    problems = []
    if decompose_rc == 0:
        candidates = [_pairs(decompose["components"])]
    else:
        candidates = [_pairs(c) for c in decompose["candidates"]]
        if decompose.get("unique") is not False or len(candidates) < 2:
            problems.append("exit 4 without a list of at least two candidates")
    for cand in candidates:
        if _mass(cand) != order:
            problems.append(f"candidate {cand} has mass {_mass(cand)}, expected |G| = {order}")
    blocks = _pairs(oracle["components"])
    if _mass(blocks) != order:
        problems.append(f"oracle blocks {blocks} have mass {_mass(blocks)}, expected |G| = {order}")
    if blocks not in candidates:
        problems.append(f"oracle blocks {blocks} are not among the {len(candidates)} analytic candidates")
    want = expected_blocks(kind, q)
    if want is not None:
        if blocks != want:
            problems.append(f"oracle blocks {blocks}, expected {want}")
        if want not in candidates:
            problems.append(f"expected blocks {want} are not among the analytic candidates")
    return problems
