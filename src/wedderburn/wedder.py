"""Analytic Artin-Wedderburn solver.

Combines three exact ingredients: the block count and center degrees from
the q-power orbits, matrix blocks forced by doubly transitive permutation
actions, and the mass constraint sum(d * n^2) = |G|.  The solver enumerates
every assignment of matrix sizes to the remaining center-degree slots: a
table of exact reachability on the mass above the all-1 x 1 filling marks
which partial fillings can still be completed, and one walk over only those
lists each candidate once, already in final order, as a tuple of plain
(n, d) pairs in (d, n) order.  It reports whether the constraints pin the
decomposition uniquely.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .charkit import deleted_module_check
from .cyclo import cyclotomic_partition
from .errors import ModularCaseError
from .perm import FiniteGroup

__all__ = [
    "SolverReport",
    "analytic_decomposition",
    "forced_components",
    "solve",
    "sl32_type",
    "splitting_field_check",
    "is_sl32_class_data",
    "SL32_CLASS_SIZES",
]

SL32_CLASS_SIZES = (1, 21, 56, 42, 24, 24)
SL32_CLASS_ORDERS = (1, 2, 3, 4, 7, 7)


@dataclass(frozen=True)
class SolverReport:
    """The candidates of one solve, each a tuple of (n, d) pairs in (d, n)
    order; analytic_decomposition also keeps the q-power cycles the center
    degrees were read from, so a caller reads the SL(3,2) type off them
    without computing them again."""

    solutions: tuple[tuple[tuple[int, int], ...], ...]
    partition: tuple[tuple[int, ...], ...] = ()

    @property
    def unique(self) -> bool:
        return len(self.solutions) == 1


def forced_components(G: FiniteGroup, p: int, actions) -> list[tuple[int, int]]:
    """Blocks forced a priori, as (n, d) pairs: the trivial block (1, 1),
    plus one block (points - 1, 1) over the base field for every action
    whose deleted module certifies irreducible in characteristic p."""
    if G.order % p == 0:
        raise ModularCaseError(p, G.order)
    comps = [(1, 1)]
    for action in actions:
        if deleted_module_check(action, p):
            comps.append((action.degree - 1, 1))
    return comps


def solve(group_order: int, degrees, forced) -> SolverReport:
    """Enumerate all decompositions consistent with the given center degrees
    and forced (n, d) blocks: each candidate a tuple of (n, d) int pairs in
    (d, n) order, the candidates in the order of those tuples.

    Every forced block consumes one degree-1 slot.  The remaining slots are
    filled with all matrix sizes n >= 1 such that the total mass equals the
    group order.  The search runs on the excess, the mass above the filling
    by 1 x 1 blocks alone, to which a block of size n over degree d adds
    d * (n^2 - 1): no candidate when it is negative, the all-1 x 1 one when
    it is 0.  The slots of one degree form a run.  A table of exact
    reachability keeps, for each run, count j of its slots above 1 x 1 and
    least size b, one int bitset of the excesses those j slots and the
    later runs can take: per run and j, at most sqrt(excess) + 2 bitsets
    of excess + 1 bits, whatever |G| is.  One walk over an explicit stack
    then enters only states that end in a candidate.

    Why the walk emits in final order: every candidate has the same
    degrees, so the (d, n) order compares the sizes run by run, each run's
    sizes rising, and the first size where two candidates differ decides.
    Merging the forced sizes into the degree-1 sizes keeps that decision
    (the smaller free size stays the smaller merged one).  So a depth-first
    walk that fills each run's slots in rising order and tries the smaller
    size first meets the candidates in final order: it takes a run's 1 x 1
    blocks in one step, the most of them first, then the other sizes
    rising, and places the forced sizes as it passes them.  The last slot
    of the last run closes as a square and its last two as a sum of two
    squares.  Each candidate is built once as a tuple of shared (n, d)
    pairs.  Raises ValueError for a center degree below 1 and when a
    candidate lacks the trivial (1, 1) block.
    """
    degrees = sorted(degrees)
    for d in degrees:
        if d < 1:
            raise ValueError(f"center degree {d} must be at least 1")
    for c in forced:
        if c[1] != 1:
            raise ValueError(f"forced component {c} must sit over a degree-1 slot")
    ones = degrees.count(1)
    if len(forced) > ones:
        raise ValueError(
            f"{len(forced)} forced components exceed the {ones} available degree-1 slots"
        )
    forced_mass = sum(n * n for n, _ in forced)
    if forced_mass > group_order:
        raise ValueError(f"forced mass {forced_mass} exceeds group order {group_order}")
    slots = degrees[len(forced):]
    excess = group_order - forced_mass - sum(slots)
    if excess < 0:
        return SolverReport(solutions=())
    head = sorted(n for n, _ in forced)
    mask = (2 << excess) - 1
    # runs[r] = (d, free slots, rows, pairs, forced pairs, cut) for the r-th least degree d:
    # rows[j][b] holds the excesses that j slots of sizes >= b, then runs r + 1.., can take;
    # pairs[n] is the shared (n, d); cut[n] counts the forced sizes <= n, placed before a free n
    runs = []
    reach = 1  # the excesses the runs after this one can take: 0 alone after the last
    for d in sorted(set(degrees), reverse=True):
        free = slots.count(d)
        top = math.isqrt(excess // d + 1)  # the largest size whose block fits the excess
        rows = [[reach] * (top + 2)]
        for j in range(1, min(free, excess // (3 * d)) + 1):  # a slot above 1 x 1 adds at least 3d
            below, row = rows[-1], [0] * (top + 2)
            # j slots of sizes >= b take at least j * d * (b^2 - 1): above this b the row is empty
            for b in range(math.isqrt(excess // (j * d) + 1), 1, -1):
                row[b] = row[b + 1] | (below[b] << d * (b * b - 1)) & mask
            rows.append(row)
        reach = 0
        for row in rows:
            reach |= row[2]
        fixed = [(n, 1) for n in head] if d == 1 else []
        cut = [bisect.bisect_right(head, n) for n in range(top + 1)] if fixed else [0] * (top + 1)
        runs.append((d, free, rows, [(n, d) for n in range(top + 1)], fixed, cut))
    runs.reverse()
    if not reach >> excess & 1:
        return SolverReport(solutions=())
    last = len(runs) - 1
    squares = {}  # s -> the sizes 2 <= a <= c with a^2 + c^2 = s, a rising
    found = []
    out = []  # the pairs placed so far
    # (run, slots above 1 x 1 left after this entry or -1 to open the run, the size it places
    # or 1 for the run's 1 x 1 blocks, excess left, len(out) before it, forced sizes placed before it)
    stack = [(0, -1, 0, excess, 0, 0)]
    while stack:
        r, j, b, e, mark, h = stack.pop()
        del out[mark:]
        if j < 0:
            if r > last:
                found.append(tuple(out))
            else:  # one entry per count of slots above 1 x 1 the excess allows, the fewest popped first
                rows = runs[r][2]
                stack.extend([(r, k, 1, e, mark, 0) for k in range(len(rows) - 1, -1, -1)
                              if rows[k][2] >> e & 1])
            continue
        d, free, rows, pairs, fixed, cut = runs[r]
        if b == 1:
            out.extend(fixed[:cut[1]])
            out.extend([pairs[1]] * (free - j))
        else:
            out.extend(fixed[h:cut[b]])
            out.append(pairs[b])
        h = cut[b]
        if not j:
            out.extend(fixed[h:])
            stack.append((r + 1, -1, 0, e, len(out), 0))
        elif r == last and j == 1:  # the last slot: d * (n^2 - 1) = e
            n = math.isqrt(e // d + 1)
            found.append((*out, *fixed[h:cut[n]], pairs[n], *fixed[cut[n]:]))
        elif r == last and j == 2:  # the last two: a^2 + c^2 = e / d + 2 with b <= a <= c
            s = e // d + 2
            if s not in squares:
                squares[s] = [(a, c) for a in range(2, math.isqrt(s // 2) + 1)
                              for c in [math.isqrt(s - a * a)] if a * a + c * c == s]
            for a, c in squares[s]:
                if a >= b:
                    found.append((*out, *fixed[h:cut[a]], pairs[a], *fixed[cut[a]:cut[c]],
                                  pairs[c], *fixed[cut[c]:]))
        else:  # the next size n >= b leaves j - 1 slots of sizes >= n; the least pops first
            below, mark = rows[j - 1], len(out)
            for n in range(math.isqrt(e // (j * d) + 1), max(b, 2) - 1, -1):
                w = d * (n * n - 1)
                if below[n] >> e - w & 1:
                    stack.append((r, j - 1, n, e - w, mark, h))
    if found and found[-1][:1] != ((1, 1),):
        # the last candidate has the largest least degree-1 size
        raise ValueError("decomposition is missing the trivial (1, 1) block")
    return SolverReport(solutions=tuple(found))


def is_sl32_class_data(G: FiniteGroup) -> bool:
    """Whether the group carries the class statistics of SL(3,2): order 168
    with six classes of sizes (1, 21, 56, 42, 24, 24) and element orders
    (1, 2, 3, 4, 7, 7)."""
    return (
        G.order == 168
        and tuple(c.size for c in G.classes) == SL32_CLASS_SIZES
        and tuple(c.element_order for c in G.classes) == SL32_CLASS_ORDERS
    )


def sl32_type(G: FiniteGroup, partition) -> int:
    """The type of an SL(3,2) cell read off the q-power cycles of G's
    classes: 2 when G's two order-7 classes share a cycle (five blocks, one
    of them over F_{q^2}), else 1 (six blocks over F_q)."""
    idx = [i for i, c in enumerate(G.classes) if c.element_order == 7]
    if len(idx) != 2:
        raise AssertionError("SL(3,2) must have exactly two classes of order-7 elements")
    a, b = idx
    return 2 if any(a in cycle and b in cycle for cycle in partition) else 1


def splitting_field_check(blocks) -> bool:
    """True iff every (n, d) block sits over the base field itself,
    equivalently sum(n^2) = |G|."""
    return all(d == 1 for _, d in blocks)


def analytic_decomposition(G: FiniteGroup, p: int, k: int, actions) -> SolverReport:
    """The full analytic pipeline: center degrees from the q-power orbits,
    forced blocks from the given actions, then exhaustive mass assignment.
    Both inputs are computed, and p and k validated, on every call; solve
    reads only |G|, the sorted degrees and the forced blocks, so its
    candidates are kept on G under those two and solve runs once per
    distinct pair.  The report carries the q-power cycles in its partition
    field, the one cyclotomic_partition call of the pipeline; sl32_type
    reads the SL(3,2) type off them."""
    partition = cyclotomic_partition(G, p, k)
    key = (tuple(sorted(map(len, partition))), tuple(forced_components(G, p, actions)))
    found = G._solutions.get(key)
    if found is None:
        found = G._solutions[key] = solve(G.order, *key).solutions
    return SolverReport(found, partition)
