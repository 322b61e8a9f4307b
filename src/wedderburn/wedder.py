"""Analytic Artin-Wedderburn solver.

Combines three exact ingredients: the block count and center degrees from
the q-power orbits, matrix blocks forced by doubly transitive permutation
actions, and the mass constraint sum(d * n^2) = |G|.  The solver enumerates
every assignment of matrix sizes to the remaining center-degree slots, one
memoized recursion in which each multiset appears once, lists each candidate
as a tuple of plain (n, d) pairs in (d, n) order and reports whether the
constraints pin the decomposition uniquely.
"""

from __future__ import annotations

import itertools
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
    and forced (n, d) blocks, each candidate a tuple of (n, d) int pairs in
    (d, n) order.

    Every forced block consumes one degree-1 slot.  The remaining slots are
    filled with all matrix sizes n >= 1 such that the total mass equals the
    group order.  Sizes never increase within a degree, so each multiset
    appears once.  A slot leaves every later slot at least its degree, the
    mass of a 1 x 1 block, and once the remaining mass is exactly that
    least mass, the all-1 x 1 filling is the only one.  Once the last slots
    share one degree, sizes too small to hold the remaining mass are
    skipped.  The enumeration is memoized on (slot, remaining mass, largest
    n) and holds tuples of int sizes.  Every candidate has the same degree
    multiset, so its (d, n) order is the order of its sizes once the
    degree-1 sizes are merged with the forced ones and every other degree's
    sizes are reversed; the candidates are sorted once on those int tuples,
    and each is built once from shared plain (n, d) pairs.  Raises ValueError for a center degree below 1 and
    when a candidate lacks the trivial (1, 1) block.
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
    target = group_order - forced_mass
    # least[i]: the least mass slots i.. can take, all of them 1 x 1 blocks
    least = list(itertools.accumulate(reversed(slots), initial=0))[::-1]
    # tail[i]: the number of slots i.. when they all have slots[i]'s degree (slots are sorted), else 0
    tail = [len(slots) - i if d == slots[-1] else 0 for i, d in enumerate(slots)]

    memo = {}

    def fill(i: int, rem: int, top: int) -> tuple[tuple[int, ...], ...]:
        """Every filling of slots i.. as sizes n with masses summing to rem,
        n <= top in slot i."""
        if rem <= least[i]:
            return ((1,) * (len(slots) - i),) if rem == least[i] else ()
        if i == len(slots):
            return ()
        found = memo.get((i, rem, top))
        if found is None:
            d = slots[i]
            same = i + 1 < len(slots) and slots[i + 1] == d
            # slots i.. of one degree d and sizes <= n hold at most tail[i] * d * n^2: n >= lo
            lo = math.isqrt((rem - 1) // (d * tail[i])) + 1 if tail[i] else 1
            found = memo[i, rem, top] = tuple(
                (n,) + rest
                for n in range(min(top, math.isqrt((rem - least[i + 1]) // d)), lo - 1, -1)
                for rest in fill(i + 1, rem - d * n * n, n if same else target)
            )
        return found

    # the candidates' positions in (d, n) order: the forced and slot degree-1
    # sizes first, then one segment per higher degree, each read reversed
    free = ones - len(forced)
    cuts = [free] + [i for i in range(free + 1, len(slots)) if slots[i] != slots[i - 1]] + [len(slots)]
    head = tuple(n for n, _ in forced)
    keys = []
    for sol in fill(0, target, target):
        key = sorted(head + sol[:free])
        for a, b in zip(cuts, cuts[1:]):
            key += sol[a:b][::-1]
        keys.append(tuple(key))
    memo.clear()  # fill is a reference cycle; free its entries now
    keys.sort()
    if keys and (not ones or keys[-1][0] != 1):
        # keys[-1] has the largest first size: the least degree-1 size of some candidate exceeds 1
        raise ValueError("decomposition is missing the trivial (1, 1) block")
    # one shared (n, d) pair per size of each degree, one table per position
    pairs = {d: {n: (n, d) for n in range(1, math.isqrt(target // d) + 1)} for d in set(degrees)}
    if head:
        pairs[1].update((n, (n, 1)) for n in head)
    tables = [pairs[d] for d in degrees]
    return SolverReport(solutions=tuple([tuple(map(dict.__getitem__, tables, key)) for key in keys]))


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
    The report carries the q-power cycles in its partition field, the one
    cyclotomic_partition call of the pipeline; sl32_type reads the SL(3,2)
    type off them."""
    partition = cyclotomic_partition(G, p, k)
    forced = forced_components(G, p, actions)
    return SolverReport(solve(G.order, [len(o) for o in partition], forced).solutions, partition)
