"""Permutations, finite permutation groups, and conjugacy-class data.

Groups are stored fully enumerated: FiniteGroup computes the breadth-first
closure of its generators, the dense element list, the generators' right
action on it, and conjugacy classes ordered by (element order, class size,
first-seen index).  Points are 1-indexed in all input and output (cycle
notation, group files) and 0-indexed internally.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Permutation",
    "ConjClass",
    "FiniteGroup",
    "parse_cycles",
    "generate",
    "power_class",
    "builtin_sl32_s8",
    "builtin_sl32_on_p2f2",
    "builtin_s5",
    "BUILTIN_GROUPS",
    "parse_group_text",
    "load_group",
]

DEFAULT_CAP = 100_000

_CYCLE_PRODUCT = re.compile(r"(?:\(\d+(?:,\d+)*\))+")
_CYCLE_TOKEN = re.compile(r"\((\d+(?:,\d+)*)\)")


class Permutation:
    """A bijection of {1..degree}, stored as a 0-indexed image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"images {imgs} are not a bijection on 0..{len(imgs) - 1}")
        self.images = imgs

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(a*b)(i) = a(b(i))."""
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        oi = other.images
        si = self.images
        return Permutation(si[oi[i]] for i in range(len(si)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def __pow__(self, m: int) -> "Permutation":
        m %= self.order()
        result = Permutation.identity(self.degree)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 1-indexed tuples, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i + 1)
                i = self.images[i]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}; deg {self.degree}]"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse a product of disjoint cycles such as "(3,7,5)(4,8,6)".

    Whitespace is ignored.  "" and "()" denote the identity.  Points must lie
    in 1..degree and may appear at most once across the whole product.
    """
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    s = "".join(text.split())
    if s in ("", "()"):
        return Permutation.identity(degree)
    if not _CYCLE_PRODUCT.fullmatch(s):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for m in _CYCLE_TOKEN.finditer(s):
        pts = [int(x) for x in m.group(1).split(",")]
        for x in pts:
            if not 1 <= x <= degree:
                raise ValueError(f"point {x} out of range 1..{degree}")
            if x in seen:
                raise ValueError(f"point {x} repeated in {text!r}")
            seen.add(x)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b - 1
    return Permutation(images)


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class: representative, size, common element order, and
    the member positions in the parent group's element list."""

    representative: Permutation
    size: int
    element_order: int
    indices: frozenset[int]


class FiniteGroup:
    """The permutation group generated by a nonempty list of permutations of
    common degree, fully enumerated.

    The element list is the breadth-first closure of the generators from the
    identity: g_0 is the identity and each later g_c is first reached as
    g_j * gens[s] with j < c, so the same generator list always yields the
    same ordering.  Raises ValueError if the closure would exceed ``cap``
    elements.  Immutable after construction; safe for concurrent reads.  The
    multiplication table (the only |G| x |G| structure), the inverse indices
    and the class-product coefficients are built lazily, cached and
    read-only.
    """

    def __init__(self, generators, cap: int = DEFAULT_CAP):
        gens = tuple(generators)
        if not gens:
            raise ValueError("generator list must be nonempty")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a common degree")
        ident = Permutation.identity(degree)
        elements = [ident]
        index = {ident.images: 0}
        parents = [None]  # parents[c] = (j, s) with g_c = g_j * gens[s]
        right = [[] for _ in gens]  # right[s][j] = index of g_j * gens[s]
        for j, x in enumerate(elements):  # the list grows while it is walked
            for s, g in enumerate(gens):
                y = x * g
                c = index.get(y.images)
                if c is None:
                    if len(elements) >= cap:
                        raise ValueError(f"group closure exceeds cap of {cap} elements")
                    c = index[y.images] = len(elements)
                    elements.append(y)
                    parents.append((j, s))
                right[s].append(c)
        self.generators = gens
        self.elements = tuple(elements)
        self.degree = degree
        self.order = len(elements)
        self._index = index
        self._parents = parents
        self._right = [np.array(r, dtype=np.int32) for r in right]
        self.classes, self.class_index_of = _conjugacy_partition(self.elements, self.generators, self._index)
        self.exponent = math.lcm(*(c.element_order for c in self.classes))
        self._mul_table: np.ndarray | None = None
        self._inv_indices: np.ndarray | None = None
        self._class_coeffs: np.ndarray | None = None

    def index(self, g: Permutation) -> int:
        try:
            return self._index[g.images]
        except KeyError:
            raise ValueError(f"{g!r} is not an element of this group") from None

    def __contains__(self, g) -> bool:
        return isinstance(g, Permutation) and g.images in self._index

    @property
    def mul_table(self) -> np.ndarray:
        """int32 array with T[a, j] = index of g_a * g_j, the group's one
        |G| x |G| table.  Column 0 is the identity's; the others are filled
        in element order from the generators' right action recorded by the
        closure: when g_c = g_j * gens[s] (j < c), T[:, c] = R_s[T[:, j]]
        with R_s[i] = index of g_i * gens[s]."""
        if self._mul_table is None:
            n = self.order
            table = np.empty((n, n), dtype=np.int32)
            table[:, 0] = np.arange(n)
            for c in range(1, n):
                j, s = self._parents[c]
                table[:, c] = self._right[s][table[:, j]]
            table.setflags(write=False)
            self._mul_table = table
        return self._mul_table

    @property
    def inverse_indices(self) -> np.ndarray:
        """Array whose entry i is the index of g_i^-1."""
        if self._inv_indices is None:
            self._inv_indices = np.array([self._index[g.inverse().images] for g in self.elements])
            self._inv_indices.setflags(write=False)
        return self._inv_indices

    def point_orbits(self) -> list[list[int]]:
        """Orbits of the group on its 0-indexed points."""
        seen = [False] * self.degree
        orbits = []
        for start in range(self.degree):
            if seen[start]:
                continue
            orb = [start]
            seen[start] = True
            queue = [start]
            while queue:
                x = queue.pop()
                for g in self.generators:
                    y = g(x)
                    if not seen[y]:
                        seen[y] = True
                        orb.append(y)
                        queue.append(y)
            orbits.append(sorted(orb))
        return orbits

    def class_product_coefficients(self) -> np.ndarray:
        """Integer structure constants of the class sums as an int64 array
        c of shape (m, m, m): K_i * K_j = sum_k c[i, j, k] * K_k in the group
        ring over the integers, K_i the sum of class i.  For a fixed z in
        class k, c[i, j, k] counts the x in K_i with x^-1 z in K_j; so only
        the m columns of the table at the class representatives are read."""
        if self._class_coeffs is None:
            m = len(self.classes)
            cls = np.array(self.class_index_of)
            coeffs = np.empty((m, m, m), dtype=np.int64)
            for k, c in enumerate(self.classes):
                left_quotients = self.mul_table[self.inverse_indices, self.index(c.representative)]
                coeffs[:, :, k] = np.bincount(cls * m + cls[left_quotients], minlength=m * m).reshape(m, m)
            sizes = np.array([c.size for c in self.classes])
            if not np.array_equal(coeffs @ sizes, np.outer(sizes, sizes)):
                raise ArithmeticError("class products do not have |K_i| * |K_j| terms")
            coeffs.setflags(write=False)
            self._class_coeffs = coeffs
        return self._class_coeffs

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree}, classes={len(self.classes)})"


def _conjugacy_partition(elements, generators, index):
    """Partition the element list into conjugacy classes.

    Classes are ordered by (element order, size, first-seen index); the
    representative is the first-seen member, so the labelling is a
    deterministic function of the enumeration order.
    """
    n = len(elements)
    gen_invs = [g.inverse() for g in generators]
    assigned = [False] * n
    raw = []
    for start in range(n):
        if assigned[start]:
            continue
        members = {start}
        queue = [start]
        assigned[start] = True
        while queue:
            x = queue.pop()
            gx = elements[x]
            for g, gi in zip(generators, gen_invs):
                y = index[(g * gx * gi).images]
                if y not in members:
                    members.add(y)
                    assigned[y] = True
                    queue.append(y)
        raw.append((elements[start].order(), len(members), start, members))
    raw.sort(key=lambda t: (t[0], t[1], t[2]))
    classes = tuple(
        ConjClass(
            representative=elements[first],
            size=size,
            element_order=order,
            indices=frozenset(members),
        )
        for order, size, first, members in raw
    )
    class_index_of = [0] * n
    for ci, c in enumerate(classes):
        for i in c.indices:
            class_index_of[i] = ci
    return classes, tuple(class_index_of)


def generate(gens, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The group generated by a nonempty generator list of common degree:
    FiniteGroup(gens, cap), its breadth-first closure."""
    return FiniteGroup(gens, cap)


def power_class(G: FiniteGroup, class_index: int, m: int) -> int:
    """Index of the class containing (representative of class_index) ** m."""
    rep = G.classes[class_index].representative
    return G.class_index_of[G.index(rep**m)]


@lru_cache(maxsize=None)
def builtin_sl32_s8() -> FiniteGroup:
    """SL(3,2) in its degree-8 permutation representation."""
    gens = [parse_cycles("(3,7,5)(4,8,6)", 8), parse_cycles("(1,2,6)(3,4,8)", 8)]
    G = generate(gens)
    if G.order != 168:
        raise RuntimeError(f"builtin sl32-s8 generated order {G.order}, expected 168")
    return G


def _gl3_f2_action(matrix: list[list[int]]) -> Permutation:
    # Points 1..7 are the nonzero vectors of F_2^3; point i has bits (i>>2, i>>1, i) & 1.
    images = [0] * 7
    for i in range(1, 8):
        v = ((i >> 2) & 1, (i >> 1) & 1, i & 1)
        w = [sum(matrix[r][c] * v[c] for c in range(3)) % 2 for r in range(3)]
        j = (w[0] << 2) | (w[1] << 1) | w[2]
        images[i - 1] = j - 1
    return Permutation(images)


@lru_cache(maxsize=None)
def builtin_sl32_on_p2f2() -> FiniteGroup:
    """SL(3,2) acting on the 7 points of the projective plane over F_2.

    Generated by the cyclic coordinate shift and one transvection; the
    constructor verifies the expected order and fails loudly otherwise.
    """
    shift = _gl3_f2_action([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    transvection = _gl3_f2_action([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    G = generate([shift, transvection])
    if G.order != 168:
        raise RuntimeError(f"builtin sl32-p2f2 generated order {G.order}, expected 168")
    return G


@lru_cache(maxsize=None)
def builtin_s5() -> FiniteGroup:
    """The symmetric group on 5 points in its natural action."""
    return generate([parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)])


BUILTIN_GROUPS = {
    "sl32-s8": builtin_sl32_s8,
    "sl32-p2f2": builtin_sl32_on_p2f2,
    "s5": builtin_s5,
}


def parse_group_text(text: str, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Parse the group file format: a `degree N` header line followed by one
    generator per non-empty line in cycle notation; `#` starts a comment."""
    lines = []
    for rawline in text.splitlines():
        line = rawline.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("group file is empty")
    m = re.fullmatch(r"degree\s+(\d+)", lines[0])
    if not m:
        raise ValueError(f"group file must start with 'degree N', got {lines[0]!r}")
    degree = int(m.group(1))
    if degree < 1:
        raise ValueError("degree must be positive")
    gens = [parse_cycles(line, degree) for line in lines[1:]]
    if not gens:
        gens = [Permutation.identity(degree)]
    return generate(gens, cap=cap)


def load_group(path, cap: int = DEFAULT_CAP) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read(), cap=cap)
