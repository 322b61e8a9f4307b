"""Permutations, finite permutation groups, and conjugacy-class data.

Groups are stored fully enumerated: FiniteGroup computes the breadth-first
closure of its generators on image tuples, the dense element list, the
generators' right action on it as integer index maps, the inverse indices
and the conjugacy classes ordered by (element order, class size, first-seen
index); the class constants and the power classes are computed once, on
first use, and mul_table is built on each call.
Permutation is the boundary type callers build and read: the group makes
one per element and multiplies none.  Permutation.__mul__ and inverse stay
as the tests' independent reference for mul_table and inverse_indices,
which the group builds from image tuples and index maps.  Its powers,
cycles and order share one cycle walk.  One orbit walk on int lists,
_orbits, finds the classes here and cyclo's q-power cycles.  A ConjClass
keeps its representative's index; which class each element is in is
recorded once, in FiniteGroup.class_index_of, a read-only int32 array
beside inverse_indices.
Points are 1-indexed in all input and output (cycle notation, group files)
and 0-indexed internally.
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
        """(a*b)(i) = a(b(i)).  A product of bijections is a bijection, so the
        result is not checked again."""
        si, oi = self.images, other.images
        if len(si) != len(oi):
            raise ValueError(f"degree mismatch: {len(si)} vs {len(oi)}")
        return _bijection(tuple([si[j] for j in oi]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return _bijection(tuple(inv))

    def _cycles(self) -> list[list[int]]:
        """The one cycle walk: nontrivial cycles as 0-indexed lists, each
        starting at its least point, in order of that point."""
        imgs = self.images
        seen = [False] * len(imgs)
        out = []
        for start, nxt in enumerate(imgs):
            if seen[start] or nxt == start:
                continue
            cyc = [start]
            while nxt != start:
                seen[nxt] = True
                cyc.append(nxt)
                nxt = imgs[nxt]
            out.append(cyc)
        return out

    def __pow__(self, m: int) -> "Permutation":
        """g**m from the cycles of g: under g**m each point moves m steps
        along its cycle, and m % len(cycle) is exact for every integer m,
        negative or zero included.  No product is made."""
        out = list(self.images)
        for cyc in self._cycles():
            s = m % len(cyc)
            for i, j in zip(cyc, cyc[s:] + cyc[:s]):
                out[i] = j
        return _bijection(tuple(out))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 1-indexed tuples, each starting at its least point."""
        return [tuple([i + 1 for i in cyc]) for cyc in self._cycles()]

    def order(self) -> int:
        return math.lcm(*map(len, self._cycles()))

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


def _bijection(images: tuple) -> Permutation:
    """The Permutation of an image tuple already known to be a bijection,
    built without the check."""
    perm = object.__new__(Permutation)
    perm.images = images
    return perm


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
    index, the representative's position in the parent group's element
    list, the least position in the class.  The members are not stored:
    they are the positions i with class_index_of[i] the class's position,
    read off the group's int32 class_index_of array."""

    representative: Permutation
    size: int
    element_order: int
    index: int


class FiniteGroup:
    """The permutation group generated by a nonempty list of permutations of
    common degree, fully enumerated.

    The element list is the breadth-first closure of the generators from the
    identity: g_0 is the identity and each later g_c is first reached as
    g_j * gens[s] with j < c, so the same generator list always yields the
    same ordering.  Raises ValueError if the closure would exceed ``cap``
    elements.  The closure, the inverse indices and the classes are computed
    on image tuples and index maps, with no Permutation product or inverse.
    Four q-independent items are computed at most once and then read: the
    class-product coefficients (read-only), the power classes power_class
    answers, the permutation character's (points, norm) pair that
    charkit.deleted_module_check reads, and the solver candidates that
    wedder.analytic_decomposition keeps per (sorted centre degrees, forced
    blocks).  Nothing else changes after construction, and each of these is
    a pure function of the group and its key, so two concurrent readers can
    only both write the same value.  No |G| x |G| structure is kept:
    mul_table builds the prefix of columns asked for, and mul_columns any
    other columns.
    """

    def __init__(self, generators, cap: int = DEFAULT_CAP):
        gens = tuple(generators)
        if not gens:
            raise ValueError("generator list must be nonempty")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a common degree")
        images = [tuple(range(degree))]
        index = {images[0]: 0}
        parents = [None]  # parents[c] = (j, s) with g_c = g_j * gens[s]
        right = [[] for _ in gens]  # right[s][j] = index of g_j * gens[s]
        gen_images = [g.images for g in gens]
        for j, x in enumerate(images):  # the list grows while it is walked
            for s, g_images in enumerate(gen_images):
                y = tuple([x[i] for i in g_images])
                c = index.get(y)
                if c is None:
                    if len(images) >= cap:
                        raise ValueError(f"group closure exceeds cap of {cap} elements")
                    c = index[y] = len(images)
                    images.append(y)
                    parents.append((j, s))
                right[s].append(c)
        self.generators = gens
        self.elements = tuple(map(_bijection, images))
        self.degree = degree
        self.order = len(images)
        self._index = index
        self._parents = parents
        self._right = [np.array(r, dtype=np.int32) for r in right]
        # row i of argsort is the image tuple of g_i^-1
        inv = np.array([index[tuple(row)] for row in np.argsort(images, axis=1).tolist()])
        inv.setflags(write=False)
        self.inverse_indices = inv
        # conjugation by g as an index map: x -> xg -> g^-1 x^-1 -> g^-1 x^-1 g -> g^-1 x g
        conjugations = [inv[r[inv[r]]].tolist() for r in self._right]
        self.classes, self.class_index_of = _conjugacy_partition(self.elements, conjugations)
        self.exponent = math.lcm(*(c.element_order for c in self.classes))
        self._class_coeffs: np.ndarray | None = None
        self._power_classes: dict[tuple[int, int], int] = {}  # (class, m mod its order) -> class
        self._perm_norm: tuple[int, int] | None = None  # (points, <chi, chi>)
        self._solutions: dict[tuple, tuple] = {}  # (sorted centre degrees, forced blocks) -> candidates

    def index(self, g: Permutation) -> int:
        try:
            return self._index[g.images]
        except KeyError:
            raise ValueError(f"{g!r} is not an element of this group") from None

    def mul_table(self, stop: int | None = None) -> np.ndarray:
        """int32 array with T[a, j] = index of g_a * g_j for the first
        ``stop`` columns j (1 <= stop <= |G|), all |G| by default, built
        afresh on each call.  Column 0 is the identity's; the others are
        filled in element order from the generators' right action recorded
        by the closure: when g_c = g_j * gens[s] (j < c), T[:, c] = R_s[T[:, j]]
        with R_s[i] = index of g_i * gens[s].  Elements are numbered
        breadth-first, so every prefix of columns holds its own parents.
        The table is column-major (Fortran order), so each column it reads
        and writes, and each the class constants gather, is contiguous."""
        n = self.order
        table = np.empty((n, n if stop is None else stop), dtype=np.int32, order="F")
        table[:, 0] = np.arange(n)
        for c in range(1, table.shape[1]):
            j, s = self._parents[c]
            table[:, c] = self._right[s].take(table[:, j])
        return table

    def mul_columns(self, elements) -> np.ndarray:
        """int32 array whose column i is the multiplication-table column
        T[:, elements[i]] of mul_table, with no other column built.  Each
        is made along its element's parent word: when g_c = gens[s_1] * ...
        * gens[s_L] by the closure's parents, T[:, c] = R_(s_L)[...
        R_(s_1)[0, 1, ..., |G| - 1]], L gathers of |G| entries, L at most
        the depth of the breadth-first closure.  Column-major, as
        mul_table's."""
        out = np.empty((self.order, len(elements)), dtype=np.int32, order="F")
        for i, c in enumerate(elements):
            word = []
            while c:
                c, s = self._parents[c]
                word.append(s)
            column = np.arange(self.order, dtype=np.int32)
            for s in reversed(word):
                column = self._right[s].take(column)
            out[:, i] = column
        return out

    def class_product_coefficients(self) -> np.ndarray:
        """Integer structure constants of the class sums as an int64 array
        c of shape (m, m, m): K_i * K_j = sum_k c[i, j, k] * K_k in the group
        ring over the integers, K_i the sum of class i.  For a fixed z in
        class k, c[i, j, k] counts the x in K_i with x^-1 z in K_j; so only
        the table's columns up to the last class representative are built,
        a short prefix as each representative is first-seen in its class."""
        if self._class_coeffs is None:
            m = len(self.classes)
            cls = self.class_index_of
            reps = [c.index for c in self.classes]
            table = self.mul_table(max(reps) + 1)
            coeffs = np.empty((m, m, m), dtype=np.int64)
            for k, r in enumerate(reps):
                left_quotients = table[self.inverse_indices, r]
                coeffs[:, :, k] = np.bincount(cls * m + cls[left_quotients], minlength=m * m).reshape(m, m)
            sizes = np.array([c.size for c in self.classes])
            if not np.array_equal(coeffs @ sizes, np.outer(sizes, sizes)):
                raise ArithmeticError("class products do not have |K_i| * |K_j| terms")
            coeffs.setflags(write=False)
            self._class_coeffs = coeffs
        return self._class_coeffs

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree}, classes={len(self.classes)})"


def _orbits(n, maps):
    """Orbits of range(n) under bijections of it, each given as an int list
    (entry x the image of x).  Returns (orbits, label): the orbits in order
    of their least member, each listed in discovery order from that member,
    and label[x] the position of the orbit of x.  A bijection of a finite
    set has its inverse among its powers, so the forward closure of a point
    is its orbit under the group the maps generate."""
    label = [-1] * n
    orbits = []
    for start in range(n):
        if label[start] >= 0:
            continue
        members = [start]
        label[start] = len(orbits)
        for x in members:  # the list grows while it is walked
            for f in maps:
                y = f[x]
                if label[y] < 0:
                    label[y] = len(orbits)
                    members.append(y)
        orbits.append(members)
    return orbits, label


def _conjugacy_partition(elements, conjugations):
    """The conjugacy classes: the orbits of ``conjugations`` (one index map
    per generator g, entry x the index of g^-1 g_x g), ordered by (element
    order, size, first-seen index), each represented by its first-seen
    member, its least.  Returns (classes, class_index_of), the one record
    of which class each element is in, a read-only int32 array."""
    orbits, label = _orbits(len(elements), conjugations)
    raw = [(elements[o[0]].order(), len(o), o[0]) for o in orbits]
    ranked = sorted(range(len(raw)), key=raw.__getitem__)
    rank = np.empty(len(raw), dtype=np.int32)
    rank[ranked] = range(len(raw))
    classes = tuple(
        ConjClass(representative=elements[first], size=size, element_order=order, index=first)
        for order, size, first in (raw[r] for r in ranked)
    )
    class_index_of = rank[label]
    class_index_of.setflags(write=False)
    return classes, class_index_of


def generate(gens, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The group generated by a nonempty generator list of common degree:
    FiniteGroup(gens, cap), its breadth-first closure.  It stays a function
    of its own because the benchmark's perm.generate_ms trace wraps it, and
    the builtins and group files build their groups through it."""
    return FiniteGroup(gens, cap)


def power_class(G: FiniteGroup, class_index: int, m: int) -> int:
    """Index of the class containing (representative of class_index) ** m.
    rep**m depends only on m mod the order of rep, so the answer is kept on
    G under (class_index, m mod that order): a class's power is computed
    once per residue and read afterwards."""
    c = G.classes[class_index]
    key = (class_index, m % c.element_order)
    found = G._power_classes.get(key)
    if found is None:
        found = G._power_classes[key] = int(G.class_index_of[G.index(c.representative**m)])
    return found


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


def parse_group_text(text: str) -> FiniteGroup:
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
    return generate(gens)


def load_group(path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read())
