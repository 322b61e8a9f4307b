"""Permutations, finite permutation groups, and conjugacy-class data.

Groups are stored fully enumerated: FiniteGroup computes the breadth-first
closure of its generators on bytes keys, each element's inverse images in
the smallest unsigned dtype that holds every point, so that on up to 256
points each step of the closure is one bytes.translate and one dict probe.
The group keeps one read-only (|G|, degree) image array in that dtype,
read off the keys with one argsort; the parent words and the generators'
right action on the elements as int32 arrays; the inverse indices, read
off the keys too; and the conjugacy classes ordered by (element order,
class size, first-seen index).  The class constants and the power classes
are computed once, on first use, and mul_table builds the columns of the
multiplication table asked for, with the columns on their parent words and
no others, on each call.
Permutation is the boundary type callers build and read: the group makes
one per class representative, G.elements makes one per element on its
first read, G.index(g) reads the key off g.images, and no group code
multiplies or inverts one.  Permutation.__mul__ and inverse stay as the
tests' independent reference for mul_table and inverse_indices.  One orbit
walk on int lists, _orbits, finds a permutation's cycles (which its powers,
cycles and order share), the classes here and cyclo's q-power cycles.  A
ConjClass keeps its representative's index; which class each element is
in is recorded once, in FiniteGroup.class_index_of, a read-only int32
array beside inverse_indices.
Points are 1-indexed in all input and output (cycle notation, group files)
and 0-indexed internally.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        """Nontrivial cycles as 0-indexed lists, each starting at its least
        point, in order of that point: the orbits of this one map that
        _orbits walks, each from its least point along the cycle."""
        return [orbit for orbit in _orbits(len(self.images), [self.images])[0] if len(orbit) > 1]

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
    elements.  The closure walks each element's inverse images as a bytes
    key: those of g_j * gens[s] are those of g_j mapped through gens[s]^-1,
    so a step is bytes.translate on up to 256 points and a numpy gather on
    two-byte (or four-byte) keys past them, and the key of g is the images
    of g^-1.  So the image array, each row the images of one element, is the
    argsort of the joined keys, and inverse_indices[c] is the index of g_c's
    images as a key.  No Permutation is made per element, and none is
    multiplied or inverted: the class representatives are the only ones
    made up front.  Five q-independent items are computed at most once and
    then read: ``elements``, the Permutations made on its first read, the
    class-product coefficients (read-only), the power classes power_class
    answers, the permutation character's (points, norm) pair that
    charkit.deleted_module_check reads, and the solver candidates that
    wedder.analytic_decomposition keeps per (sorted centre degrees, forced
    blocks).  Nothing else changes after construction, and each of these is
    a pure function of the group and its key, so two concurrent readers can
    only both write the same value.  No |G| x |G| structure is kept:
    mul_table builds the columns asked for, each column on their parent
    words once, and keeps none of them.
    """

    def __init__(self, generators, cap: int = DEFAULT_CAP):
        gens = tuple(generators)
        if not gens:
            raise ValueError("generator list must be nonempty")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a common degree")
        dtype = np.min_scalar_type(degree - 1)
        # the inverse images of g_j * gens[s] are those of g_j mapped through gens[s]^-1
        gen_inverses = np.argsort([g.images for g in gens], axis=1).astype(dtype)
        if degree <= 256:
            step = bytes.translate
            tables = [t.tobytes() + bytes(256 - degree) for t in gen_inverses]
        else:
            def step(x, t):
                return t[np.frombuffer(x, dtype)].tobytes()
            tables = list(gen_inverses)
        keys = [_key(range(degree), degree)]  # keys[c] = the inverse images of g_c
        index = {keys[0]: 0}
        right = []  # right[j * len(gens) + s] = index of g_j * gens[s]
        reached = []  # reached[c - 1] = the position in right at which g_c is first reached
        n = 1
        for x in keys:  # the list grows while it is walked
            for t in tables:
                y = step(x, t)
                c = index.setdefault(y, n)
                if c == n:
                    if n >= cap:
                        raise ValueError(f"group closure exceeds cap of {cap} elements")
                    keys.append(y)
                    reached.append(len(right))
                    n += 1
                right.append(c)
        self.generators = gens
        self.degree = degree
        self.order = n
        self._index = index
        # g_c = g_j * gens[s] for j = _parent[c] and s = _parent_gen[c], c >= 1: int32
        # arrays that mul_table's walk reads one entry at a time as Python ints
        words = np.full((2, n), -1, dtype=np.int32)
        words[:, 1:] = np.divmod(reached, len(gens))
        self._parent, self._parent_gen = (array("i", w.tobytes()) for w in words)
        self._right = list(np.array(right, dtype=np.int32).reshape(n, len(gens)).T.copy())
        # row c of argsort is the images of g_c, whose inverse has them as its key
        images = np.argsort(np.frombuffer(b"".join(keys), dtype).reshape(n, degree), axis=1).astype(dtype)
        images.setflags(write=False)
        self._images = images
        rows = images.view(f"V{degree * images.itemsize}").ravel().tolist()  # each row as bytes
        inv = np.fromiter(map(index.__getitem__, rows), np.int64, n)
        inv.setflags(write=False)
        self.inverse_indices = inv
        # conjugation by g as an index map: x -> xg -> g^-1 x^-1 -> g^-1 x^-1 g -> g^-1 x g
        conjugations = [inv[r[inv[r]]].tolist() for r in self._right]
        self.classes, self.class_index_of = _conjugacy_partition(images, conjugations)
        self.exponent = math.lcm(*(c.element_order for c in self.classes))
        self._class_coeffs: np.ndarray | None = None
        self._power_classes: dict[tuple[int, int], int] = {}  # (class, m mod its order) -> class
        self._perm_norm: tuple[int, int] | None = None  # (points, <chi, chi>)
        self._solutions: dict[tuple, tuple] = {}  # (sorted centre degrees, forced blocks) -> candidates

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        """The elements as Permutations, in closure order, made on first read.
        No package path reads it: it stays as the tests' view of the element
        order, which they index by position."""
        return tuple(_bijection(tuple(row)) for row in self._images.tolist())

    def index(self, g: Permutation) -> int:
        """The position of g in the element list.  g's images are the key of
        g^-1, so the key's index is read through inverse_indices."""
        images = g.images
        if len(images) == self.degree:
            c = self._index.get(_key(images, self.degree))
            if c is not None:
                return self.inverse_indices.item(c)
        raise ValueError(f"{g!r} is not an element of this group")

    def mul_table(self, elements=None) -> np.ndarray:
        """int32 array whose column i is the multiplication-table column
        T[:, elements[i]], T[a, j] the index of g_a * g_j, for elements in
        any order and with repeats; the full |G| x |G| table T when elements
        is None.  An element outside 0..|G|-1 raises IndexError before any
        column is built.  Built afresh on each call from the generators'
        right action recorded by the closure: each element's parent word is
        walked back to the identity, and every column on those words is made
        once, in element order, as T[:, c] = R_s[T[:, j]] when g_c = g_j *
        gens[s] (j < c), R_s[i] the index of g_i * gens[s].  The columns are
        built as the rows of a row-major array and returned transposed, so
        the result is column-major (Fortran order) and each column its
        callers gather is contiguous."""
        n = self.order
        wanted = range(n) if elements is None else [int(c) for c in elements]
        parent, parent_gen = self._parent, self._parent_gen
        built = {0}
        for c in wanted:
            if not 0 <= c < n:
                raise IndexError(f"element {c} is out of range 0..{n - 1}")
            while c not in built:
                built.add(c)
                c = parent[c]
        built = sorted(built)
        row = {c: i for i, c in enumerate(built)}
        columns = np.empty((len(built), n), dtype=np.int32)
        columns[0] = np.arange(n)
        for i, c in enumerate(built[1:], 1):
            # every index is in range, so "clip" only lets take write into the row unbuffered
            self._right[parent_gen[c]].take(columns[row[parent[c]]], out=columns[i], mode="clip")
        return (columns if elements is None else columns[[row[c] for c in wanted]]).T

    def class_product_coefficients(self) -> np.ndarray:
        """Integer structure constants of the class sums as an int64 array
        c of shape (m, m, m): K_i * K_j = sum_k c[i, j, k] * K_k in the group
        ring over the integers, K_i the sum of class i.  For a fixed z in
        class k, c[i, j, k] counts the x in K_i with x^-1 z in K_j; so only
        the m table columns at the class representatives are read, built
        with the columns on their parent words alone."""
        if self._class_coeffs is None:
            m = len(self.classes)
            cls = self.class_index_of
            table = self.mul_table([c.index for c in self.classes])
            coeffs = np.empty((m, m, m), dtype=np.int64)
            for k in range(m):
                left_quotients = table[self.inverse_indices, k]
                coeffs[:, :, k] = np.bincount(cls * m + cls[left_quotients], minlength=m * m).reshape(m, m)
            sizes = np.array([c.size for c in self.classes])
            if not np.array_equal(coeffs @ sizes, np.outer(sizes, sizes)):
                raise ArithmeticError("class products do not have |K_i| * |K_j| terms")
            coeffs.setflags(write=False)
            self._class_coeffs = coeffs
        return self._class_coeffs

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree}, classes={len(self.classes)})"


def _key(images, degree: int) -> bytes:
    """The closure's dict key of an image sequence of the given degree: one
    byte a point up to 256 points, else the bytes of the smallest unsigned
    dtype that holds every point."""
    return bytes(images) if degree <= 256 else np.array(images, np.min_scalar_type(degree - 1)).tobytes()


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


def _conjugacy_partition(images, conjugations):
    """The conjugacy classes of the elements whose images are the rows of
    ``images``: the orbits of ``conjugations`` (one index map per generator
    g, entry x the index of g^-1 g_x g), ordered by (element order, size,
    first-seen index), each represented by its first-seen member, its
    least, the one Permutation made per class.  Returns (classes,
    class_index_of), the one record of which class each element is in, a
    read-only int32 array."""
    orbits, label = _orbits(len(images), conjugations)
    reps = [_bijection(tuple(images[o[0]].tolist())) for o in orbits]
    raw = [(rep.order(), len(o), o[0]) for rep, o in zip(reps, orbits)]
    ranked = sorted(range(len(raw)), key=raw.__getitem__)
    rank = np.empty(len(raw), dtype=np.int32)
    rank[ranked] = range(len(raw))
    classes = tuple(
        ConjClass(representative=reps[r], size=raw[r][1], element_order=raw[r][0], index=raw[r][2])
        for r in ranked
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
