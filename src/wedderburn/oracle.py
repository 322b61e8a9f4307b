"""Brute-force decomposition of the regular group algebra F_q[G].

Everything here is independent of character theory.  The center of F_q[G]
is spanned by the class sums; the primitive central idempotents are found by
repeatedly picking a central element, computing the minimal polynomial of
multiplication by it on each current block, factoring that polynomial, and
combining the coprime factors into finer idempotents.  A block is accepted
once some element of it has an irreducible minimal polynomial whose degree
equals the block dimension, which certifies the block center is a field; the
search on that block stops there, since no element can split a field and
primitive central idempotents are unique.  Over F_q, q = p^k, the
refinement runs over F_p first: a block whose center has degree d over F_p
splits over F_q into gcd(d, k) blocks (Lidl and Niederreiter, Finite
Fields, Thm 3.46), so only the blocks with gcd(d, k) > 1 are refined again
in F_q arithmetic, and every other one is final as it stands.
For each primitive idempotent e the center degree d = dim e*Z is read off
the splitting, and the block dimension D = dim e*F_q[G] off a trace, with
no rank of a |G| x |G| matrix.  Left multiplication by e is a projection
onto e*F_q[G], and its trace in the group basis is |G| * e(1), so
D = |G| * e(1) mod p.  To make that exact for every p, e is lifted to the
Galois ring (Z/p^s)[x]/(modulus), s the least exponent with p^s > |G|, by
Newton's step e <- 3e^2 - 2e^3 (the standard lifting of idempotents; Curtis
and Reiner, Methods of Representation Theory I, 1981).  The lift is a
central idempotent; left multiplication by it projects onto a free module of
rank D with trace |G| * e(1), and 1 <= D <= |G| < p^s, so D is that trace
mod p^s.  The block is simple with center the field e*Z, so it is
M_n(F_{q^d}) and the matrix size n satisfies D = d * n^2; the D sum to |G|.

verify_split re-proves each D without the trace and without a |G| x |G|
rank: once the idempotents are shown central, orthogonal and summing to 1,
F_q[G] is the direct sum of the right ideals e*F_q[G], whose dimensions sum
to |G|.  The rank of any submatrix of e's matrix of right translates is a
lower bound on its D, so oversampled random submatrices whose ranks reach
the claimed D, with the claimed D summing to |G|, prove every D exact.

Elements of F_q[G] are arrays of shape (|G|, k) over F_p.  A product
writes the coefficient of g as sum over h of a(h^-1) * b(h g): it gathers
its right factor through the multiplication-table columns it is given,
permutes the left one by inversion, does k^2 matrix-vector products mod p
and folds the result with FieldSpec.fold; the overflow rule is ffield's,
with the sum over the group cut into chunks of (2**63 - 1) // (p - 1)**2
terms.  One kernel multiplies several left factors by one right factor
against a single gather: a single product is its one-left call on the full
table, and verify_split's orthogonality check gathers through only the m
columns at the class representatives of the one full table it builds per
call.  split_center reads only the short prefix of columns the class
constants need.  The center works in the class-sum basis on (m, k) arrays:
products by class sums are integer matmuls against the class-product
coefficients, and other products use FieldSpec.mul_arrays.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

import numpy as np

from .errors import ModularCaseError
from .ffield import FieldSpec, MatrixFq, Polynomial, factor, minpoly
from .perm import FiniteGroup

__all__ = ["AlgebraElement", "CentralSplit", "split_center", "verify_split"]

MAX_RANDOM_DRAWS = 40  # random central elements tried per block after the class sums
CERTIFICATE_OVERSAMPLE = 32  # rows and columns past D in verify_split's sampled submatrices


class AlgebraElement:
    """An element of F_q[G] as its coefficient array ``arr``, of shape
    (|G|, k) and dtype ``spec.dtype``: row g holds the coefficient of the
    group's g-th element as k residues mod p.  The constructor keeps the
    array it is given, after checking its shape and dtype; its entries must
    already lie in [0, p), as __eq__ and verify_split compare them as they
    stand.  __eq__ stays because the frozen CentralSplit compares its
    idempotents through it."""

    __slots__ = ("group", "spec", "arr")

    def __init__(self, group: FiniteGroup, spec: FieldSpec, arr: np.ndarray):
        if arr.shape != (group.order, spec.k):
            raise ValueError(f"need a ({group.order}, {spec.k}) coefficient array, got {arr.shape}")
        if arr.dtype != spec.dtype:
            raise ValueError(f"need a coefficient array of dtype {np.dtype(spec.dtype)}, got {arr.dtype}")
        self.group, self.spec, self.arr = group, spec, arr

    @classmethod
    def zero(cls, group, spec) -> "AlgebraElement":
        return cls(group, spec, np.zeros((group.order, spec.k), dtype=spec.dtype))

    @classmethod
    def unit(cls, group, spec) -> "AlgebraElement":
        out = cls.zero(group, spec)
        out.arr[0, 0] = 1  # g_0 is the identity
        return out

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """The product in F_q[G]: one _convolve call on the full |G| x |G|
        table, which it builds afresh on every call (|G|^2 int32 entries,
        100 MB for S7).  No package path calls it; the oracle runs
        _convolve on only the columns it needs.  It stays for the tests and
        for the bench's oracle.algebra_mul_* trace, which wraps it, until
        that trace points at _convolve."""
        if self.group is not other.group:
            raise ValueError("elements belong to different groups")
        if self.spec != other.spec:
            raise ValueError("elements belong to different fields")
        arr = _convolve(self.group, self.spec, [self.arr, other.arr], self.group.mul_table())[0]
        return AlgebraElement(self.group, self.spec, arr)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.group is other.group
            and self.spec == other.spec
            and np.array_equal(self.arr, other.arr)
        )

    def __repr__(self) -> str:
        support = int(np.count_nonzero(self.arr.any(axis=1)))
        return f"AlgebraElement(support={support}/{self.group.order})"


def _convolve(G: FiniteGroup, spec: FieldSpec, arrs, table: np.ndarray) -> np.ndarray:
    """The coefficients of a * b over F_q = spec at the group elements whose
    multiplication-table columns ``table`` holds, for every (|G|, k) array a
    in arrs[:-1] and b = arrs[-1], as one (len(arrs) - 1, c, k) array for c
    columns.  b is gathered through table once, and the stacked left factors,
    permuted by inversion, meet it in one matmul per chunk of the sum."""
    n, p, k = G.order, spec.p, spec.k
    m = len(arrs) - 1
    c = table.shape[1]
    # y[i, g, t, s] = sum over h of a_{i,t}(h^-1) * b_s(h g), g over the table's columns
    left = np.stack(arrs[:-1], axis=1)[G.inverse_indices].reshape(n, m * k)
    gathered = arrs[-1][table].reshape(n, c * k)
    step = n if spec.dtype is object else max(1, (2**63 - 1) // (p - 1) ** 2)
    y = sum(left[h : h + step].T @ gathered[h : h + step] % p for h in range(0, n, step))
    return spec.fold((y % p).reshape(m, k, c, k).transpose(0, 2, 1, 3))


def _embed(spec: FieldSpec, v: np.ndarray) -> np.ndarray:
    """The array (..., 1) over F_p as the array (..., k) over F_q = spec
    with the same entries: zeros in coefficients 1 .. k-1."""
    out = np.zeros(v.shape[:-1] + (spec.k,), dtype=spec.dtype)
    out[..., :1] = v
    return out


@dataclass(frozen=True)
class CentralSplit:
    """The primitive central idempotents together with, per block, its
    (n, d): the block is M_n(F_{q^d}), of dimension D = d*n^2."""

    idempotents: tuple[AlgebraElement, ...]
    blocks: tuple[tuple[int, int], ...]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(d * n * n for n, d in self.blocks)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The block multiset as (n, d) pairs sorted by (d, n)."""
        return tuple(sorted(self.blocks, key=itemgetter(1, 0)))


class _CenterAlgebra:
    """The center of F_q[G] in the class-sum basis.  Vectors are (m, k)
    coefficient arrays of dtype spec.dtype; products run against the integer
    class-product coefficients c, and every entry of c[i].T @ v is below
    |G| * p (column k of c[i] sums to |K_i|).  The products only add and
    multiply, so over spec = FieldSpec(p^s, k, modulus) they are those of
    the center of the group ring over the Galois ring."""

    def __init__(self, G: FiniteGroup, spec: FieldSpec):
        self.G = G
        self.spec = spec
        self.m = len(G.classes)
        self.c = G.class_product_coefficients()

    def one(self) -> np.ndarray:
        vec = np.zeros((self.m, self.spec.k), dtype=self.spec.dtype)
        vec[0, 0] = 1  # the identity element is its own (size-1) class
        return vec

    def mul_class(self, i: int, v: np.ndarray) -> np.ndarray:
        """Product (class sum i) * v."""
        return self.c[i].T @ v % self.spec.p

    def _mul_classes(self, v: np.ndarray) -> np.ndarray:
        """The (m, m, k) array whose row i is mul_class(i, v)."""
        return self.c.transpose(0, 2, 1) @ v % self.spec.p

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product u * v = sum over i of u_i * (class sum i) * v."""
        return self.spec.mul_arrays(u[:, None], self._mul_classes(v)).sum(0) % self.spec.p

    def block_dimension(self, e: np.ndarray) -> int:
        """Dimension over F_q of e*Z, the span of the projected class sums."""
        return MatrixFq(self.spec, self._mul_classes(e)).rank()

    def to_algebra(self, v: np.ndarray) -> AlgebraElement:
        return AlgebraElement(self.G, self.spec, v[list(self.G.class_index_of)])


def _crt_idempotents(Z: _CenterAlgebra, e, powers, mu: Polynomial, factors):
    """Refine the idempotent e along the coprime factorization mu = prod f_j:
    the new idempotents are h_j(w) where h_j = 1 mod f_j and 0 mod the rest,
    evaluated at the stacked powers e, w, ..., w^(deg mu - 1)."""
    spec = Z.spec
    coeffs = np.zeros((len(factors), len(powers), spec.k), dtype=spec.dtype)
    for j, (f_j, _) in enumerate(factors):
        g_j = mu // f_j
        gcd, s_j, _ = g_j.xgcd(f_j)
        if gcd.degree() != 0:
            raise AssertionError("minimal polynomial factors are not coprime (bug)")
        h_j = (s_j * g_j) % mu
        coeffs[j, : len(h_j.coeffs)] = [spec.unpack(c) for c in h_j.coeffs]
    outs = spec.mul_arrays(coeffs[:, :, None], powers).sum(1) % spec.p
    if not np.array_equal(outs.sum(0) % spec.p, e):
        raise AssertionError("refined idempotents do not sum to the block unit (bug)")
    for a in range(len(outs)):
        for b in range(a + 1, len(outs)):
            if Z.mul(outs[a], outs[b]).any():
                raise AssertionError("refined idempotents are not orthogonal (bug)")
    return list(outs)


def _try_refine(Z: _CenterAlgebra, e, rng: random.Random, seed: int):
    """(split, d) with d = dim e*Z: split is a list of at least two finer
    idempotents of the block of e, or None once the block is certified to be
    a field, of degree d over F_q.

    Candidates are the class sums other than the identity's that act
    nontrivially on the block, in class order, then up to MAX_RANDOM_DRAWS
    seeded random central elements, each drawn only when reached.  (The
    identity's minimal polynomial X - 1 neither splits nor certifies a block
    with dim e*Z > 1.)  The search stops at the first candidate whose
    minimal polynomial mu on the block has two or more irreducible factors
    (a split), or is irreducible of degree dim e*Z (the block center is
    then F_q[w], a field, and no element splits it).  A repeated factor of
    mu contradicts semisimplicity.
    """
    dim = Z.block_dimension(e)
    if dim == 1:
        return None, dim
    spec = Z.spec
    draws = (np.array([spec.random_element(rng).coeffs for _ in range(Z.m)], dtype=spec.dtype)
             for _ in range(MAX_RANDOM_DRAWS))
    candidates = itertools.chain((partial(Z.mul_class, i) for i in range(1, Z.m) if Z.mul_class(i, e).any()),
                                 (partial(Z.mul, z) for z in draws))
    for mul_by in candidates:
        mu = minpoly(spec, mul_by, e)
        facs = factor(mu, seed=seed)
        if any(mult > 1 for _, mult in facs):
            raise AssertionError("non-squarefree minimal polynomial on a semisimple block (bug)")
        if len(facs) > 1:
            powers = [e]
            for _ in range(1, mu.degree()):
                powers.append(mul_by(powers[-1]))
            return _crt_idempotents(Z, e, np.stack(powers), mu, facs), dim
        if mu.degree() == dim:
            return None, dim
    raise RuntimeError("failed to split or certify a center block (bug)")


def _refine(Z: _CenterAlgebra, work: list, rng: random.Random, seed: int) -> list:
    """(e, d) for every primitive idempotent e of Z below the idempotents in
    work, d = dim e*Z: each block is refined by _try_refine until it is
    certified a field."""
    final = []
    while work:
        e = work.pop()
        split, d = _try_refine(Z, e, rng, seed)
        if split is None:
            final.append((e, d))
        else:
            work.extend(split)
    return final


def split_center(G: FiniteGroup, spec: FieldSpec, seed: int = 0) -> CentralSplit:
    """Compute the primitive central idempotents of F_q[G] and each block's
    (matrix size, center degree) by explicit calculation in the algebra.

    The refinement works in the center, whose ranks are m x m for m classes.
    It runs over F_p first, with the stream a k = 1 split draws from, so
    that most of it is arithmetic on length-1 coefficient vectors.  A block
    of F_p[G] whose center has degree d over F_p splits over F_q into
    gcd(d, k) blocks of center degree d / gcd(d, k) (an irreducible
    polynomial of degree d over F_p factors so over F_{p^k}; Lidl and
    Niederreiter, Finite Fields, Thm 3.46).  So a block with gcd(d, k) = 1
    is final, and only the others are refined again over F_q, by the same
    loop.  Each block dimension D is the trace of the idempotent lifted mod
    p^s, as in the module docstring; split_center checks that every D is
    d * n^2 for an integer n >= 1 and that the D sum to |G|."""
    if G.order % spec.p == 0:
        raise ModularCaseError(spec.p, G.order)
    Z = _CenterAlgebra(G, spec)
    Zp = Z if spec.k == 1 else _CenterAlgebra(G, FieldSpec(spec.p, 1, (0, 1)))
    rng = random.Random(f"split:{seed}:{spec.p}:1:{G.order}")
    final = _refine(Zp, [Zp.one()], rng, seed)
    if spec.k > 1:
        final = [(_embed(spec, e), d) for e, d in final]
        work = [e for e, d in final if math.gcd(d, spec.k) > 1]
        final = [(e, d) for e, d in final if math.gcd(d, spec.k) == 1] + _refine(Z, work, rng, seed)
    block_dims = _lifted_block_dims(G, spec, [e for e, _ in final])
    blocks = [(math.isqrt(D // d), d) for D, (_, d) in zip(block_dims, final)]
    if any(n < 1 or d * n * n != D for D, (n, d) in zip(block_dims, blocks)):
        raise AssertionError("a block dimension is not d * n^2 (bug)")
    if sum(block_dims) != G.order:
        raise AssertionError("block dimensions do not sum to |G| (bug)")
    # deterministic block order regardless of the splitting path: by (d, n), then
    # by the idempotent's rows compared as reversed coefficient vectors (base-p values)
    order = sorted(range(len(final)),
                   key=lambda i: (blocks[i][1], blocks[i][0], final[i][0][:, ::-1].tolist()))
    return CentralSplit(
        idempotents=tuple(Z.to_algebra(final[i][0]) for i in order),
        blocks=tuple(blocks[i] for i in order),
    )


def _lifted_block_dims(G: FiniteGroup, spec: FieldSpec, idempotents) -> list[int]:
    """D = dim e*F_q[G] for each (m, k) class-sum idempotent e, read off the
    trace |G| * e(1) of e lifted to the Galois ring FieldSpec(p^s, k,
    modulus), s the least exponent with p^s > |G|.  Each Newton step
    e <- 3e^2 - 2e^3 doubles the power of p modulo which e^2 = e holds, so
    ceil(log2 s) steps lift e mod p^s; when p > |G|, s = 1 and no step runs."""
    P, s = spec.p, 1
    while P <= G.order:
        P, s = P * spec.p, s + 1
    Z = _CenterAlgebra(G, FieldSpec(P, spec.k, spec.modulus))
    dims = []
    for e in idempotents:
        e = e.astype(Z.spec.dtype)
        for _ in range((s - 1).bit_length()):
            e2 = Z.mul(e, e)
            e = (3 * e2 - 2 * Z.mul(e2, e)) % P
        if e[0, 1:].any():
            raise AssertionError("identity coefficient of a lifted idempotent is not in Z/p^s (bug)")
        dims.append(G.order * int(e[0, 0]) % P)
    return dims


def _right_ideal_dimension(E: AlgebraElement, table: np.ndarray) -> int:
    """dim over F_q of E * F_q[G]: rank of the matrix whose columns are the
    right translates E * g, entry (h, g) = E(h g^-1).  The matrix with entry
    (h, g) = E(h g), E gathered through the full table, is the same one with
    its columns relabelled by inversion, so it has the same rank.  No
    benchmark input reaches it; it stays as verify_split's fallback after
    two sampled ranks fall short of D."""
    return MatrixFq(E.spec, E.arr[table]).rank()


def _sampled_rank(E: AlgebraElement, table: np.ndarray, w: int, rng: random.Random) -> int:
    """Rank of the w x w submatrix of E(h g) on w random rows h and w random
    columns g, drawn from rng: a lower bound on _right_ideal_dimension(E,
    table).  Only its w^2 entries are gathered through the full table."""
    rows, cols = (rng.sample(range(len(table)), w) for _ in range(2))
    return MatrixFq(E.spec, E.arr[table[np.ix_(rows, cols)]]).rank()


def verify_split(split: CentralSplit) -> bool:
    """Recheck every invariant of a central splitting by explicit algebra
    multiplication and rank computation; returns False on the first failure.

    The checks run in this order, each invariant once:
    1. there is a block, one (n, d) per idempotent, and every e_i lies in
       the same group algebra (one group and one field);
    2. every e_i is constant on conjugacy classes, so central (the class sums
       span the center of F_q[G]);
    3. the e_i sum to 1;
    4. e_i * e_j = 0 for i < j.  By 2, e_i * e_j is central, so it is zero
       exactly when it vanishes at one representative g_c per class, where
       its value is sum over h of e_i(h^-1) * e_j(h g_c).  One kernel call
       per e_j against the stacked e_0, ..., e_(j-1) gathers only through
       the m table columns at the representatives, and none of the split's class
       constants: O(B^2 * m * |G| * k^2) for B blocks, not the
       O(B^2 * |G|^2 * k^2) of whole products.  Central elements commute,
       so this covers i > j, and e_i = e_i * sum_j e_j = e_i^2: the e_i
       are idempotent;
    5. the D = d * n^2 sum to |G|, and per block, d >= 1, n >= 1, the trace
       congruence D = |G| * e(1) mod p holds with e(1) in F_p, d is the rank
       of e*Z, and D = dim e*F_q[G] by a rank certificate.

    The certificate ranks a w x w submatrix of the block's |G| x |G| matrix
    E(h g), w = min(|G|, D + CERTIFICATE_OVERSAMPLE), its rows and columns
    drawn from verify's own seeded stream; a rank short of D gets one fresh
    draw, and a second short rank falls back to the full rank.  Why it is a
    proof: by 2-4, F_q[G] is the direct sum of the right ideals e_i*F_q[G],
    so their true dimensions D_i' sum to |G|.  A submatrix rank L_i is at
    most D_i', so L_i > D_i rejects; a block that fell back has L_i = D_i'.
    If L_i = D_i for every block, then D_i <= D_i' for all i and both sum to
    |G|, so every D_i is exact.  The route shares no step with the lifted
    trace split_center uses, and D >= 1 makes it prove e != 0.  The products
    and all ranks read one full table, built once the sum check passes."""
    es = split.idempotents
    if not es or len(es) != len(split.blocks):
        return False
    G = es[0].group
    spec = es[0].spec
    if any(e.group is not G or e.spec != spec for e in es):
        return False
    reps = [c.index for c in G.classes]  # each class's least index
    class_first = [reps[ci] for ci in G.class_index_of]
    if any(not np.array_equal(e.arr, e.arr[class_first]) for e in es):
        return False
    if not np.array_equal(sum(e.arr for e in es) % spec.p, AlgebraElement.unit(G, spec).arr):
        return False
    table = G.mul_table()
    if any(_convolve(G, spec, [e.arr for e in es[: j + 1]], table[:, reps]).any() for j in range(1, len(es))):
        return False
    if sum(split.block_dims) != G.order:
        return False
    Z = _CenterAlgebra(G, spec)
    rng = random.Random(f"verify:{spec.p}:{spec.k}:{G.order}")
    for e, (n, d) in zip(es, split.blocks):
        if d < 1 or n < 1:
            return False
        D = d * n * n
        if e.arr[0, 1:].any() or (G.order * int(e.arr[0, 0]) - D) % spec.p:
            return False
        if Z.block_dimension(e.arr[reps]) != d:
            return False
        w = min(G.order, D + CERTIFICATE_OVERSAMPLE)
        rank = _sampled_rank(e, table, w, rng)
        if rank < D:
            rank = _sampled_rank(e, table, w, rng)
        if rank < D:
            rank = _right_ideal_dimension(e, table)
        if rank != D:
            return False
    return True
