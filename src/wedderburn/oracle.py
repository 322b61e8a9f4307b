"""Brute-force decomposition of the regular group algebra F_q[G].

Everything here is independent of character theory.  The center Z of
F_q[G] is spanned by the class sums, so dim Z = m, the class count.  The
primitive central idempotents are found by drawing seeded random central
elements w on each current block, computing the minimal polynomial mu of
multiplication by w there, factoring it, and combining the coprime factors
f_j into finer idempotents e_j (Eberly and Giesbrecht, Efficient
decomposition of associative algebras over finite fields, J. Symb. Comput.
29, 2000).  Every minimal polynomial, factor and idempotent is over F_p:
the refinement counts dimensions over F_p, and over F_q it runs on the
center as an F_p-algebra, of dimension k*m.  When deg mu is the block's
dim e*Z over F_p, w generates the block center, which is then
F_p[X]/(mu), so every e_j is final with deg f_j its dimension over F_p and
no rank is taken; otherwise a new block is final once k times its rank
over F_q equals deg f_j, which makes its center the field F_p[w*e_j].  No
element splits a field, and primitive central idempotents are unique, so
the search on a final block stops.  Over F_q, q = p^k, the refinement runs
over F_p first: a block whose center has degree d over F_p splits over
F_q into gcd(d, k) blocks (Lidl and Niederreiter, Finite Fields, Thm
3.46), so only the blocks with gcd(d, k) > 1 are refined again, on the
center over F_q from dim e*Z = k*d over F_p, and every other one is final
as it stands.  Each block over F_q contains F_q, so its dimension over F_p
is k times its center degree d.
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
constants need.  The center works in the class-sum basis on (m, k) arrays.
A product u * v is the class products of v, an O(m^3 k) integer matmul
against the class-product coefficients, then their combination with the
coefficients of u, O(m^2 k^2), summed before one FieldSpec.fold.  The
class products of a random central element are made once for all of
minpoly's Krylov steps, a split's idempotents are combinations of those
Krylov vectors, with no product made again, and a product is broadcast over
stacks: each Newton step lifts every idempotent at once, and each new
idempotent is checked orthogonal to all those before it at once.  A class
vector becomes a (|G|, k) array in one place, the CentralSplit
split_center returns, gathered through the group's class_index_of.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ModularCaseError
from .ffield import FieldSpec, MatrixFq, Polynomial, factor, minpoly
from .perm import FiniteGroup

__all__ = ["AlgebraElement", "CentralSplit", "split_center", "verify_split"]

# random central elements drawn per block: each fails to split a block that is
# not a field, or to generate one that is, with probability at most 1/p in
# either stage, so a block exhausts its draws with probability at most p^-40
# (about 1.1e-28 at p = 5)
MAX_RANDOM_DRAWS = 40
# the least number of rows and columns past D in verify_split's sampled submatrices, which take
# w = D + max(CERTIFICATE_OVERSAMPLE, ceil(D/8)): D + 32 up to D = 256.  On S7's blocks above
# that, over 20 seeded draws each: the n = 20 block (D = 400) fell short of D in 1/20 draws over
# F_11 and 2/20 over F_5051 at D + 32, and in 1/20 and 0/20 at D + 50; the n = 21 and n = 35
# blocks in 0/20 at either width, over both fields.  Over 100 draws the n = 20 block fell short
# in 18 and 25 at D + 32, in 0 and 3 at D + 50, and in 0 and 0 at D + 64 (F_11, F_5051).
CERTIFICATE_OVERSAMPLE = 32


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
    |G| * p (column k of c[i] sums to |K_i|); a combination reduces each
    entry product, below p^2, before it sums at most m of them.  The
    products only add and multiply, so over spec = FieldSpec(p^s, k,
    modulus) they are those of the center of the group ring over the Galois
    ring."""

    def __init__(self, G: FiniteGroup, spec: FieldSpec):
        self.spec = spec
        self.m = len(G.classes)
        self.c = G.class_product_coefficients()

    def _mul_classes(self, v: np.ndarray) -> np.ndarray:
        """The (..., m, m, k) array whose row i is (class sum i) * v, for v of
        shape (..., m, k): the O(m^3 k) part of a product by v."""
        return self.c.transpose(0, 2, 1) @ v[..., None, :, :] % self.spec.p

    def _combine(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """sum over i of coeffs_i * rows[i] in F_q, for coeffs of shape
        (..., n, k) and rows of shape (..., n, m, k), broadcast over leading
        axes: O(n m k^2), each entry product reduced and the sum over i
        reduced again before the one fold."""
        p = self.spec.p
        y = coeffs[..., :, None, :, None] * rows[..., None, :]  # [..., i, l, t, s]
        y %= p
        return self.spec.fold(y.sum(-4) % p)

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product u * v = sum over i of u_i * (class sum i) * v, for (m, k)
        arrays, broadcast over leading axes: a (B, m, k) stack of u by one v,
        or B products of two stacks."""
        return self._combine(u, self._mul_classes(v))

    def block_dimension(self, e: np.ndarray) -> int:
        """Dimension over F_q of e*Z, the span of the projected class sums."""
        return MatrixFq(self.spec, self._mul_classes(e)).rank()


def _crt_idempotents(Z: _CenterAlgebra, e, powers, mu: Polynomial, factors):
    """Refine the idempotent e along the coprime factorization mu = prod f_j
    over F_p: the new idempotents are h_j(w) where h_j = 1 mod f_j and 0 mod
    the rest, evaluated at the stacked powers e, w, ..., w^(deg mu - 1) in
    one combination, whose coefficient rows hold the F_p coefficients of h_j
    in column 0.  With g_j = mu / f_j, h_j is s_j * g_j mod mu for the s_j
    of the extended gcd s_j * g_j + t_j * f_j = 1.  For a linear f_j = x - r
    it is Lagrange's g_j / g_j(r), a multiple of every other factor and of
    degree below deg mu, with no extended gcd: g_j(r) != 0 exactly when g_j
    and f_j are coprime.  Each e_b is checked orthogonal to the stacked
    e_0, ..., e_(b-1) in one product, which makes the class products of e_b
    alone: O(r m^3 k) for r idempotents, not the O(r^2 m^3 k) of one
    product per pair."""
    spec, p = Z.spec, mu.spec.p
    coeffs = np.zeros((len(factors), len(powers), spec.k), dtype=spec.dtype)
    for j, (f_j, _) in enumerate(factors):
        g_j = mu // f_j
        if f_j.degree() == 1:
            value = g_j(-f_j.coeffs[0] % p)  # g_j(r) for f_j = x - r
            if not value:
                raise AssertionError("minimal polynomial factors are not coprime (bug)")
            inv = pow(value, -1, p)
            h_j = [c * inv % p for c in g_j.coeffs]
        else:
            gcd, s_j, _ = g_j.xgcd(f_j)
            if gcd.degree() != 0:
                raise AssertionError("minimal polynomial factors are not coprime (bug)")
            h_j = ((s_j * g_j) % mu).coeffs
        coeffs[j, : len(h_j), 0] = h_j
    outs = Z._combine(coeffs, powers)
    if not np.array_equal(outs.sum(0) % spec.p, e):
        raise AssertionError("refined idempotents do not sum to the block unit (bug)")
    if any(Z.mul(outs[:b], outs[b]).any() for b in range(1, len(outs))):
        raise AssertionError("refined idempotents are not orthogonal (bug)")
    return list(outs)


def _try_refine(Z: _CenterAlgebra, e, dim: int, rng: random.Random, seed: int):
    """(final, todo): the blocks below the idempotent e of Z, dim = dim e*Z
    over F_p, that one seeded random central element w separates, as lists
    of (e_j, d_j) pairs with d_j = dim e_j*Z over F_p.  A block in final is
    certified a field, of degree d_j over F_p; one in todo is to be split
    further.  Over F_q, q = p^k, e*Z is an F_p-algebra on the (m * k, 1)
    columns of its (m, k) class vectors.

    Each draw takes its m * k coefficients from rng, and the search stops at
    the first w whose minimal polynomial mu over F_p on the block has two or
    more irreducible factors f_j (a split), or has degree dim (w generates
    the block center).  A repeated factor of mu contradicts semisimplicity.
    When deg mu = dim, e*Z = F_p[w] = F_p[X]/(mu), the product of the fields
    F_p[X]/(f_j), so every new idempotent e_j is final with d_j = deg f_j,
    and no rank is taken; with one factor, e itself is final.  Otherwise each
    e_j is ranked over F_q, and is final when k times its rank is deg f_j:
    w*e_j has the irreducible minimal polynomial f_j, so F_p[w*e_j] is a
    field of that degree inside e_j*Z, and then all of it.  A draw fails
    with probability at most 1/p.  On a block that is the product of L >= 2
    fields it fails to split it only when its L components have one minimal
    polynomial over F_p: given the first, each other component, in a field
    of degree a over F_p, is one of at most a roots, a chance of a/p^a <=
    1/p, so at most p^(1 - L) in all.  On a field block it fails to generate
    it only inside a proper subfield, at most 1/p of the elements.
    """
    spec = Z.spec
    m, k = Z.m, spec.k
    fp = spec if k == 1 else FieldSpec(spec.p, 1, (0, 1))
    for _ in range(MAX_RANDOM_DRAWS):
        w = np.array([[rng.randrange(spec.p) for _ in range(k)] for _ in range(m)], dtype=spec.dtype)
        w_classes = Z._mul_classes(w)  # made once for all the Krylov steps v -> v * w
        powers = [e]  # minpoly's Krylov vectors w^i * e, in the order it makes them

        def times_w(v):
            powers.append(Z._combine(v.reshape(m, k), w_classes))
            return powers[-1].reshape(m * k, 1)

        mu = minpoly(fp, times_w, e.reshape(m * k, 1), dim)  # w^i * e lies in e*Z, of dimension dim
        facs = factor(mu, seed=seed)
        if any(mult > 1 for _, mult in facs):
            raise AssertionError("non-squarefree minimal polynomial on a semisimple block (bug)")
        generates = mu.degree() == dim
        if len(facs) == 1:
            if generates:
                return [(e, dim)], []
            continue
        split = zip(_crt_idempotents(Z, e, np.stack(powers[: mu.degree()]), mu, facs), [f.degree() for f, _ in facs])
        if generates:
            return list(split), []
        ranked = [(e_j, k * Z.block_dimension(e_j), deg) for e_j, deg in split]
        return ([(e_j, d) for e_j, d, deg in ranked if d == deg],
                [(e_j, d) for e_j, d, deg in ranked if d != deg])
    raise RuntimeError("failed to split or certify a center block (bug)")


def _refine(Z: _CenterAlgebra, work: list, rng: random.Random, seed: int) -> list:
    """(e, d) for every primitive idempotent e of Z below the (idempotent,
    dim e*Z) pairs in work, d = dim e*Z over F_p: _try_refine splits each
    block until every one is certified a field."""
    final = []
    while work:
        done, todo = _try_refine(Z, *work.pop(), rng, seed)
        final += done
        work += todo
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
    is final, and only the others are refined again, by the same loop on
    the center over F_q, which counts their dimensions over F_p: a block
    starts at k * d, and each block it yields has center degree its
    dimension over F_p divided by k.  Each block dimension D is the trace of
    the idempotent lifted mod p^s, as in the module docstring; split_center
    checks that every D is d * n^2 for an integer n >= 1 and that the D sum
    to |G|."""
    if G.order % spec.p == 0:
        raise ModularCaseError(spec.p, G.order)
    Z = _CenterAlgebra(G, spec)
    Zp = Z if spec.k == 1 else _CenterAlgebra(G, FieldSpec(spec.p, 1, (0, 1)))
    one = np.zeros((Z.m, 1), dtype=Zp.spec.dtype)
    one[0, 0] = 1  # the identity element is its own (size-1) class
    rng = random.Random(f"split:{seed}:{spec.p}:1:{G.order}")
    final = _refine(Zp, [(one, Zp.m)], rng, seed)  # the class sums are a basis of Z
    if spec.k > 1:
        k = spec.k
        # each idempotent over F_p, as an (m, k) array over F_q: zeros in coefficients 1 .. k-1
        es = np.zeros((len(final), Z.m, k), dtype=spec.dtype)
        es[..., :1] = np.stack([e for e, _ in final])
        final = [(e, d) for e, (_, d) in zip(es, final)]
        # dim e*Z over F_q is d, so k * d over F_p: the center over F_q is the one over F_p with its scalars extended
        work = [(e, k * d) for e, d in final if math.gcd(d, k) > 1]
        final = ([(e, d) for e, d in final if math.gcd(d, k) == 1]
                 + [(e, d // k) for e, d in _refine(Z, work, rng, seed)])
    block_dims = _lifted_block_dims(G, spec, [e for e, _ in final])
    blocks = [(math.isqrt(D // d), d) for D, (_, d) in zip(block_dims, final)]
    if any(n < 1 or d * n * n != D for D, (n, d) in zip(block_dims, blocks)):
        raise AssertionError("a block dimension is not d * n^2 (bug)")
    if sum(block_dims) != G.order:
        raise AssertionError("block dimensions do not sum to |G| (bug)")
    # deterministic block order regardless of the splitting path: by (d, n), then
    # by the idempotent's rows compared as reversed coefficient vectors
    order = sorted(range(len(final)),
                   key=lambda i: (blocks[i][1], blocks[i][0], final[i][0][:, ::-1].tolist()))
    return CentralSplit(
        idempotents=tuple(AlgebraElement(G, spec, final[i][0][G.class_index_of]) for i in order),
        blocks=tuple(blocks[i] for i in order),
    )


def _lifted_block_dims(G: FiniteGroup, spec: FieldSpec, idempotents) -> list[int]:
    """D = dim e*F_q[G] for each (m, k) class-sum idempotent e, read off the
    trace |G| * e(1) of e lifted to the Galois ring FieldSpec(p^s, k,
    modulus), s the least exponent with p^s > |G|.  Each Newton step
    e <- 3e^2 - 2e^3 doubles the power of p modulo which e^2 = e holds, so
    ceil(log2 s) steps lift e mod p^s; when p > |G|, s = 1 and no step runs.
    Every idempotent is lifted at once, as one (B, m, k) stack."""
    P, s = spec.p, 1
    while P <= G.order:
        P, s = P * spec.p, s + 1
    Z = _CenterAlgebra(G, FieldSpec(P, spec.k, spec.modulus))
    e = np.stack(idempotents).astype(Z.spec.dtype)
    for _ in range((s - 1).bit_length()):
        e2 = Z.mul(e, e)
        e = (3 * e2 - 2 * Z.mul(e2, e)) % P
    if e[:, 0, 1:].any():
        raise AssertionError("identity coefficient of a lifted idempotent is not in Z/p^s (bug)")
    return [G.order * int(c) % P for c in e[:, 0, 0]]


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
    E(h g), w = min(|G|, D + max(CERTIFICATE_OVERSAMPLE, ceil(D/8))), its
    rows and columns drawn from verify's own seeded stream; a rank short of
    D gets one fresh draw, and a second short rank falls back to the full
    rank.  Why it is a
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
    if any(not np.array_equal(e.arr, e.arr[reps][G.class_index_of]) for e in es):
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
        w = min(G.order, D + max(CERTIFICATE_OVERSAMPLE, -(-D // 8)))
        rank = _sampled_rank(e, table, w, rng)
        if rank < D:
            rank = _sampled_rank(e, table, w, rng)
        if rank < D:
            rank = _right_ideal_dimension(e, table)
        if rank != D:
            return False
    return True
