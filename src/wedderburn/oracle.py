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
rank: once the idempotents are shown central and summing to 1, and their
center dimensions d summing to m, they are orthogonal idempotents, and
F_q[G] is the direct sum of the two-sided ideals e*F_q[G], whose true
dimensions D' sum to |G|.  When p does not divide |G| (verify checks it),
e*F_q[G] is semisimple, a product of blocks M_(n_j)(F_(q^(d_j))), and its
center e*Z has dimension d = sum of the d_j, which verify also checks.  For
any x in e*F_q[G], F_q[x] has dimension at most sum of n_j * d_j, at most
sqrt(d * D') by Cauchy-Schwarz; so n*d independent Krylov vectors e, x,
..., x^(n*d - 1) give D' >= d * n^2 = D, and the claimed D summing to |G|
make every D exact.  Verify ranks each draw's Krylov vectors on a sample
of about n*d + 32 of their |G| coordinates: a submatrix's rank is at most
the matrix's, so a sample can cost a good split a draw and never passes a
bad one.  A block still short of n*d independent vectors after
KRYLOV_DRAWS draws is rejected, so verify's work is bounded and it builds
no |G| x |G| table.  A block with d >= 2 also gets e*Z proved a field, so
that e*F_q[G] is one block M_n(F_(q^d)) and not a product of smaller ones.

Elements of F_q[G] are arrays of shape (|G|, k) over F_p.  Every F_q
product in this module is one chunked matrix product mod p, _dot_mod,
against ffield's _blow_up, which writes an element of F_q as its k x k
multiplication matrix over F_p; where the multiplier lies in F_p, that
matrix is a scalar and the product needs no blow-up.  The overflow rule is
ffield's, with each sum of products cut into chunks of (2**63 - 1) //
(p - 1)**2 terms (_int64_chunk).  A group-algebra product, _convolve,
writes the coefficient of g as sum over h of a(h^-1) * b(h g): the left
factor, permuted by inversion and blown up, meets the right one gathered
through the full multiplication table.  _convolve has one caller,
AlgebraElement.__mul__: no package path multiplies two elements of
F_q[G].  Every column comes from FiniteGroup.mul_table, which builds the
columns asked for and each column on their parent words once: the class
constants split_center reads take the m at the representatives, and each
Krylov draw the few at its elements; only _convolve builds the whole table.
The refinement and the lift run on _CenterAlgebra, a commutative algebra given
by its integer structure constants c alone, on (m, k) arrays: its unit
must be b_0, and every entry of c[i].T @ v must stay within int64, at
most |G| * p for the class constants, which split_center reads once for
the center over F_q, over F_p and over the Galois ring.  A product u * v
makes the basis products of v, an O(m^3 k) integer matmul against c,
blows them up to the (m k x m k) matrix over F_p of u -> u * v, and
applies it to u.  That matrix of a random central element w is made once,
and each Krylov step is one matrix-vector product of it, which
_CenterAlgebra.krylov stacks as the columns of the matrix minpoly reads;
a split's idempotents are F_p combinations of those Krylov vectors, one
matrix product and no product made again; and a product is
broadcast over stacks: each Newton step lifts every idempotent at once,
and each new idempotent is checked orthogonal to all those before it at
once.  Class vectors become (|G|, k) rows in one place: split_center
gathers its stacked idempotents once through the group's class_index_of
into the one read-only (B, |G|, k) array of the CentralSplit it returns,
plain data beside the group, the field and the blocks.  verify_split
reads that array, and proves each block center a field with the
refinement's own rule, _try_refine, on its own draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ModularCaseError
from .ffield import FieldSpec, MatrixFq, Polynomial, _blow_up, factor, minpoly
from .perm import FiniteGroup

__all__ = ["AlgebraElement", "CentralSplit", "split_center", "verify_split"]

# random central elements drawn per block: each fails to split a block that is
# not a field, or to generate one that is, with probability at most 1/p in
# either stage, so a block exhausts its draws with probability at most p^-40
# (about 1.1e-28 at p = 5)
MAX_RANDOM_DRAWS = 40
# the group elements g_t in each of verify_split's sparse elements a = c_0 + sum of c_t * g_t.
# Blocks whose first draw fell short of rank n*d, over 20 seeded draws each (seeds 0-19) on 62
# splits: both SL(3,2) actions over F_5, 11, 13, 17, 23, 29, 11^2, 13^2 and 13^3, and the 11
# bench/groups files at their two benchmark primes and, below 10^6, their squares, 7680 blocks:
# 1078 (14.0%) with 2 terms, 374 (4.9%) with 3, 145 (1.9%) with 4, 82 (1.1%) with 5, 47 (0.6%)
# with 6 and 56 (0.7%) with 8.  The rest are small fields: with 6, SL(3,2) on P^2(F_2) over F_5
# fell short in 8 of 100 blocks and A4 over F_5 in 4 of 60.  S7 over F_11 fell short in 11 of
# 300 blocks, and S7 over F_5051, M11 over F_7933 and A8 over F_20161 in none.
KRYLOV_TERMS = 6
# the draws of a that a block short of rank n*d gets before verify_split rejects the split.  With
# 6 terms, of the 1240 verifies above 1200 needed one draw, 32 two, 7 three and 1 four, and none
# more; a block fell short in at most 8% of draws on any split measured.  Over 2610 verifies, the
# 11 bench/groups files and builtin S5 at every prime 5 to 199 not dividing |G| with k <= 3 and
# q <= 10^6, at seeds 0 and 1, 2580 needed one draw, 28 two and 2 three, and none was rejected;
# ranking the column sample below in place of the full vectors left those counts as they were
KRYLOV_DRAWS = 8
# the coordinates beyond the longest block's n*d that each Krylov draw keeps and ranks: M12's
# largest rank is 176 x 208 with it, not 176 x 95040
_SAMPLE_SLACK = 32


class AlgebraElement:
    """An element of F_q[G] as its coefficient array ``arr``, of shape
    (|G|, k) and dtype ``spec.dtype``: row g holds the coefficient of the
    group's g-th element as k residues mod p.  The constructor keeps the
    array it is given, after checking its shape and dtype; its entries must
    already lie in [0, p), as __eq__ compares them as they stand.  No
    package path builds one: a split's idempotents are the rows of one
    array.  It stays for the tests, which wrap those rows to check their
    products and sums against expected elements, and for the bench's
    oracle.algebra_mul_* trace, which wraps __mul__ by name."""

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
        """The product in F_q[G]: one _convolve call, which builds the full
        |G| x |G| table afresh (|G|^2 int32 entries, 100 MB for S7).  It is
        _convolve's only caller, and no package path calls it."""
        if self.group is not other.group:
            raise ValueError("elements belong to different groups")
        if self.spec != other.spec:
            raise ValueError("elements belong to different fields")
        return AlgebraElement(self.group, self.spec, _convolve(self.group, self.spec, self.arr, other.arr))

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


def _int64_chunk(spec: FieldSpec, terms: int) -> int:
    """How many of ``terms`` products of residues mod p one int64 sum
    holds: (2**63 - 1) // (p - 1)**2 of them, at least 1, or all ``terms``
    on object arrays, whose Python ints do not overflow."""
    return terms if spec.dtype is object else max(1, (2**63 - 1) // (spec.p - 1) ** 2)


def _dot_mod(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod p for arrays of residues mod p = spec.p: a's last axis
    meets b's second-to-last axis, or b's only one, in one matmul per
    _int64_chunk of the sum, each reduced before the next is added."""
    terms = a.shape[-1]
    step = _int64_chunk(spec, terms)
    if step >= terms:
        return a @ b % spec.p
    y = 0
    for t in range(0, terms, step):
        y += a[..., t : t + step] @ (b[t : t + step] if b.ndim == 1 else b[..., t : t + step, :]) % spec.p
    return y % spec.p


def _convolve(G: FiniteGroup, spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (|G|, k) coefficients of a * b over F_q = spec, for (|G|, k)
    arrays a and b: a, permuted by inversion and blown up, meets b gathered
    through the full multiplication table in one _dot_mod."""
    n, k = G.order, spec.k
    left = _blow_up(spec, a[G.inverse_indices][None])  # [r, (h, c)]: coefficient r of a(h^-1) * x^c
    gathered = b[G.mul_table()].swapaxes(1, 2).reshape(n * k, n)  # [(h, c), g]: b_c(h g)
    return _dot_mod(spec, left, gathered).T


@dataclass(frozen=True, eq=False)
class CentralSplit:
    """The primitive central idempotents of F_q[G], G = group and F_q =
    spec, as plain data: idempotents is one read-only (B, |G|, k) array of
    dtype spec.dtype whose row i holds the coefficients of e_i, and blocks
    gives block i's (n, d): it is M_n(F_{q^d}), of dimension D = d*n^2.
    Two splits compare by identity, never by their arrays."""

    group: FiniteGroup
    spec: FieldSpec
    idempotents: np.ndarray
    blocks: tuple[tuple[int, int], ...]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(d * n * n for n, d in self.blocks)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The block multiset as (n, d) pairs sorted by (d, n)."""
        return tuple(sorted(self.blocks, key=itemgetter(1, 0)))


class _CenterAlgebra:
    """A commutative algebra over F_q = spec given by its integer structure
    constants alone: b_i * b_j = sum over l of c[i, j, l] * b_l, m = len(c).
    Its unit must be b_0 (c[0] is the identity matrix), and every entry of
    c[i].T @ v must stay within int64 for v below p.  The class sums of
    F_q[G] meet both, with the bound |G| * p, as column l of c[i] sums to
    |K_i|, and so does the monomial basis of F_p[X]/(f).  Vectors are (m, k)
    arrays of dtype spec.dtype, and every product is a _dot_mod with the
    _mul_matrix of its right factor.  The products only add and multiply,
    so over spec = FieldSpec(p^s, k, modulus) they are those over the
    Galois ring.  fp is F_p, the refinement's polynomial field."""

    def __init__(self, c: np.ndarray, spec: FieldSpec):
        self.c, self.spec, self.m = c, spec, len(c)
        self.fp = spec if spec.k == 1 else FieldSpec(spec.p, 1, (0, 1))

    def _mul_classes(self, v: np.ndarray) -> np.ndarray:
        """The (..., m, m, k) array whose row i is b_i * v, for v of shape
        (..., m, k): the O(m^3 k) part of a product by v."""
        return self.c.transpose(0, 2, 1) @ v[..., None, :, :] % self.spec.p

    def _mul_matrix(self, v: np.ndarray) -> np.ndarray:
        """The (..., m k, m k) matrix over F_p of u -> u * v on the flattened
        (m k,) vectors, for v of shape (..., m, k): as u * v = sum over i of
        u_i * (b_i * v), it is _blow_up of v's class products with the class
        axis i as columns."""
        return _blow_up(self.spec, self._mul_classes(v).swapaxes(-3, -2))

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product u * v, for (m, k) arrays, broadcast over leading axes: a
        (B, m, k) stack of u by one v, or B products of two stacks.  It is
        one _dot_mod of v's _mul_matrix with u as a column."""
        y = _dot_mod(self.spec, self._mul_matrix(v), u.reshape(*u.shape[:-2], -1, 1))
        return y.reshape(*y.shape[:-2], self.m, self.spec.k)

    def block_dimension(self, e: np.ndarray) -> int:
        """Dimension over F_q of e*Z, the span of the projected basis."""
        return MatrixFq(self.spec, self._mul_classes(e)).rank()

    def krylov(self, e: np.ndarray, dim: int, rng: random.Random):
        """(powers, mu) for one central element w whose m * k coefficients
        are drawn from rng: powers is the (dim + 1, m, k) stack e, w*e, ...,
        w^dim * e, and mu the minimal polynomial over F_p of w on e*Z read
        off it, dim = dim e*Z over F_p bounding its degree.  e*Z is an
        F_p-algebra on the (m * k, 1) columns of its (m, k) vectors, and
        multiplication by w is F_p-linear there: its _mul_matrix is made
        once, and each power is one _dot_mod with it."""
        spec = self.spec
        m, k = self.m, spec.k
        w = np.array([[rng.randrange(spec.p) for _ in range(k)] for _ in range(m)], dtype=spec.dtype)
        times_w = self._mul_matrix(w)
        powers = np.empty((dim + 1, m * k), dtype=spec.dtype)
        powers[0] = e.reshape(m * k)
        for i in range(dim):  # w^i * e lies in e*Z, of dimension dim, so deg mu <= dim
            powers[i + 1] = _dot_mod(spec, times_w, powers[i])
        return powers.reshape(dim + 1, m, k), minpoly(self.fp, powers.T)


def _crt_idempotents(Z: _CenterAlgebra, e, powers, mu: Polynomial, factors):
    """Refine the idempotent e along the coprime factorization mu = prod f_j
    over F_p: the new idempotents are h_j(w) where h_j = 1 mod f_j and 0 mod
    the rest, evaluated at the stacked powers e, w, ..., w^(deg mu - 1) in
    one _dot_mod: the (r, deg mu) coefficients of the h_j lie in F_p, and so
    does a power's every coordinate against them, so the powers flattened
    to (deg mu, m * k) take one matrix product mod p, with no blow-up.  With
    g_j = mu / f_j, h_j is s_j * g_j mod mu for the s_j
    of the extended gcd s_j * g_j + t_j * f_j = 1.  For a linear f_j = x - r
    it is Lagrange's g_j / g_j(r), a multiple of every other factor and of
    degree below deg mu, with no extended gcd: g_j(r) != 0 exactly when g_j
    and f_j are coprime.  Each e_b is checked orthogonal to the stacked
    e_0, ..., e_(b-1) in one product, which makes the class products of e_b
    alone: O(r m^3 k) for r idempotents, not the O(r^2 m^3 k) of one
    product per pair."""
    spec, p = Z.spec, mu.spec.p
    coeffs = np.zeros((len(factors), len(powers)), dtype=spec.dtype)
    for j, f_j in enumerate(factors):
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
        coeffs[j, : len(h_j)] = h_j
    outs = _dot_mod(spec, coeffs, powers.reshape(len(powers), -1)).reshape(len(factors), *powers.shape[1:])
    if not np.array_equal(outs.sum(0) % spec.p, e):
        raise AssertionError("refined idempotents do not sum to the block unit (bug)")
    if any(Z.mul(outs[:b], outs[b]).any() for b in range(1, len(outs))):
        raise AssertionError("refined idempotents are not orthogonal (bug)")
    return list(outs)


def _try_refine(Z: _CenterAlgebra, e, dim: int, rng: random.Random):
    """(final, todo): the blocks below the idempotent e of Z, dim = dim e*Z
    over F_p, that one seeded random central element w separates, as lists
    of (e_j, d_j) pairs with d_j = dim e_j*Z over F_p.  A block in final is
    certified a field, of degree d_j over F_p; one in todo is to be split
    further.  Each draw is one Z.krylov call, which gives the Krylov
    vectors e, w*e, ..., w^dim * e and mu read off them; the new
    idempotents combine the first deg mu of those vectors.

    The search stops at
    the first w whose minimal polynomial mu over F_p on the block has two or
    more irreducible factors f_j (a split), or has degree dim (w generates
    the block center).  A repeated factor of mu contradicts semisimplicity:
    factor rejects it, and _try_refine raises an AssertionError.
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
    verify_split's field check is this rule on one block: it accepts only
    ([(e, dim)], []), e certified a field whole.
    """
    k = Z.spec.k
    for _ in range(MAX_RANDOM_DRAWS):
        powers, mu = Z.krylov(e, dim, rng)
        try:
            facs = factor(mu)
        except ValueError:  # mu is monic, so only a repeated factor
            raise AssertionError("non-squarefree minimal polynomial on a semisimple block (bug)") from None
        generates = mu.degree() == dim
        if len(facs) == 1:
            if generates:
                return [(e, dim)], []
            continue
        split = zip(_crt_idempotents(Z, e, powers[: mu.degree()], mu, facs), [f.degree() for f in facs])
        if generates:
            return list(split), []
        ranked = [(e_j, k * Z.block_dimension(e_j), deg) for e_j, deg in split]
        return ([(e_j, d) for e_j, d, deg in ranked if d == deg],
                [(e_j, d) for e_j, d, deg in ranked if d != deg])
    raise RuntimeError("failed to split or certify a center block (bug)")


def _refine(Z: _CenterAlgebra, work: list, rng: random.Random) -> list:
    """(e, d) for every primitive idempotent e of Z below the (idempotent,
    dim e*Z) pairs in work, d = dim e*Z over F_p: _try_refine splits each
    block until every one is certified a field."""
    final = []
    while work:
        done, todo = _try_refine(Z, *work.pop(), rng)
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
    c = G.class_product_coefficients()
    Z = _CenterAlgebra(c, spec)
    Zp = Z if spec.k == 1 else _CenterAlgebra(c, Z.fp)
    one = np.zeros((Z.m, 1), dtype=Zp.spec.dtype)
    one[0, 0] = 1  # the identity element is its own (size-1) class, b_0
    rng = random.Random(f"split:{seed}:{spec.p}:1:{G.order}")
    final = _refine(Zp, [(one, Zp.m)], rng)  # the class sums are a basis of Z
    if spec.k > 1:
        k = spec.k
        # each idempotent over F_p, as an (m, k) array over F_q: zeros in coefficients 1 .. k-1
        es = np.zeros((len(final), Z.m, k), dtype=spec.dtype)
        es[..., :1] = np.stack([e for e, _ in final])
        final = [(e, d) for e, (_, d) in zip(es, final)]
        # dim e*Z over F_q is d, so k * d over F_p: the center over F_q is the one over F_p with its scalars extended
        work = [(e, k * d) for e, d in final if math.gcd(d, k) > 1]
        final = ([(e, d) for e, d in final if math.gcd(d, k) == 1]
                 + [(e, d // k) for e, d in _refine(Z, work, rng)])
    block_dims = _lifted_block_dims(Z, G.order, [e for e, _ in final])
    blocks = [(math.isqrt(D // d), d) for D, (_, d) in zip(block_dims, final)]
    if any(n < 1 or d * n * n != D for D, (n, d) in zip(block_dims, blocks)):
        raise AssertionError("a block dimension is not d * n^2 (bug)")
    if sum(block_dims) != G.order:
        raise AssertionError("block dimensions do not sum to |G| (bug)")
    # deterministic block order regardless of the splitting path: by (d, n), then
    # by the idempotent's rows compared as reversed coefficient vectors
    order = sorted(range(len(final)),
                   key=lambda i: (blocks[i][1], blocks[i][0], final[i][0][:, ::-1].tolist()))
    idempotents = np.stack([final[i][0] for i in order])[:, G.class_index_of]
    idempotents.setflags(write=False)
    return CentralSplit(G, spec, idempotents, tuple(blocks[i] for i in order))


def _lifted_block_dims(Z: _CenterAlgebra, order: int, idempotents) -> list[int]:
    """D = dim e*F_q[G] for each (m, k) idempotent e of Z, the center of
    F_q[G] of the given order in the class-sum basis, read off the trace
    |G| * e(1) of e lifted to the Galois ring FieldSpec(p^s, k, modulus), s
    the least exponent with p^s > |G|.  Each Newton step e <- 3e^2 - 2e^3
    doubles the power of p modulo which e^2 = e holds, so ceil(log2 s)
    steps lift e mod p^s; when p > |G|, s = 1 and no step runs.  Every
    idempotent is lifted at once, as one (B, m, k) stack."""
    spec = Z.spec
    P, s = spec.p, 1
    while P <= order:
        P, s = P * spec.p, s + 1
    R = _CenterAlgebra(Z.c, FieldSpec(P, spec.k, spec.modulus))
    e = np.stack(idempotents).astype(R.spec.dtype)
    for _ in range((s - 1).bit_length()):
        e2 = R.mul(e, e)
        e = (3 * e2 - 2 * R.mul(e2, e)) % P
    if e[:, 0, 1:].any():
        raise AssertionError("identity coefficient of a lifted idempotent is not in Z/p^s (bug)")
    return [order * int(c) % P for c in e[:, 0, 0]]


def _krylov_ranks(G: FiniteGroup, spec: FieldSpec, arrs, lengths, rng: random.Random) -> list[int]:
    """For one sparse element a = sum over t of c_t * g_t drawn from rng,
    g_0 = 1 and KRYLOV_TERMS random group elements g_1, g_2, ... (repeats
    allowed) with every c_t in F_p, the rank over F_q of e, e*a, ...,
    e*a^(r - 1) restricted to a sample S of coordinates, for each (|G|, k)
    array e in arrs and its length r in lengths.  The vectors of every
    block step together, x -> x * a: (x * g)(h) = x(h g^-1) is x gathered
    through the table column at g^-1, so a step is one take through the
    KRYLOV_TERMS + 1 columns and one _dot_mod with the c_t, with no blow-up as
    the c_t lie in F_p.  When every e lies in F_p, so does every step, and
    only coefficient 0 is stepped and ranked, over F_p: the rank over F_q
    of vectors over F_p is their rank over F_p.  The columns come from one
    mul_table call, which builds them and the columns on their parent words
    alone, and a block whose r vectors are done drops out of the stack.

    Each step runs on the full vectors, but only their coordinates in S
    are kept, |S| = min(|G|, L + _SAMPLE_SLACK) and L the longest r.  S is
    drawn from a random.Random seeded by p, k, |G| and the draw's elements,
    so each draw has its own sample and takes nothing from rng.  A
    submatrix's rank is at most the matrix's, so a sampled rank is at most
    the true one and reaches r only when the true one does."""
    p, k = spec.p, spec.k
    coeffs = np.array([rng.randrange(p) for _ in range(KRYLOV_TERMS + 1)], dtype=spec.dtype)
    elements = [0] + [rng.randrange(G.order) for _ in range(KRYLOV_TERMS)]
    columns = G.mul_table(G.inverse_indices[elements])
    if k > 1 and not arrs[..., 1:].any():
        spec, arrs = FieldSpec(p, 1, (0, 1)), arrs[..., :1]
    order = sorted(range(len(arrs)), key=lambda i: -lengths[i])  # the live blocks are a prefix
    longest = lengths[order[0]]
    size = min(G.order, longest + _SAMPLE_SLACK)
    sample = sorted(random.Random(f"verify-sample:{p}:{k}:{G.order}:{elements}").sample(range(G.order), size))
    x = arrs[order]
    steps = [x[:, sample]]
    for j in range(1, longest):
        gathered = x[: sum(lengths[i] > j for i in order)].take(columns, axis=1)  # [block, h, t, coefficient]
        x = _dot_mod(spec, gathered.swapaxes(2, 3), coeffs)
        steps.append(x[:, sample])
    ranks = [0] * len(arrs)
    for b, i in enumerate(order):
        ranks[i] = MatrixFq(spec, np.stack([x[b] for x in steps[: lengths[i]]])).rank()
    return ranks


def verify_split(split: CentralSplit) -> bool:
    """Recheck every invariant of a central splitting by rank computation in
    the center and in the group algebra; returns False on the first failure.

    The checks run in this order, each invariant once:
    1. there is a block, the idempotents are a (B, |G|, k) array of dtype
       spec.dtype, one row per block (n, d), with entries in [0, p), and p
       does not divide |G|, so that F_q[G] is semisimple (Maschke);
    2. every e_i is constant on conjugacy classes, so central (the class sums
       span the center of F_q[G]);
    3. the e_i sum to 1;
    4. the D = d * n^2 sum to |G|, and the d sum to m = dim Z, the class
       count;
    5. per block, d >= 1, n >= 1, the trace congruence D = |G| * e(1) mod p
       holds with e(1) in F_p, d is the rank of e*Z, e*Z is a field when
       d >= 2, and D = dim e*F_q[G] by a Krylov certificate.  The field
       check is the split's own rule: _try_refine on e*Z, of dimension k*d
       over F_p, on verify's own draws, must certify e*Z whole, as one field
       block, and neither split it nor exhaust its draws; with d = 1, e*Z is
       F_q * e.

    Orthogonality is a count, with no product of two idempotents.  By 1, Z
    is commutative and semisimple, so a product of fields K_c over F_q
    (Curtis and Reiner, Methods of Representation Theory I, 1981, section
    3), and m is the sum of the [K_c : F_q].  By 2, e_i lies in Z, a tuple
    (a_ic) with a_ic in K_c, and by 5, d_i = dim e_i*Z is the sum of the
    [K_c : F_q] over the c with a_ic != 0.  By 3 the a_ic sum to 1 over i,
    so every c has some a_ic != 0; as the d_i sum to m (4), exactly one i
    has, and that a_ic is 1.  So the e_i are 0 or 1 on disjoint supports:
    idempotent and pairwise orthogonal, with no e_i^2 = e_i product
    either.  The count trusts the class constants, which the rank and
    field checks read too.

    The certificate: F_q[G] is then the direct sum of the ideals
    e_i*F_q[G], whose true dimensions D_i' sum to |G|.  By 1 each is
    semisimple, a product of blocks M_(n_j)(F_(q^(d_j))), and by 5 its
    center has dimension d = sum of the d_j.  For x in it, F_q[x] lies in
    the product of the F_(q^(d_j))[x_j], so its dimension is at most the sum
    of n_j * d_j, which Cauchy-Schwarz bounds by sqrt(d * D').  Each draw
    takes one sparse element a (_krylov_ranks) and x = e*a, so x^j = e*a^j:
    if the n*d vectors e, e*a, ..., e*a^(n*d - 1) have rank n*d over F_q,
    then n*d <= sqrt(d * D'), and D' >= d * n^2 = D.  The rank is taken of
    the vectors restricted to a sample of at most L + 32 of their |G|
    coordinates, L the longest n*d: a submatrix's rank is at most the
    matrix's, so a sampled rank of n*d proves the full one, and a sample
    that misses it only costs the block a draw.  A block short of n*d
    gets a fresh draw, and verify returns False for a block still short
    after KRYLOV_DRAWS draws: the draws can only reject a good split, never
    accept a bad one, and a rejection means no more than that the
    certificate was not found.  With every D_i <= D_i' and both summing to
    |G|, every D_i is exact.  So e*F_q[G] has dimension d * n^2 and, its
    center a field of degree d over F_q, is one block M_n(F_(q^d)).  The route
    shares no step with the lifted trace split_center uses, and D >= 1
    makes it prove e != 0.  Verify builds no |G| x |G| table, and its work
    is bounded by KRYLOV_DRAWS draws of sum n*d gathers of length |G| and
    ranks of at most L + 32 columns: the Krylov steps gather through
    mul_table's columns at the elements they need, built with the columns
    on their parent words alone, and keep only the sampled coordinates of
    each step."""
    G, spec, es = split.group, split.spec, split.idempotents
    p = spec.p
    if (not split.blocks or es.shape != (len(split.blocks), G.order, spec.k) or es.dtype != spec.dtype
            or (es < 0).any() or (es >= p).any() or G.order % p == 0):
        return False
    at_reps = es[:, [c.index for c in G.classes]]  # each class's least index
    if not np.array_equal(es, at_reps[:, G.class_index_of]):
        return False
    one = np.zeros_like(es[0])
    one[0, 0] = 1  # g_0 is the identity
    if not np.array_equal(es.sum(0) % p, one):
        return False
    if sum(split.block_dims) != G.order or sum(d for _, d in split.blocks) != len(G.classes):
        return False
    Z = _CenterAlgebra(G.class_product_coefficients(), spec)
    rng = random.Random(f"verify:{p}:{spec.k}:{G.order}")
    for e, (n, d) in zip(at_reps, split.blocks):  # e at the class representatives, e[0] at 1
        if d < 1 or n < 1:
            return False
        if e[0, 1:].any() or (G.order * int(e[0, 0]) - d * n * n) % p:
            return False
        if Z.block_dimension(e) != d:
            return False
        if d > 1:
            try:
                final, todo = _try_refine(Z, e, spec.k * d, rng)
            except RuntimeError:  # every draw fell short of certifying a field
                return False
            if todo or len(final) != 1:
                return False
    short = list(range(len(es)))  # the blocks whose Krylov rank has not reached n*d
    lengths = [n * d for n, d in split.blocks]
    for _ in range(KRYLOV_DRAWS):
        if short:
            ranks = _krylov_ranks(G, spec, es[short], [lengths[i] for i in short], rng)
            short = [i for i, rank in zip(short, ranks) if rank < lengths[i]]
    return not short
