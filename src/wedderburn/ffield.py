"""Exact arithmetic over F_p and F_{p^k}, dense polynomials over F_p,
factorization, and linear algebra.

F_q, q = p**k, is F_p[x] modulo a monic irreducible modulus found by seeded
search; there are no Conway-polynomial tables and no discrete-log tables.
An element of F_q exists only as a row of an (..., k) array over F_p, its
coefficient vector, and FieldSpec.fold is the one product of such rows.
Polynomials are over F_p alone: Polynomial holds one residue per
coefficient and computes with % p and pow(c, -1, p) inline, and Polynomial
and minpoly reject a spec with k > 1.  An F_q-linear map is F_p-linear on k
times as many coordinates, so a caller with an operator over F_q takes its
minimal polynomial over F_p (the oracle does, on the center over F_q).
minpoly reads it off a Krylov matrix its caller builds, the columns v, Av,
..., A^b v; it calls no operator.
Factorization is Berlekamp's algorithm (Bell Syst. Tech. J. 46, 1967;
Knuth, TAOCP vol. 2, 4.6.2) on squarefree input, gcd(f, f') = 1, which
every caller has (factor rejects any other f, a p-th power included): for
p up to ROOT_SCAN_P_MAX, the linear factors by evaluation at every point
of F_p; then the fixed space {a : a^p = a mod f}, the left kernel of Q - I
for Berlekamp's matrix Q, rows x^(ip) mod f, whose dimension is the number
of irreducible factors, and random splits on it.  is_irreducible reads the
same dimension.
There is one elimination, _eliminate, run in place on a fresh copy reduced
mod p that its caller makes: MatrixFq.rank reads the rank of the F_p
blow-up of an F_q matrix off it (each entry expanded by one einsum against
the powers of the modulus's companion matrix), minpoly reads the minimal
polynomial off the echelon form it leaves of the Krylov matrix, and
_berlekamp_basis reads the fixed space off that of [Q - I | I].  A matrix
whose entries all lie in F_p skips the blow-up: MatrixFq.rank eliminates
its constant coefficients, since rank does not change under field
extension.  The elimination reduces its working matrix mod p after every
pivot, in the matrix's own dtype.  Overflow rule: arrays are int64 when
p < 2**31 and p + (k - 1) (p - 1)**2 < 2**63, the bound FieldSpec.fold
needs, and sums of products are reduced modulo p before they can pass
2**63 - 1; otherwise arrays hold Python ints (dtype object), on which the
same numpy code is exact.  Every field make_field builds has p**k < 2**63
and so meets the bound whenever p < 2**31.
"""
from __future__ import annotations

import bisect
import math
import operator
import random

import numpy as np

__all__ = [
    "is_prime",
    "FieldSpec",
    "Polynomial",
    "MatrixFq",
    "make_field",
    "factor",
    "minpoly",
]

QMAX_BITS = 63  # p**k must stay below 2**63
P_MIN = 5  # the least supported characteristic
ARRAY_P_LIMIT = 2**31  # int64 arrays need p below this, Python-int arrays from it up
# factor finds linear factors by evaluation at every point of F_p up to this
# p, in int32 (p**2 + p < 2**31).  Per factor call at degrees 2, 6 and 15
# (2 CPUs, best of 5 over 20 polynomials): against Berlekamp's random
# splits alone, the scan was 3-15x faster on products of distinct linear
# factors at p = 4093, 16381 and 32749, and 1.05-5.5x faster on random
# monic polynomials.  The int32 pass would allow p up to 46337; the bound
# stays at 2**14, which no benchmark workload's p passes, and the tests
# take 16381 and 16411 as the primes on either side of it
ROOT_SCAN_P_MAX = 2**14

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_j (OEIS A014233): the least strong pseudoprime to all of the first j
# bases of _MR_WITNESSES, so those j bases prove every n < psi_j; psi_12 and
# psi_13 = 3317044064679887385961981 were verified by Sorenson-Webster 2015
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)


def is_prime(n: int) -> bool:
    """Trial division by the first twelve primes, then Miller-Rabin with the
    first j of them as bases, the least j with n < psi_j (OEIS A014233):
    base 2 alone below 2047, all twelve below psi_12 =
    318665857834031151167461, a proof in each range.  From psi_12 up a
    strong Lucas test is added to the twelve bases, which makes it the
    Baillie-PSW test (no known counterexample)."""
    if n < 2:
        return False
    for sp in _MR_WITNESSES:
        if n % sp == 0:
            return n == sp
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    j = bisect.bisect_right(_MR_PSI, n)  # n >= psi_1, ..., psi_j
    for a in _MR_WITNESSES[: j + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return j < len(_MR_PSI) or _is_strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (Baillie-Wagstaff 1980)
    for odd n with no prime factor below 41: D is the first of 5, -7, 9,
    -11, ... with (D/n) = -1, P = 1 and Q = (1 - D) / 4.  No benchmark
    input reaches it (every p there is below psi_12); it stays because
    is_prime has no proof above psi_12 without it."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x if x % 2 == 0 else x + n) // 2 % n

    # U_m, V_m and Q^m for the prefixes m of d's binary expansion, P = 1
    U, V, Qm = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qm = U * V % n, (V * V - 2 * Qm) % n, Qm * Qm % n
        if bit == "1":
            U, V, Qm = half(U + V), half(D * U + V), Qm * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qm = (V * V - 2 * Qm) % n, Qm * Qm % n
        if V == 0:
            return True
    return False


class FieldSpec:
    """The field F_q, q = p**k, presented as F_p[x] modulo a monic irreducible
    polynomial of degree k.  For k = 1 the modulus is x itself and elements
    are length-1 coefficient vectors.  Built by make_field, which checks p
    and k and finds an irreducible modulus.  ``x_powers`` holds x^0 ..
    x^(2k-2) mod the modulus as rows of dtype ``dtype``, the array dtype:
    int64 when p < 2**31 and p + (k - 1) (p - 1)**2 < 2**63, the bound fold
    needs, and object (Python ints) otherwise.  An element of F_q is a row
    of k residues mod p, its coefficient vector, and fold is the one
    product of such rows.

    With a prime power P = p**s in place of p, the same object is the Galois
    ring (Z/P)[x]/(modulus) for a modulus irreducible mod p: fold only adds
    and multiplies, so it is exact there too."""

    __slots__ = ("p", "k", "q", "modulus", "dtype", "x_powers")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.dtype = np.int64 if p < ARRAY_P_LIMIT and p + (k - 1) * (p - 1) ** 2 < 2**63 else object
        # x^d mod modulus for d = 0 .. 2k-2, used to fold products back below degree k
        rows = [_poly_divmod(self, [0] * d + [1], modulus)[1] for d in range(2 * k - 1)]
        self.x_powers = np.array([r + [0] * (k - len(r)) for r in rows], dtype=self.dtype)

    def fold(self, y: np.ndarray) -> np.ndarray:
        """Reduce an array of shape (..., k, k) whose entry [..., t, s], below
        p, is the coefficient of x^(t+s), to the (..., k) coefficients of the
        sum mod the modulus.  Each degree sums at most k entries and is reduced
        before the fold through ``x_powers``, whose rows for x^0 .. x^(k-1) are
        unit vectors: the fold sums stay below 2**63."""
        k = self.k
        conv = np.zeros(y.shape[:-2] + (2 * k - 1,), dtype=self.dtype)
        for t in range(k):
            conv[..., t : t + k] += y[..., t, :]
        return (conv % self.p) @ self.x_powers % self.p

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k}; mod {self.modulus})"


def check_p_min(p: int):
    """Raise ValueError if p is below P_MIN; make_field and the CLI both check this."""
    if p < P_MIN:
        raise ValueError(f"p = {p} is below the supported minimum of {P_MIN}")


def make_field(p: int, k: int = 1, seed: int = 0) -> FieldSpec:
    """Build F_{p^k} with a seeded search for a monic irreducible modulus:
    random monic polynomials of degree k, each tested by is_irreducible,
    Berlekamp's test.

    Different seeds may select different moduli; all decomposition outputs
    are independent of that choice.
    """
    check_p_min(p)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k >= QMAX_BITS or p**k >= 2**QMAX_BITS:  # the first test spares building a huge p**k
        raise ValueError(f"q = {p}^{k} exceeds the 2^{QMAX_BITS} bound")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    prime = FieldSpec(p, 1, (0, 1))
    if k == 1:
        return prime
    rng = random.Random(f"modulus:{seed}:{p}:{k}")
    for _ in range(4000):
        coeffs = [rng.randrange(p) for _ in range(k)] + [1]
        f = Polynomial(prime, coeffs)
        if f.is_irreducible():
            return FieldSpec(p, k, tuple(coeffs))
    raise RuntimeError(f"no irreducible modulus of degree {k} over F_{p} found (bug)")


class Polynomial:
    """Dense polynomial over F_p: coeffs[i] is the residue in [0, p) of the
    coefficient of x^i, and trailing zeros are trimmed (the zero polynomial
    has no coefficients).  The constructor takes such ints alone, over a
    spec with k = 1: any other coefficient, or a k > 1 spec, raises
    ValueError.  Every method runs on int lists with % p and pow(c, -1, p)
    inline, and powers are taken only modulo a polynomial, by pow_mod."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        _require_prime_field(spec)
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or not 0 <= c < spec.p:
                raise ValueError(f"coefficient {c!r} is not a residue mod p = {spec.p}")
        self.spec = spec
        self.coeffs = _trimmed(cs)

    @classmethod
    def _of(cls, spec: FieldSpec, cs: list[int]) -> "Polynomial":
        """The polynomial of an int list of residues mod p."""
        f = cls.__new__(cls)
        f.spec = spec
        f.coeffs = _trimmed(cs)
        return f

    @classmethod
    def zero(cls, spec) -> "Polynomial":
        return cls._of(spec, [])

    @classmethod
    def one(cls, spec) -> "Polynomial":
        return cls._of(spec, [1])

    @classmethod
    def x(cls, spec) -> "Polynomial":
        return cls._of(spec, [0, 1])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _scaled(self, c: int) -> "Polynomial":
        p = self.spec.p
        return Polynomial._of(self.spec, [a * c % p for a in self.coeffs])

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self._scaled(pow(self.coeffs[-1], -1, self.spec.p))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        p = self.spec.p
        return Polynomial._of(self.spec, [(x + y) % p for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        p = self.spec.p
        return Polynomial._of(self.spec, [-c % p for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._of(self.spec, _poly_mul(self.spec, self.coeffs, other.coeffs))

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _poly_divmod(self.spec, self.coeffs, other.coeffs)
        return Polynomial._of(self.spec, quo), Polynomial._of(self.spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def pow_mod(self, e: int, m: "Polynomial") -> "Polynomial":
        spec = self.spec
        mc = m.coeffs
        if not mc:
            raise ZeroDivisionError("polynomial modulus is zero")
        if e < 0:
            raise ValueError(f"exponent {e} is negative")
        inv_lc = pow(mc[-1], -1, spec.p)
        result = _poly_divmod(spec, [1], mc, inv_lc)[1]
        base = _poly_divmod(spec, self.coeffs, mc, inv_lc)[1]
        while e:
            if e & 1:
                result = _poly_divmod(spec, _poly_mul(spec, result, base), mc, inv_lc)[1]
            base = _poly_divmod(spec, _poly_mul(spec, base, base), mc, inv_lc)[1]
            e >>= 1
        return Polynomial._of(spec, result)

    def __call__(self, r: int) -> int:
        """The value at the residue r, by Horner's rule."""
        p = self.spec.p
        value = 0
        for c in reversed(self.coeffs):
            value = (value * r + c) % p
        return value

    def derivative(self) -> "Polynomial":
        p = self.spec.p
        return Polynomial._of(self.spec, [i * c % p for i, c in enumerate(self.coeffs[1:], 1)])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "Polynomial"):
        """Extended gcd: returns (g, s, t) with s*self + t*other = g, g monic."""
        spec = self.spec
        r0, r1 = self, other
        s0, s1 = Polynomial.one(spec), Polynomial.zero(spec)
        t0, t1 = Polynomial.zero(spec), Polynomial.one(spec)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        inv = pow(r0.coeffs[-1], -1, spec.p)
        return r0._scaled(inv), s0._scaled(inv), t0._scaled(inv)

    def is_irreducible(self) -> bool:
        """Berlekamp's test, the rule factor splits by: f of degree n >= 1
        is irreducible exactly when it is squarefree and the polynomials a of
        degree below n with a^p = a mod f are the constants alone
        (_berlekamp_basis has one vector)."""
        f = self.monic()
        return f.degree() >= 1 and f.gcd(f.derivative()).degree() == 0 and len(_berlekamp_basis(f)) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def sort_key(self):
        """(degree, coefficients from the constant term up)."""
        return (self.degree(), self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly[0]"
        terms = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"{cs}*x" if cs != "1" else "x")
            else:
                terms.append(f"{cs}*x^{i}" if cs != "1" else f"x^{i}")
        return "Poly[" + " + ".join(terms) + "]"


def _trimmed(cs: list[int]) -> tuple[int, ...]:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _require_prime_field(spec: FieldSpec):
    """Raise ValueError unless spec is F_p: polynomials are over F_p alone."""
    if spec.k != 1:
        raise ValueError(f"polynomials are over F_p only, not over {spec!r}")


def _poly_mul(spec: FieldSpec, a, b) -> list[int]:
    """Product of two int coefficient lists; trimmed when both are."""
    if not a or not b:
        return []
    p = spec.p
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % p for c in out]


def _poly_divmod(spec: FieldSpec, num, den, inv_lc=None):
    """Long division on int coefficient lists; den must be trimmed nonzero.
    The remainder comes back trimmed."""
    dd = len(den) - 1
    rem = list(num)
    if len(rem) - 1 < dd:
        return [], rem
    p = spec.p
    if inv_lc is None:
        inv_lc = pow(den[-1], -1, p)
    quo = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1 - dd, -1, -1):
        c = rem[i + dd] * inv_lc % p
        if c:
            quo[i] = c
            for j, b in enumerate(den):
                if b:
                    rem[i + j] = (rem[i + j] - c * b) % p
    del rem[dd:]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


# factorization ---------------------------------------------------------------


def factor(f: Polynomial) -> list[Polynomial]:
    """The monic irreducible factors of a squarefree polynomial f, sorted by
    Polynomial.sort_key: degree, then the coefficients from the constant
    term up.  Their product is f up to its leading coefficient, and a
    nonzero constant has none.  Raises ValueError for the zero polynomial
    and for gcd(f, f') != 1, which a p-th power, f' = 0, has too: every
    caller's f is squarefree, a minimal polynomial on a semisimple block or
    make_field's candidate after is_irreducible.  The pipeline is the
    module docstring's: the linear factors by evaluation for p up to
    ROOT_SCAN_P_MAX, and Berlekamp's random splits, whose draws come from
    a stream of their own, seeded by p and deg f.  A factorization is
    unique, so the draws never change the output."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    f = f.monic()
    if f.gcd(f.derivative()).degree():
        raise ValueError("factor takes a squarefree polynomial")
    if f.degree() == 0:
        return []
    rng = random.Random(f"factor:0:{f.spec.p}:1:{f.degree()}")
    return sorted(_factor_squarefree(f, rng), key=Polynomial.sort_key)


def _factor_squarefree(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    """Irreducible factors of a monic squarefree polynomial, by Berlekamp's
    algorithm.  For p up to ROOT_SCAN_P_MAX the linear factors are x - r
    for the roots r that _roots finds, and a cofactor of degree at most 3,
    which has no root, is irreducible.  What is left, f of degree n, has as
    many irreducible factors as _berlekamp_basis has vectors, and each a
    there is a constant mod each factor: a random combination a of the
    basis splits a piece h into gcd((a mod h)^((p - 1)/2) - 1, h) and its
    cofactor, until the pieces are as many as the vectors."""
    spec, p = f.spec, f.spec.p
    factors: list[Polynomial] = []
    if p <= ROOT_SCAN_P_MAX:
        factors = [Polynomial._of(spec, [-r % p, 1]) for r in _roots(f)]
        if len(factors) == f.degree():
            return factors
        for g in factors:
            f = f // g  # synthetic division: g is monic of degree 1
        if f.degree() <= 3:
            return factors + [f]
    basis = _berlekamp_basis(f)
    one = Polynomial.one(spec)
    pieces = [f]
    while len(pieces) < len(basis):
        cs = [rng.randrange(p) for _ in basis]
        a = Polynomial._of(spec, [sum(map(operator.mul, cs, col)) % p for col in zip(*basis)])
        split = []
        for h in pieces:
            g = (a.pow_mod((p - 1) // 2, h) - one).gcd(h) if h.degree() > 1 else one
            split.extend((g, h // g) if 0 < g.degree() < h.degree() else (h,))
        pieces = split
    return factors + pieces


def _roots(f: Polynomial) -> list[int]:
    """The roots of f in F_p, ascending: f is evaluated at all p points in
    one int32 Horner pass, exact while p**2 + p < 2**31."""
    p = f.spec.p
    xs = np.arange(p, dtype=np.int32)
    vals = np.full(p, f.coeffs[-1], dtype=np.int32)
    for c in reversed(f.coeffs[:-1]):
        vals *= xs
        vals += c
        np.remainder(vals, p, out=vals)
    return np.flatnonzero(vals == 0).tolist()


def _berlekamp_basis(f: Polynomial) -> list[list[int]]:
    """A basis, as coefficient lists of length n, of the polynomials a of
    degree below n with a^p = a mod f, for f monic of degree n >= 1.  For
    squarefree f their number is that of its irreducible factors: by the
    Chinese remainder theorem they are the a that are constant mod each
    factor.  As a^p is the sum of a_i x^(ip), they are the left kernel of
    Q - I, Q Berlekamp's matrix (_frobenius_matrix), which one _eliminate
    of [Q - I | I] reads off: the rows whose left half is zero hold a basis
    of it in their right half."""
    p, n = f.spec.p, f.degree()
    q = _frobenius_matrix(f)
    q[range(n), range(n)] -= 1
    w = np.concatenate([q, np.eye(n, dtype=q.dtype)], axis=1) % p
    _eliminate(w, p)
    return w[~w[:, :n].any(axis=1), n:].tolist()


def _frobenius_matrix(f: Polynomial) -> np.ndarray:
    """Berlekamp's matrix of f, monic of degree n >= 1: the (n, n) array
    whose row i holds the coefficients of x^(ip) mod f.  Row i + 1 is row i
    times the matrix of multiplication by xp = x^p mod f, whose row j + 1,
    x^(j+1) xp mod f, is x times row j less one multiple of f.  The dtype is
    int64 while n (p - 1)**2 < 2**63, so that those row products are exact,
    and object otherwise."""
    p, n, mc = f.spec.p, f.degree(), f.coeffs
    xp = Polynomial.x(f.spec).pow_mod(p, f).coeffs
    dtype = np.int64 if n * (p - 1) ** 2 < 2**63 else object
    row = list(xp) + [0] * (n - len(xp))
    by_xp = [row]
    for _ in range(n - 1):
        top = row[-1]
        row = [(c - top * m) % p for c, m in zip([0] + row[:-1], mc)]
        by_xp.append(row)
    by_xp = np.array(by_xp, dtype=dtype)
    q = np.zeros((n, n), dtype=dtype)
    q[0, 0] = 1
    for i in range(1, n):
        q[i] = q[i - 1] @ by_xp % p
    return q


# Krylov minimal polynomials ---------------------------------------------------


def minpoly(spec: FieldSpec, krylov: np.ndarray) -> Polynomial:
    """Monic minimal polynomial m over F_p of a linear operator A relative
    to a start vector v, read off the 2-D Krylov matrix whose columns are
    v, Av, ..., A^b v, an int64 or object array: the least-degree monic m
    with m(A) v = 0.  spec must be F_p (k = 1), or minpoly raises
    ValueError; an operator over F_q is one over F_p on k times as many
    coordinates.

    b bounds deg m, as the dimension of the space or of an invariant
    subspace known to hold v does; minpoly raises ValueError if the b + 1
    columns are independent.  _eliminate reduces a copy of the matrix mod
    p, made C-ordered (the caller's matrix is often a transposed stack), and
    the matrix is left as it was.  With t = deg m, the columns 0..t-1 are
    independent and every later one depends on them, so the pivots are
    exactly the first t columns.  Only e = w[:t, :t + 1], the pivot rows up
    to column t, is read, as int lists: column t is A^t v itself;
    back-substitution over the rows of the unit upper triangle
    U = e[:, :t] solves U y = -e[:, t], and the coefficient of X^j in m is
    y[j].  A zero start vector gives t = 0 and m = 1.
    """
    _require_prime_field(spec)
    if np.ndim(krylov) != 2:
        raise ValueError("the Krylov matrix must be 2-D")
    p = spec.p
    w = np.remainder(krylov, p, out=np.empty(krylov.shape, krylov.dtype))
    t = _eliminate(w, p)
    if t == w.shape[1]:
        raise ValueError(f"minimal polynomial degree exceeds the bound {t - 1}")
    e = w[:t, : t + 1].tolist()
    if any(e[r][r] != 1 for r in range(t)):
        raise AssertionError("Krylov pivots are not the leading columns (bug)")
    y = [0] * t
    for r in range(t - 1, -1, -1):
        y[r] = -(e[r][t] + sum(map(operator.mul, e[r][r + 1 : t], y[r + 1 :]))) % p
    return Polynomial._of(spec, y + [1])


# exact linear algebra ---------------------------------------------------------


class MatrixFq:
    """Dense matrix over F_q on an (nrows, ncols, k) array of dtype
    spec.dtype, reduced mod p: entry (i, j) has coefficient vector arr[i, j]."""

    __slots__ = ("spec", "arr", "nrows", "ncols")

    def __init__(self, spec: FieldSpec, arr: np.ndarray):
        self.spec = spec
        self.arr = arr
        self.nrows, self.ncols = arr.shape[:2]

    def rank(self) -> int:
        """Exact rank.  When every entry lies in F_p it is the F_p rank of the
        constant coefficients, since rank does not change under field
        extension; otherwise the F_p rank of the blow-up is k times the rank
        over F_q."""
        p, k = self.spec.p, self.spec.k
        if self.arr[..., 1:].any():
            a = _blow_up(self.spec, self.arr)
        else:
            a, k = self.arr[..., 0], 1
        rk = _eliminate(np.remainder(a, p, out=np.empty(a.shape, a.dtype)), p)
        if rk % k:
            raise AssertionError("blown-up rank not divisible by extension degree (bug)")
        return rk // k

    def __repr__(self) -> str:
        return f"MatrixFq({self.nrows}x{self.ncols} over {self.spec!r})"


def _blow_up(spec: FieldSpec, arr: np.ndarray) -> np.ndarray:
    """The F_p matrix of an (nrows, ncols, k) array over F_q, as a fresh
    (k * nrows, k * ncols) array: entry (i, j) becomes its k x k
    multiplication matrix sum_t a_t C^t (C the companion matrix of the
    modulus), whose column c holds the coefficients of arr[i, j] * x^c."""
    k = spec.k
    nrows, ncols = arr.shape[:2]
    # companion[t, c] = x^(t+c), column c of C^t; an entry of the blow-up is
    # a sum of k products below p**2, less than 2**63 in int64 (p < 2**31
    # and p**k < 2**63)
    companion = spec.x_powers[np.add.outer(np.arange(k), np.arange(k))]
    return np.einsum("ijt,tcr->irjc", arr, companion).reshape(k * nrows, k * ncols)


def _eliminate(w: np.ndarray, p: int) -> int:
    """Rank r modulo p of w, a fresh array reduced mod p (int64, or object
    from p = 2**31 up), by Gaussian elimination in place.  On return w is
    the row echelon form, reduced mod p: rows 0..r-1 are the pivot rows,
    each zero left of its pivot and with the pivot scaled to 1, every entry
    below a pivot is zero, and rows r and up are zero.

    A pivot step works on slices from the pivot column c on: the first row
    at or below r with a nonzero in column c is scaled by the inverse of
    that entry and trades places with row r from c on only (left of c both
    rows are zero), and one outer product, each entry at most (p - 1)**2,
    updates the whole slice w[r+1:, c:], zero rows of the column included,
    which is then reduced mod p.  At a column with no pivot the elimination
    stops once the block right of it, rows r and up, is zero: every later
    column would have no pivot either."""
    nrows, ncols = w.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = w[r:, c].nonzero()[0]
        if nz.size == 0:
            if not w[r:, c + 1 :].any():
                break
            continue
        pr = r + int(nz[0])
        row = w[pr, c:] * pow(int(w[pr, c]), -1, p) % p
        if pr != r:
            w[pr, c:] = w[r, c:]
        w[r, c:] = row
        if nz.size > 1:
            below = w[r + 1 :, c:]
            np.remainder(below - below[:, :1] * row, p, out=below)
        r += 1
    return r
