"""Exact arithmetic over F_p and F_{p^k}, dense polynomials, factorization,
and linear algebra.

Field elements are coefficient vectors modulo a monic irreducible modulus
found by seeded search; there are no Conway-polynomial tables and no
discrete-log tables.  Polynomial factorization runs the classical pipeline:
squarefree split via gcd with the derivative (with p-th root extraction in
characteristic p), distinct-degree split via iterated Frobenius, and seeded
Cantor-Zassenhaus equal-degree splitting.  A scalar is a plain int, its
base-p value: the sum of c_t p**t over its coefficient vector (the residue
itself over F_p).  It is the package's only scalar type: Polynomial holds
such ints, and every scalar operation is a kernel that FieldSpec builds
once per field (add, sub, mul; inv and power on mul).  pack and unpack
convert a scalar to and from a row of an (..., k) array.
Vectors and matrices over F_q in hot paths are arrays of shape (..., k) over
F_p, and FieldSpec.mul_arrays is their one entrywise product.  There is one
elimination, _eliminate, on the F_p blow-up of an F_q matrix (each entry
expanded by one einsum against the powers of the modulus's companion
matrix), run in place on a fresh working copy (_working_copy): MatrixFq.rank
reads the rank off it, and minpoly reads the minimal polynomial off the
echelon form it leaves of its Krylov matrix.  A matrix whose entries all
lie in F_p skips the blow-up: MatrixFq.rank eliminates its constant
coefficients, since rank does not change under field extension.
The elimination delays its reductions: each pivot subtracts unreduced
products of at most (p - 1)**2, and the trailing block is reduced only
before t updates could break p + t (p - 1)**2 <= the working dtype's
largest value; it stops at the first column with no pivot whose trailing
block is zero mod p.  Overflow rule: arrays are int64 when p < 2**31 and
p + (k - 1) (p - 1)**2 < 2**63, the bound FieldSpec.fold needs, and sums of
products are reduced modulo p before they can pass 2**63 - 1; otherwise
arrays hold Python ints (dtype object), on which the same numpy code is
exact.  Every field make_field builds has p**k < 2**63 and so meets the
bound whenever p < 2**31.  The elimination alone narrows: on a matrix of
at least _NARROW_MIN_ENTRIES entries its working copy is int16 when p <= 31
and int32 when 37 <= p <= 8191 (_working_dtype).
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
    needs, and object (Python ints) otherwise.

    Scalars are plain ints, base-p values: the sum of c_t * p**t over a
    coefficient vector (c_0, ..., c_(k-1)), so over F_p the residue itself;
    pack and unpack convert between a value and a row of an (..., k) array.
    The scalar kernels add, sub and mul are built once per field (see
    _scalar_kernels); inv and power build on mul.  Polynomial runs on them.

    With a prime power P = p**s in place of p, the same object is the Galois
    ring (Z/P)[x]/(modulus) for a modulus irreducible mod p: add, sub, mul,
    fold and mul_arrays only add and multiply, so they are exact there too,
    while inversion, and whatever relies on it, needs a field."""

    __slots__ = ("p", "k", "q", "modulus", "dtype", "x_powers", "add", "sub", "mul", "_place")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        # x^d mod modulus for d = k .. 2k-2, used to fold products back below degree k
        reds = []
        cur = tuple((-modulus[i]) % p for i in range(k))
        for _ in range(k - 1):
            reds.append(cur)
            top = cur[-1]
            shifted = [0] + list(cur[:-1])
            if top:
                for i in range(k):
                    shifted[i] = (shifted[i] + top * reds[0][i]) % p
            cur = tuple(shifted)
        self.dtype = np.int64 if p < ARRAY_P_LIMIT and p + (k - 1) * (p - 1) ** 2 < 2**63 else object
        self.x_powers = np.array(np.eye(k, dtype=int).tolist() + reds, dtype=self.dtype)
        self._place = [p**t for t in range(k)]
        self.add, self.sub, self.mul = _scalar_kernels(p, k, self._place, reds)

    # scalar arithmetic on base-p values ---------------------------------------

    def pack(self, a) -> int:
        """The base-p value of a coefficient vector a reduced mod p."""
        return sum(map(operator.mul, a, self._place))

    def unpack(self, v: int) -> tuple[int, ...]:
        """The coefficient vector of the base-p value v, 0 <= v < q."""
        p = self.p
        return tuple([v // pt % p for pt in self._place])

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(self.inv(a), -e)
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, -1, self.p)
        return self.power(a, self.q - 2)

    # array-level arithmetic -------------------------------------------------

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

    def mul_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entrywise product in F_q of broadcastable arrays of shape (..., k)
        with entries reduced mod p."""
        return self.fold(a[..., :, None] * b[..., None, :] % self.p)

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


def _scalar_kernels(p: int, k: int, place: list[int], reds: list[tuple[int, ...]]):
    """add, sub and mul on base-p values below p**k; place holds p**t for
    t < k and reds the coefficient vectors of x^k .. x^(2k-2) mod the
    modulus.  For k = 1 each is one int operation.  For k > 1 they read
    digit t of a as a // p**t % p: a // p**t is that digit plus a multiple
    of p, so (a // p**t + b // p**t) % p is the digit of the sum, and a
    product folds its convolution's degrees k .. 2k-2 through reds."""
    if k == 1:
        return (lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p), (lambda a, b: a * b % p)
    # per coefficient t: p**t and column t of reds
    terms = [(t, pt, [red[t] for red in reds]) for t, pt in enumerate(place)]

    def mul(a, b):
        conv = [0] * (2 * k - 1)
        digits = [b // pt % p for pt in place]
        for i, pt in enumerate(place):
            x = a // pt % p
            if x:
                for j, y in enumerate(digits):
                    conv[i + j] += x * y
        high = conv[k:]
        return sum([(conv[t] + sum(map(operator.mul, high, col))) % p * pt for t, pt, col in terms])

    return ((lambda a, b: sum([(a // pt + b // pt) % p * pt for pt in place])),
            (lambda a, b: sum([(a // pt - b // pt) % p * pt for pt in place])),
            mul)


def check_p_min(p: int):
    """Raise ValueError if p is below P_MIN; make_field and the CLI both check this."""
    if p < P_MIN:
        raise ValueError(f"p = {p} is below the supported minimum of {P_MIN}")


def make_field(p: int, k: int = 1, seed: int = 0) -> FieldSpec:
    """Build F_{p^k} with a seeded search for a monic irreducible modulus:
    random monic polynomials of degree k, each tested by is_irreducible,
    the distinct-degree walk of factor.

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
    """Dense polynomial over F_q on base-p values: coeffs[i] is the int
    sum of c_t * p**t over the coefficient vector (c_0, ..., c_(k-1)) of
    x^i, so over F_p the residue itself, and trailing zeros are trimmed (the
    zero polynomial has no coefficients).  The constructor takes such ints
    alone: any other coefficient, or an int outside [0, q), raises
    ValueError (spec.pack turns a coefficient vector into one).  Every
    method runs on int lists through the scalar kernels spec.add, spec.sub,
    spec.mul and spec.inv, and powers are taken only modulo a polynomial,
    by pow_mod."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or not 0 <= c < spec.q:
                raise ValueError(f"coefficient {c!r} is not a base-p value below q = {spec.q}")
        self.spec = spec
        self.coeffs = _trimmed(cs)

    @classmethod
    def _of(cls, spec: FieldSpec, cs: list[int]) -> "Polynomial":
        """The polynomial of an int list of reduced base-p values."""
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
        mul = self.spec.mul
        return Polynomial._of(self.spec, [mul(a, c) for a in self.coeffs])

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self._scaled(self.spec.inv(self.coeffs[-1]))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.spec.add
        return Polynomial._of(self.spec, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        sub = self.spec.sub
        return Polynomial._of(self.spec, [sub(0, c) for c in self.coeffs])

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
        inv_lc = spec.inv(mc[-1])
        result = _poly_divmod(spec, [1], mc, inv_lc)[1]
        base = _poly_divmod(spec, self.coeffs, mc, inv_lc)[1]
        while e:
            if e & 1:
                result = _poly_divmod(spec, _poly_mul(spec, result, base), mc, inv_lc)[1]
            base = _poly_divmod(spec, _poly_mul(spec, base, base), mc, inv_lc)[1]
            e >>= 1
        return Polynomial._of(spec, result)

    def derivative(self) -> "Polynomial":
        mul, p = self.spec.mul, self.spec.p
        return Polynomial._of(self.spec, [mul(i % p, c) for i, c in enumerate(self.coeffs[1:], 1)])

    def pth_root(self) -> "Polynomial":
        """For f with zero derivative, the unique g with g**p = f."""
        spec = self.spec
        p = spec.p
        root_exp = spec.q // p  # a -> a**(q/p) inverts the Frobenius a -> a**p
        out = []
        for i, c in enumerate(self.coeffs):
            if i % p == 0:
                out.append(spec.power(c, root_exp))
            elif c:
                raise ValueError("polynomial is not a p-th power")
        return Polynomial._of(spec, out)

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
        inv = spec.inv(r0.coeffs[-1])
        return r0._scaled(inv), s0._scaled(inv), t0._scaled(inv)

    def is_irreducible(self) -> bool:
        """Ben-Or's test: the distinct-degree walk of factor, stopped at its
        first part.  f of degree n >= 1 is irreducible exactly when that part
        is the remainder of degree n, since every reducible f, squarefree or
        not, has an irreducible factor of degree at most n/2."""
        n = self.degree()
        return n >= 1 and next(_distinct_degree(self.monic()))[1] == n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def sort_key(self):
        """(degree, coefficients): each coefficient ordered by its base-p value."""
        return (self.degree(), self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly[0]"
        terms = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c) if self.spec.k == 1 else str(list(self.spec.unpack(c)))
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


def _poly_mul(spec: FieldSpec, a, b) -> list[int]:
    """Product of two int coefficient lists; trimmed when both are."""
    if not a or not b:
        return []
    mul, add = spec.mul, spec.add
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _poly_divmod(spec: FieldSpec, num, den, inv_lc=None):
    """Long division on int coefficient lists; den must be trimmed nonzero.
    The remainder comes back trimmed."""
    dd = len(den) - 1
    rem = list(num)
    if len(rem) - 1 < dd:
        return [], rem
    mul, sub = spec.mul, spec.sub
    if inv_lc is None:
        inv_lc = spec.inv(den[-1])
    quo = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1 - dd, -1, -1):
        c = mul(rem[i + dd], inv_lc)
        if c:
            quo[i] = c
            for j, b in enumerate(den):
                if b:
                    rem[i + j] = sub(rem[i + j], mul(c, b))
    del rem[dd:]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


# factorization ---------------------------------------------------------------


def factor(f: Polynomial, seed: int = 0) -> list[tuple[Polynomial, int]]:
    """Full factorization of a nonzero polynomial into monic irreducibles with
    multiplicities, sorted by Polynomial.sort_key: degree, then the base-p
    values of the coefficients from the constant term up.  The product of
    the factors with multiplicities equals f up to its leading coefficient."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(f"factor:{seed}:{f.spec.p}:{f.spec.k}:{f.degree()}")
    out = _factor_monic(f.monic(), rng)
    out.sort(key=lambda t: t[0].sort_key())
    return out


def _factor_monic(f: Polynomial, rng: random.Random) -> list[tuple[Polynomial, int]]:
    if f.degree() <= 0:
        return []
    der = f.derivative()
    if der.is_zero():
        root = f.pth_root()
        return [(g, m * f.spec.p) for g, m in _factor_monic(root, rng)]
    c = f.gcd(der)
    w = f // c if c.degree() > 0 else f
    # w is the product of the distinct irreducible factors whose multiplicity
    # in f is not divisible by p
    out = []
    rest = f
    for g in _factor_squarefree(w, rng):
        m = 0
        while True:
            quo, rem = divmod(rest, g)
            if not rem.is_zero():
                break
            rest = quo
            m += 1
        out.append((g, m))
    if rest.degree() > 0:
        # what is left is a p-th power (all multiplicities divisible by p)
        out.extend(_factor_monic(rest, rng))
    return out


def _factor_squarefree(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    """Irreducible factors of a monic squarefree polynomial: each part of the
    distinct-degree walk, split by Cantor-Zassenhaus."""
    factors: list[Polynomial] = []
    for g, d in _distinct_degree(f):
        factors.extend(_equal_degree_split(g, d, rng))
    return factors


def _distinct_degree(f: Polynomial):
    """Distinct-degree walk of a monic polynomial f: for d = 1, 2, ... yield
    (g, d) with g = gcd(x^(q^d) - x, rest) when it is not 1, where rest is f
    with the earlier parts divided out, so g is the product of the distinct
    degree-d irreducible factors of rest.  Once 0 < deg rest < 2d the last
    item is (rest, deg rest): rest has no factor of degree below d, so for
    squarefree f it is irreducible, and the parts multiply to f."""
    q = f.spec.q
    xpoly = Polynomial.x(f.spec)
    rest, frob, d = f, xpoly, 0
    while rest.degree() > 0:
        d += 1
        if 2 * d > rest.degree():
            yield rest, rest.degree()
            return
        frob = frob.pow_mod(q, rest)
        g = (frob - xpoly).gcd(rest)
        if g.degree() > 0:
            yield g, d
            rest = rest // g
            frob = frob % rest


def _equal_degree_split(f: Polynomial, d: int, rng: random.Random) -> list[Polynomial]:
    """Cantor-Zassenhaus: split a monic squarefree product of degree-d
    irreducibles (q odd)."""
    if f.degree() == d:
        return [f]
    spec = f.spec
    n = f.degree()
    half = (spec.q**d - 1) // 2
    while True:
        a = Polynomial._of(spec, [spec.pack([rng.randrange(spec.p) for _ in range(spec.k)])
                                  for _ in range(n)])
        if a.degree() < 1:
            continue
        g = a.gcd(f)
        if 0 < g.degree() < n:
            break
        b = a.pow_mod(half, f) - Polynomial.one(spec)
        g = b.gcd(f)
        if 0 < g.degree() < n:
            break
    return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


# Krylov minimal polynomials ---------------------------------------------------


def minpoly(spec: FieldSpec, apply, v: np.ndarray, bound: int | None = None) -> Polynomial:
    """Monic minimal polynomial m of a linear operator relative to the start
    vector v: the least-degree monic m with m(operator) applied to v = 0.

    ``v`` is a (dim, k) array of dtype spec.dtype reduced mod p, dim =
    len(v), and ``apply`` maps such arrays to such arrays.  ``bound`` is an
    upper bound on deg m, dim by default; a caller that knows v to lie in
    an invariant subspace of smaller dimension passes that, and minpoly
    raises ValueError if deg m exceeds it.  The Krylov vectors v, Av, ...,
    A^bound v are the columns of a matrix over F_q, and
    _eliminate reduces a working copy of its blow-up over F_p.  With
    t = deg m, the column blocks 0..t-1 are independent over F_q and every
    later block depends on them, so the pivots are exactly the first
    kt = k*t columns.  Only e = w[:kt, :kt + 1] mod p, the pivot rows up to
    column kt, is read, as int lists: column kt is A^t v itself;
    back-substitution over the rows of the unit upper triangle
    U = e[:, :kt] solves U y = -e[:, kt], and the coefficient of X^j in m
    is y[jk:(j+1)k].  A zero start vector gives t = 0 and m = 1.
    """
    shape = (len(v), spec.k)
    if np.shape(v) != shape:
        raise ValueError(f"start vector must have shape (dim, {spec.k})")
    krylov = [v]
    for _ in range(shape[0] if bound is None else bound):
        krylov.append(apply(krylov[-1]))
        if np.shape(krylov[-1]) != shape:
            raise ValueError("operator changed the dimension")
    p, k = spec.p, spec.k
    w = _working_copy(_blow_up(spec, np.stack(krylov, axis=1)), p)
    kt = _eliminate(w, p)
    if kt == w.shape[1]:
        raise ValueError(f"minimal polynomial degree exceeds the bound {len(krylov) - 1}")
    e = (w[:kt, : kt + 1] % p).tolist()
    if kt % k or any(e[r][r] != 1 for r in range(kt)):
        raise AssertionError("Krylov pivots are not the leading columns (bug)")
    y = [0] * kt
    for r in range(kt - 1, -1, -1):
        y[r] = -(e[r][kt] + sum(map(operator.mul, e[r][r + 1 : kt], y[r + 1 :]))) % p
    return Polynomial._of(spec, [spec.pack(y[j : j + k]) for j in range(0, kt, k)] + [1])


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
        rk = _eliminate(_working_copy(a, p), p)
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


# the fewest updates a narrowed dtype must hold between two reductions of the
# trailing block, each of which costs several updates
_MIN_PERIOD = 32
_NARROW_MIN_ENTRIES = 1024  # the least matrix size that is narrowed (see _eliminate)


def _period(dtype: np.dtype, p: int) -> int:
    """The unreduced updates a signed integer dtype holds between two
    reductions: the most t with p + t (p - 1)**2 <= its largest value,
    2**(8 * itemsize - 1) - 1."""
    return ((1 << 8 * dtype.itemsize - 1) - 1 - p) // (p - 1) ** 2


def _reduce(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p, into out (which may be x itself).  From 512 entries up it is
    x - (x // p) p: numpy divides by a scalar several times faster than it
    takes a remainder (a 96 x 96 array takes 17 us against 128 us in int16
    and 70 us in int64), but in three calls, which cost more than the one
    remainder below about 512 entries."""
    if x.size < 512:
        return np.remainder(x, p, out=out)
    q = x // p
    q *= p
    return np.subtract(x, q, out=out)


def _working_dtype(a: np.ndarray, p: int):
    """The dtype _eliminate works on a in: int16, else int32, the first
    whose _period(dtype, p) is at least _MIN_PERIOD, once a has at least
    _NARROW_MIN_ENTRIES entries; otherwise a's own dtype (int64, or object
    from p = 2**31 up)."""
    if a.dtype != object and a.size >= _NARROW_MIN_ENTRIES:
        for dtype in (np.dtype(np.int16), np.dtype(np.int32)):
            if _period(dtype, p) >= _MIN_PERIOD:
                return dtype
    return a.dtype


def _working_copy(a: np.ndarray, p: int) -> np.ndarray:
    """A fresh copy of a in _working_dtype(a, p), reduced mod p as it is
    made: one full-array reduction, and a is left as it was."""
    return _reduce(a, p, np.empty(a.shape, _working_dtype(a, p)))


def _eliminate(w: np.ndarray, p: int) -> int:
    """Rank r modulo p of w, an array already reduced mod p in its working
    dtype (_working_copy), by Gaussian elimination in place.  On return w is
    congruent mod p, entry by entry but not reduced, to the row echelon
    form: rows 0..r-1 are the pivot rows, each zero left of its pivot and
    with the pivot scaled to 1, every entry below a pivot is zero, and rows
    r and up are zero.

    The updates are memory-bound, so a narrow working copy pays only on
    larger matrices: measured on square matrices of full rank, of rank about
    half and of rank 1 at p = 11, 37 and 5051, the narrow copy made a rank
    3-15% slower at 12 columns, cost about what it saved at 24 to 32, and
    made it 5-20% faster at 40 to 48 and 15-45% faster at 64 to 96.
    Reduction is delayed (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008):
    each pivot reduces only its column and its row, and subtracts the
    unreduced products col * row, each at most (p - 1)**2, from the rows
    below.  After t such updates an entry lies in (-t (p - 1)**2, p), so the
    trailing block is reduced (_reduce) once every ``period`` updates, the
    most t with p + t (p - 1)**2 within the working dtype: at least 32 in
    int16 and int32, about 9.2e18 / (p - 1)**2 in int64; Python ints reduce
    on every update.

    A pivot step works on slices from the pivot column c on: the pivot row
    is reduced mod p before it is scaled by its inverse (so the product
    stays below p**2), the first row below r with a nonzero in column c
    trades places with row r from c on only, and one outer product
    updates the whole slice w[r+1:, c:], zero rows of the column included.
    Left of c those two rows hold multiples of p, which a reduction turns
    to zeros, so the result is that of a full row swap.  At a column
    with no pivot the elimination stops once the block right of it, rows r
    and up, is zero mod p: every later column would have no pivot either."""
    nrows, ncols = w.shape
    period = 1 if w.dtype == object else _period(w.dtype, p)
    r = pending = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = w[r:, c] % p
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            if not _reduce(w[r:, c + 1 :], p).any():
                break
            continue
        pr = r + int(nz[0])
        row = w[pr, c:] % p
        if pr != r:
            # left of c both rows are multiples of p, zero after the last reduction
            w[pr, c:] = w[r, c:]
            col[pr - r] = col[0]
        row = row * pow(int(row[0]), -1, p) % p
        w[r, c:] = row
        if nz.size > 1:
            w[r + 1 :, c:] -= col[1:, None] * row
            pending += 1
            if pending == period:
                _reduce(w[r + 1 :, c:], p, w[r + 1 :, c:])
                pending = 0
        r += 1
    return r
