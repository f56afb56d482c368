"""Univariate polynomials over exact scalars, plus root finding.

Coefficients are stored ascending (coeffs[i] multiplies X^i) and may be
Rational or QuadExt; Poly coefficients (a polynomial in a second variable)
are allowed for ring arithmetic and Bareiss determinants, as used by the
symbolic invariants Jacobian.  All arithmetic is exact.  Root finding is
split three ways:

  rational_roots        exact rational roots by p-adic lifting, complete
                        at any height, no floating point
  quad_irrational_roots those plus roots of quadratic factors, numerically
                        discovered and exactly certified
  numeric_roots         double-precision roots for the numeric oracle

Rational polynomials run as integer models, zz.py's int lists: root
finding, square-free parts and gcd convert at the Poly boundary
(integer_model) and then compute in Z[x] with zz; Euclid over the
coefficient field remains for QuadExt coefficients.  The resultant takes
bivariate integer input in Z[a][b] (lists of int lists) with one argument
linear in b.  Its closed form in Z[a] runs by Kronecker substitution: every
polynomial in a is packed into one integer at a = 2^w (zz.pack), the sum is
one Horner pass of big-integer products, and the result is read back once
as base-2^w digits (zz.unpack).  Inputs sparse in a, all of the form
a^o g(a^e), are packed in a^e (exponent compression).
"""

from __future__ import annotations

from math import atan2, gcd as igcd, isqrt

from ._kernel import durand_kerner
from .errors import (BothZero, NonConvergence,
                     ReconstructionInconclusive, ZeroInput)
from .exact import QuadExt, Rational, rat, scalar_to_complex, sort_key
from . import zz

NEG_INF = float("-inf")


def _coerce_coeff(c):
    """Coerce plain ints/strings to Rational; pass ring elements through."""
    if isinstance(c, (Poly, QuadExt, Rational)):
        return c
    return rat(c)


class Poly:
    """Immutable univariate polynomial, ascending exact coefficients.

    When coefficients are themselves Poly values the instance represents a
    bivariate polynomial; arithmetic between two Poly operands always works
    at the outermost level, so scalar multiplication by an inner-level Poly
    must go through scale().
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # --- basic structure ---

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        """Degree as an int; the zero polynomial reports -inf."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Rational(0)

    # --- ring operations ---

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Rational(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        """Multiply every coefficient by the scalar s (inner level for nested polys)."""
        s = _coerce_coeff(s)
        return Poly([c * s for c in self.coeffs])

    def shift(self, k: int):
        """Multiply by X^k."""
        if not self.coeffs:
            return self
        return Poly((Rational(0),) * k + self.coeffs)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Poly([Rational(1)])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # --- division ---

    def divrem(self, other: "Poly"):
        """Quotient and remainder; coefficients must form a field."""
        if not isinstance(other, Poly):
            other = Poly([other])
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree() < other.degree():
            return Poly(), self
        rem = list(self.coeffs)
        db = other.degree()
        lb = other.lead()
        q = [Rational(0)] * (len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[k + db]
            if not c:
                continue
            f = c / lb
            q[k] = f
            for i, bc in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * bc
        return Poly(q), Poly(rem)

    def __divmod__(self, other):
        return self.divrem(other)

    def __truediv__(self, other):
        """Exact division; raises if the division leaves a remainder."""
        if isinstance(other, Poly):
            q, r = self.divrem(other)
            if not r.is_zero():
                raise ValueError("inexact polynomial division")
            return q
        s = _coerce_coeff(other)
        return Poly([c / s for c in self.coeffs])

    def __mod__(self, other):
        return self.divrem(other)[1]

    # --- calculus and evaluation ---

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Horner evaluation at an exact scalar (or a Poly, for composition)."""
        if not self.coeffs:
            return Rational(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.eval(x)

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + scalar_to_complex(c)
        return acc

    # --- normalization helpers ---

    def monic(self):
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.lead()
        if lead == 1:
            return self
        return Poly([c / lead for c in self.coeffs])

    def integer_model(self):
        """(list of ints, content) with the ints coprime overall.

        Requires Rational coefficients.  self = content * (integer poly),
        and the integer model has positive leading coefficient.
        """
        if self.is_zero():
            return [], Rational(0)
        rad, (pairs, den) = zz.cleared(self.coeffs)
        if rad:
            raise ValueError("an integer model needs rational coefficients")
        nums = [x for x, _ in pairs]
        ints = zz.primitive(nums)
        return ints, Rational(nums[-1] // ints[-1], den)

    def reverse(self):
        """Coefficient reversal X^deg * p(1/X)."""
        return Poly(tuple(reversed(self.coeffs)))

    # --- comparisons ---

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        try:
            other = _coerce_coeff(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == Poly([other]).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append("X" if c == 1 else f"{c}*X")
            else:
                parts.append(f"X^{i}" if c == 1 else f"{c}*X^{i}")
        return " + ".join(parts)


def variable():
    """The monomial X."""
    return Poly([0, 1])


def constant(c):
    return Poly([c])


# --- gcd and resultant ---

def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor over the coefficient field.

    Rational inputs go through their integer models and zz.gcd; others
    (QuadExt coefficients) through Euclid over the field.
    """
    if p.is_zero() and q.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    if all(isinstance(c, Rational) for c in p.coeffs + q.coeffs):
        h = zz.gcd(p.integer_model()[0], q.integer_model()[0])
        return Poly([Rational(c, h[-1]) for c in h])
    return _field_gcd(p, q)


def _field_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm over the coefficient field."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a.divrem(b)[1]
        if not b.is_zero():
            b = b.monic()
    return a.monic()


def resultant(p, q) -> Poly:
    """Res_b(p, q) of bivariate integer polynomials in Z[a][b], as a Poly in a.

    p and q are lists ascending in b of int lists ascending in a, and one of
    them must be linear in b.  Sign and scaling follow the convention
    Res(p, q) = lead(p)^deg(q) * lead(q)^deg(p) * prod(alpha_i - beta_j)
    over the root multisets in b.  For the linear one p1*b + p0,
    Res(p1*b + p0, E) = sum_k E_k (-p0)^k p1^(m-k) for E of degree m in b,
    and Res(E, p1*b + p0) = (-1)^m Res(p1*b + p0, E).

    The sum runs on Python ints (Kronecker substitution): each polynomial
    in a is packed at a = 2^w, the Horner pass multiplies big integers, and
    the result is read back once as symmetric base-2^w digits.  Exponent
    compression: with e the gcd of the exponent gaps inside each input,
    every input f is a^o f~(a^e), o its lowest exponent.  When the lowest
    exponents t_k of the terms E_k (-p0)^k p1^(m-k) all equal r mod e, the
    sum is a^r H(a^e) with H(A) = sum_k A^((t_k - r)/e) E~_k (-p0)~^k p1~^(m-k),
    and A = 2^w is packed in place of a; otherwise e = 1, the dense case.
    No coefficient of H exceeds B = sum_k |E_k|_1 |p0|_1^k |p1|_1^(m-k) in
    absolute value, so w = bitlen(B) + 2 reads each one as a digit.
    """
    p = zz.strip([zz.strip(list(row)) for row in p])
    q = zz.strip([zz.strip(list(row)) for row in q])
    if not p or not q:
        raise ZeroInput("resultant of the zero polynomial")
    if len(p) == 2:
        lin, other, sign = p, q, 1
    elif len(q) == 2:
        lin, other, sign = q, p, (-1) ** (len(p) - 1)
    else:
        raise ValueError("integer resultant needs an argument linear in b")
    m = len(other) - 1
    inputs = [[-c for c in lin[0]], lin[1], *other]
    support = [[i for i, c in enumerate(f) if c] for f in inputs]
    low = [s[0] if s else 0 for s in support]
    e = igcd(*[i - s[0] for s in support for i in s[1:]])
    t = [o + k * low[0] + (m - k) * low[1] for k, o in enumerate(low[2:])]
    live = [t_k for t_k, E in zip(t, other) if E]
    r = min(live)
    if not e or any((t_k - r) % e for t_k in live):
        e = 1
    g = [f[o::e] for f, o in zip(inputs, low)]
    norms = [sum(map(abs, f)) for f in g]
    bound, w1 = norms[-1], 1
    for n in reversed(norms[2:-1]):
        w1 *= norms[1]
        bound = bound * norms[0] + n * w1
    w = bound.bit_length() + 2
    neg_p0, p1 = zz.pack(g[0], w), zz.pack(g[1], w)
    acc, p1_pow = zz.pack(g[-1], w) << w * ((t[m] - r) // e), 1
    for k in range(m - 1, -1, -1):
        p1_pow *= p1
        acc *= neg_p0
        if other[k]:
            acc += (zz.pack(g[k + 2], w) << w * ((t[k] - r) // e)) * p1_pow
    H = zz.unpack(sign * acc, w)
    out = [Rational(0)] * (r + e * len(H))  # one shared zero; Poly strips the tail
    out[r::e] = map(Rational, H)
    return Poly(out)


def is_square_free(p: Poly) -> bool:
    if p.degree() < 1:
        return not p.is_zero()
    return gcd(p, p.derivative()).degree() == 0


# --- exact determinant (used by the invariants jacobian) ---

def _exact_scalar_div(x, y):
    """x / y, a scalar x lifted to a constant Poly when y is a Poly."""
    if isinstance(y, Poly) and not isinstance(x, Poly):
        x = Poly([x])
    return x / y


def det_bareiss(rows):
    """Exact determinant by fraction-free Bareiss elimination.

    Entries may be Rational, QuadExt, or Poly; intermediate divisions are
    exact by construction.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return Rational(1)
    sign = 1
    prev = Rational(1)
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return Rational(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _exact_scalar_div(num, prev)
            m[i][k] = Rational(0)
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


# --- root finding ---

def _padic_roots(f):
    """Candidate rational roots of the square-free integer model f, by p-adic lifting.

    Loos (1983): take the first prime p not dividing lc = f[-1] at which
    every root of f mod p is simple; Newton's iteration lifts each to a
    unique root mod p^k.  A rational root r = N/D has D | lc and reduces to
    one of them, and lc*r is an integer of modulus at most
    B = lc + max|f_i| (Cauchy), so it is the symmetric residue of lc times
    the lift once p^k > 2B.  Every rational root is among the candidates;
    the caller's exact division (_peel_roots) keeps the true ones.
    """
    lc, df = f[-1], zz.derivative(f)
    p = 1
    while True:
        p += 1
        if lc % p == 0 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        fp = [c % p for c in f]
        start = [x for x in range(p) if zz.evaluate(fp, x) % p == 0]
        if all(zz.evaluate(df, x) % p for x in start):
            break
    bound, out = 2 * (lc + max(map(abs, f))), []
    for x in start:
        m = p
        while m <= bound:
            m *= m
            x = (x - zz.evaluate(f, x) * pow(zz.evaluate(df, x), -1, m)) % m
        n = lc * x % m
        out.append(Rational(n - m if n > m // 2 else n, lc))
    return out


def _peel_roots(f, candidates):
    """(roots, cofactor) of the integer model f over the given candidates.

    roots lists each candidate root of f by its multiplicity, ascending;
    the cofactor is f with their linear factors divided out.
    """
    roots = []
    for r in candidates:
        k, f = zz.peel(f, [-r.numerator, r.denominator])
        roots += [r] * k
    return sorted(roots), f


def rational_roots(p: Poly):
    """All rational roots of p with multiplicity, ascending.

    The candidates come from _padic_roots on the square-free integer model,
    complete at any coefficient height with no floating point, and the
    roots and multiplicities from repeated exact division.
    """
    if p.is_zero():
        raise ZeroInput("root finding needs a nonzero polynomial")
    if p.degree() < 1:
        return []
    f = p.integer_model()[0]
    return _peel_roots(f, _padic_roots(zz.square_free(f)))[0]


def _mpf_to_rational(x):
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Rational(0)
    v = Rational(man) * (Rational(2) ** exp if exp >= 0 else Rational(1, 2 ** (-exp)))
    return -v if sign else v


def _certified_roots(ints):
    """High-precision complex roots of an integer square-free polynomial.

    Returns (roots, err_bound) as mpmath values; precision is chosen so the
    error bound allows exact rational reconstruction with denominators up to
    the leading coefficient.  The iteration starts from the kernel's
    double-precision roots, or from mpmath's own default points when the
    kernel fails.  The start only saves steps: convergence, the error bound
    and everything derived from the roots are checked as if it were absent.
    """
    import mpmath

    try:
        monic = [c / ints[-1] for c in ints[:-1]] + [1]  # OverflowError past float range
        seed = [mpmath.mpc(z) for z in durand_kerner(monic, _NUMERIC_TOL, 200)]
    except (RuntimeError, OverflowError):
        seed = None

    lead = abs(ints[-1])
    cauchy = 1 + max(abs(c) for c in ints) // lead
    digits = 2 * len(str(lead)) + len(str(cauchy + 1)) + 30
    target = mpmath.mpf(10) ** (-digits + 10)
    # ints stay exact; polyroots converts them under the working precision
    coeffs_desc = [int(c) for c in reversed(ints)]
    last_exc = None
    for attempt in range(4):
        dps = digits * (attempt + 1) + 20
        with mpmath.workdps(dps):
            try:
                # The iteration stalls once update noise (working eps times
                # the evaluation condition number) exceeds the target eps, so
                # retries must grow the extra working precision, not just the
                # step budget.
                roots, err = mpmath.polyroots(
                    coeffs_desc, maxsteps=100 * (attempt + 1),
                    extraprec=50 * 4 ** attempt, error=True, roots_init=seed)
            except mpmath.libmp.NoConvergence as exc:
                last_exc = exc
                continue
            if err <= target:
                return [mpmath.mpc(r) for r in roots], err
    bits = max(abs(c).bit_length() for c in ints)
    raise ReconstructionInconclusive(
        f"high-precision root refinement failed on degree {len(ints) - 1} with "
        f"{bits}-bit coefficients, last at {dps} digits: {last_exc}")


def quad_irrational_roots(p: Poly):
    """Roots of p lying in degree <= 2 extensions, with multiplicity.

    Rational roots are included, from rational_roots.  Irrational roots are
    QuadExt pairs: the square-free cofactor left by the rational roots is
    searched numerically at certified precision and every quadratic factor
    is verified by exact division, so nothing unverified is ever reported;
    a numeric failure raises ReconstructionInconclusive.
    """
    if p.is_zero():
        raise ZeroInput("root finding needs a nonzero polynomial")
    out = rational_roots(p)  # by name: perfbench/spans.py wraps it here
    work = _peel_roots(p.integer_model()[0], dict.fromkeys(out))[1]
    if len(work) < 3:
        return out
    sints = zz.square_free(work)
    roots, err = _certified_roots(sints)
    bound = abs(sints[-1])
    # Pair sums and products are formed exactly from the roots' binary
    # values: mpmath arithmetic out here would round to its default 53 bits
    # and lose the certified digits.
    parts = [(_mpf_to_rational(r.real), _mpf_to_rational(r.imag)) for r in roots]
    tol = 10 * _mpf_to_rational(err) + Rational(1, 10 ** 30)
    seen = set()
    quads = []
    for i, (xi, yi) in enumerate(parts):
        for xj, yj in parts[i + 1:]:
            if abs(yi + yj) > tol or abs(xi * yj + yi * xj) > tol:
                continue
            t = (xi + xj).limit_denominator(bound)
            n = (xi * xj - yi * yj).limit_denominator(bound)
            if (t, n) in seen:
                continue
            seen.add((t, n))
            # work has no rational root left, so a quadratic factor is irreducible
            mult = zz.peel(work, Poly([n, -t, 1]).integer_model()[0])[0]
            if not mult:
                continue
            disc, half = t * t - 4 * n, Rational(1, 2)
            quads += [QuadExt(t / 2, half, disc), QuadExt(t / 2, -half, disc)] * mult
    quads.sort(key=sort_key)
    return out + quads


_NUMERIC_TOL = 1e-9


def numeric_roots(p: Poly):
    """All complex roots in double precision, deterministically ordered.

    Thin wrapper over the kernel iteration: strips zero roots, normalizes
    to monic, iterates, and checks residuals against _NUMERIC_TOL scaled by
    the largest coefficient magnitude.  Raises NonConvergence when the
    kernel fails or a residual is above tolerance or not finite.
    """
    if p.is_zero() or p.degree() < 1:
        raise ZeroInput("numeric_roots needs degree >= 1")
    coeffs = [scalar_to_complex(c) for c in p.coeffs]
    scale = max(abs(c) for c in coeffs)
    zeros = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zeros += 1
    roots = [0j] * zeros
    if len(coeffs) > 1:
        lead = coeffs[-1]
        monic = [c / lead for c in coeffs]
        monic[-1] = 1
        try:
            found = durand_kerner(monic, _NUMERIC_TOL, 200)
        except RuntimeError as exc:
            raise NonConvergence(str(exc)) from exc
        for r in found:
            residual = abs(p.eval_complex(r))
            # an overflowed evaluation gives NaN, which fails every comparison
            if not residual <= _NUMERIC_TOL * scale:
                raise NonConvergence(
                    f"residual {residual:.3e} not within tolerance at root {r}")
        roots.extend(found)
    roots.sort(key=lambda z: (abs(z), atan2(z.imag, z.real)))
    return roots
