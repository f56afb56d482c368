"""Univariate polynomials over exact scalars, plus root finding.

Coefficients are stored ascending (coeffs[i] multiplies X^i) and may be
Rational or QuadExt; Poly coefficients (a polynomial in a second variable)
are allowed for ring arithmetic and Bareiss determinants, as used by the
symbolic invariants Jacobian.  All arithmetic is exact.  Root finding is
split three ways:

  rational_roots        exact rational roots, complete at any height
  quad_irrational_roots roots in degree <= 2 extensions, numerically
                        discovered and exactly certified
  numeric_roots         double-precision roots for the numeric oracle

gcd of rational polynomials runs the heuristic GCDHEU on their integer
models (dense ascending int lists), with a primitive-PRS fallback; Euclid
over the coefficient field remains for QuadExt coefficients.  The resultant
of Poly values uses the fraction-free subresultant remainder sequence; for
bivariate integer input in Z[a][b] (lists of int lists) one argument must be
linear in b, and a closed form gives the resultant.
"""

from __future__ import annotations

import cmath
from math import gcd as igcd, isqrt

from ._kernel import Rational, durand_kerner
from .errors import (BothZero, ConstantInput, NonConvergence,
                     ReconstructionInconclusive, ZeroInput)
from .exact import QuadExt, rat, sqrt_exact

NEG_INF = float("-inf")


def _coerce_coeff(c):
    if isinstance(c, (Poly, QuadExt, Rational)):
        return c
    if isinstance(c, (int, str)):
        return rat(c)
    if isinstance(c, float):
        raise TypeError("float coefficients are not exact")
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
            acc = acc * z + _to_complex(c)
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
        from math import gcd, lcm
        cs = [rat(c) for c in self.coeffs]
        den = lcm(*(int(c.denominator) for c in cs))
        nums = [int(c.numerator) * (den // int(c.denominator)) for c in cs]
        g = gcd(*nums)
        nums = [v // g for v in nums]
        sign = 1
        if nums[-1] < 0:
            nums = [-v for v in nums]
            sign = -1
        return nums, Rational(sign * g, den)

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


def _to_complex(c) -> complex:
    if isinstance(c, QuadExt):
        return complex(c)
    return complex(float(c))


# --- dense integer polynomials: ascending int lists, no trailing zeros ---

def _zz_strip(f):
    while f and not f[-1]:
        f.pop()
    return f


def _zz_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _zz_strip(out)


def _zz_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        if c:
            for j, d in enumerate(g):
                out[i + j] += c * d
    return out


def _zz_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _zz_primitive(f):
    """f over its content, leading coefficient made positive."""
    if not f:
        return f
    g = igcd(*f)
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]


def _zz_divides(h, f):
    """True when the primitive h divides f in Z[x] (equivalently in Q[x])."""
    rem = list(f)
    dh, lc = len(h) - 1, h[-1]
    for k in range(len(rem) - 1 - dh, -1, -1):
        c = rem[k + dh]
        if c:
            q, r = divmod(c, lc)
            if r:
                return False
            for i in range(dh):
                rem[k + i] -= q * h[i]
    return not any(rem[:dh])


def _zz_prs_gcd(f, g):
    """gcd of primitive f, g by the primitive remainder sequence."""
    a, b = Poly(f), Poly(g)
    if a.degree() < b.degree():
        a, b = b, a
    while b:
        a, b = b, Poly(_prem(a, b).integer_model()[0])
    return a.integer_model()[0]


_HEU_TRIES = 6


def _zz_heu_gcd(f, g):
    """GCDHEU (Char, Geddes & Gonnet 1989) on primitive f, g of degree >= 1.

    Interpolates h from the symmetric xi-adic digits of igcd(f(xi), g(xi))
    and returns its primitive part P when P divides f and g; None when every
    evaluation point fails.  Such a P is the gcd: if gcd = P*r, then r(xi)
    divides the content of h, which is at most xi/2.  A nonconstant r has
    only roots shared by f and g, of modulus below T + 2 by Cauchy's bound
    with T = min(|f|/|lc f|, |g|/|lc g|), so |r(xi)| > xi - T - 2 >= xi/2
    since xi >= 2T + 4.
    """
    fn, gn = max(map(abs, f)), max(map(abs, g))
    low = min(fn, gn)
    xi = max(min(low, 99 * isqrt(low)), 2 * min(fn // abs(f[-1]), gn // abs(g[-1]))) + 4
    for _ in range(_HEU_TRIES):
        fv, gv = _zz_eval(f, xi), _zz_eval(g, xi)
        if fv and gv:
            v, half, h = igcd(fv, gv), xi // 2, []
            while v:
                c = v % xi
                if c > half:
                    c -= xi
                h.append(c)
                v = (v - c) // xi
            h = _zz_primitive(h)
            if _zz_divides(h, f) and _zz_divides(h, g):
                return h
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _zz_gcd(f, g):
    """gcd of integer models (primitive, positive leads), not both zero."""
    if not f or not g:
        return f or g
    if len(f) == 1 or len(g) == 1:
        return [1]
    return _zz_heu_gcd(f, g) or _zz_prs_gcd(f, g)


# --- gcd, resultant, discriminant ---

def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor over the coefficient field.

    Rational inputs go through their integer models and _zz_gcd; others
    (QuadExt coefficients) through Euclid over the field.
    """
    if p.is_zero() and q.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    if all(isinstance(c, Rational) for c in p.coeffs + q.coeffs):
        h = _zz_gcd(p.integer_model()[0], q.integer_model()[0])
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


def _prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder: lead(b)^(deg a - deg b + 1) * a reduced mod b."""
    db = b.degree()
    lb = b.lead()
    r = a
    e = a.degree() - db + 1
    while not r.is_zero() and r.degree() >= db:
        shift = r.degree() - db
        r = r.scale(lb) - b.scale(r.lead()).shift(shift)
        e -= 1
    if e > 0:
        r = r.scale(_scalar_pow(lb, e))
    return r


def _scalar_pow(s, k: int):
    if k < 1:
        raise ValueError("power must be positive here")
    out = s
    for _ in range(k - 1):
        out = out * s
    return out


def resultant(p, q):
    """Resultant of p and q.

    Sign and scaling follow the convention
    Res(p, q) = lead(p)^deg(q) * lead(q)^deg(p) * prod(alpha_i - beta_j)
    over the root multisets.  p and q are Poly values over a coefficient
    field, resolved by the subresultant remainder sequence; or bivariate
    integer polynomials in Z[a][b], each a list ascending in b of int lists
    ascending in a, of which one must be linear in b.  The bivariate result
    is a Poly in a.
    """
    if not isinstance(p, Poly):
        return _linear_resultant_zz(p, q)
    if p.is_zero() or q.is_zero():
        raise ZeroInput("resultant of the zero polynomial")
    a, b = p, q
    sign = 1
    if a.degree() < b.degree():
        if (a.degree() * b.degree()) % 2 == 1:
            sign = -1
        a, b = b, a
    if b.degree() == 0:
        if a.degree() == 0:
            return Rational(1)
        out = _scalar_pow(b.lead(), a.degree())
        return -out if sign < 0 else out
    g, h = Rational(1), Rational(1)
    while True:
        d = a.degree() - b.degree()
        if (a.degree() % 2 == 1) and (b.degree() % 2 == 1):
            sign = -sign
        r = _prem(a, b)
        if r.is_zero():
            return Rational(0) if b.degree() > 0 else _finish_resultant(sign, a, b, h)
        a = b
        divisor = g * _scalar_pow(h, d) if d > 0 else g
        b = Poly([c / divisor for c in r.coeffs])
        g = a.lead()
        if d == 0:
            pass
        elif d == 1:
            h = g
        else:
            h = _scalar_pow(g, d) / _scalar_pow(h, d - 1)
        if b.degree() <= 0:
            if b.is_zero():
                return Rational(0)
            return _finish_resultant(sign, a, b, h)


def _finish_resultant(sign, a, b, h):
    da = a.degree()
    res = _scalar_pow(b.lead(), da)
    if da > 1:
        res = res / _scalar_pow(h, da - 1)
    return -res if sign < 0 else res


def _linear_resultant_zz(p, q) -> Poly:
    """Res_b(p, q) over Z[a] when p or q is p1*b + p0.

    Res(p1*b + p0, E) = sum_k E_k (-p0)^k p1^(m-k) for E of degree m in b,
    and Res(E, p1*b + p0) = (-1)^m Res(p1*b + p0, E).
    """
    p = _zz_strip([_zz_strip(list(row)) for row in p])
    q = _zz_strip([_zz_strip(list(row)) for row in q])
    if not p or not q:
        raise ZeroInput("resultant of the zero polynomial")
    if len(p) == 2:
        lin, other, sign = p, q, 1
    elif len(q) == 2:
        lin, other, sign = q, p, (-1) ** (len(p) - 1)
    else:
        raise ValueError("integer resultant needs an argument linear in b")
    neg_p0, p1 = [-c for c in lin[0]], lin[1]
    acc, p1_pow = other[-1], [1]
    for row in reversed(other[:-1]):
        p1_pow = _zz_mul(p1_pow, p1)
        acc = _zz_add(_zz_mul(acc, neg_p0), _zz_mul(row, p1_pow))
    return Poly([sign * c for c in acc])


def discriminant(p: Poly):
    """Discriminant via Res(p, p') with the usual degree-dependent sign."""
    n = p.degree()
    if p.is_zero() or n < 1:
        raise ConstantInput("discriminant needs degree >= 1")
    res = resultant(p, p.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * (res / p.lead())


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

_DIVISOR_LIMIT = 10 ** 6


def _small_divisors(n: int):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(p: Poly):
    """All rational roots of p with multiplicity, ascending.

    Small integer models are handled by divisor candidates; models whose end
    coefficients are too large to factor go through certified high-precision
    approximation and rational reconstruction bounded by the leading
    coefficient.  Every candidate is verified by exact evaluation, and
    multiplicities come from repeated exact division.
    """
    if p.is_zero():
        raise ZeroInput("root finding needs a nonzero polynomial")
    if p.degree() < 1:
        return []
    ints, _ = p.integer_model()
    zeros = 0
    while ints[0] == 0:
        ints.pop(0)
        zeros += 1
    roots = [Rational(0)] * zeros
    if len(ints) > 1:
        if abs(ints[0]) <= _DIVISOR_LIMIT and abs(ints[-1]) <= _DIVISOR_LIMIT:
            candidates = set()
            for num in _small_divisors(ints[0]):
                for den in _small_divisors(ints[-1]):
                    candidates.add(Rational(num, den))
                    candidates.add(Rational(-num, den))
        else:
            candidates = _reconstructed_candidates(ints)
        work = Poly(ints)
        for cand in sorted(candidates):
            if work.eval(cand) != 0:
                continue
            factor = Poly([-cand, 1])
            while True:
                q, r = work.divrem(factor)
                if not r.is_zero():
                    break
                roots.append(cand)
                work = q
    roots.sort()
    return roots


def _mpf_to_rational(x):
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Rational(0)
    v = Rational(man) * (Rational(2) ** exp if exp >= 0 else Rational(1, 2 ** (-exp)))
    return -v if sign else v


def _limit_denominator(x, bound: int):
    from fractions import Fraction
    f = Fraction(x.numerator, x.denominator).limit_denominator(bound)
    return Rational(f.numerator, f.denominator)


def _certified_roots(ints, extra_digits=0):
    """High-precision complex roots of an integer square-free polynomial.

    Returns (roots, err_bound) as mpmath values; precision is chosen so the
    error bound allows exact rational reconstruction with denominators up to
    the leading coefficient.
    """
    import mpmath

    lead = abs(ints[-1])
    cauchy = 1 + max(abs(c) for c in ints) // lead
    digits = 2 * len(str(lead)) + len(str(cauchy + 1)) + 30 + extra_digits
    target = mpmath.mpf(10) ** (-digits + 10)
    # ints stay exact; polyroots converts them under the working precision
    coeffs_desc = [int(c) for c in reversed(ints)]
    last_exc = None
    for attempt in range(4):
        with mpmath.workdps(digits * (attempt + 1) + 20):
            try:
                # The iteration stalls once update noise (working eps times
                # the evaluation condition number) exceeds the target eps, so
                # retries must grow the extra working precision, not just the
                # step budget.
                roots, err = mpmath.polyroots(
                    coeffs_desc, maxsteps=100 * (attempt + 1),
                    extraprec=50 * 4 ** attempt, error=True)
            except mpmath.libmp.NoConvergence as exc:
                last_exc = exc
                continue
            if err <= target:
                return [mpmath.mpc(r) for r in roots], err
    raise ReconstructionInconclusive(
        f"high-precision root refinement failed: {last_exc}")


def _reconstructed_candidates(ints):
    """Rational root candidates from certified numeric roots."""
    p = Poly(ints)
    g = gcd(p, p.derivative())
    sf = p if g.degree() == 0 else (p / g)
    sints, _ = sf.integer_model()
    roots, err = _certified_roots(sints)
    bound = abs(sints[-1])
    out = set()
    for r in roots:
        if abs(r.imag) > 10 * err + 1e-30:
            continue
        approx = _mpf_to_rational(r.real)
        out.add(_limit_denominator(approx, bound))
    return out


def quad_irrational_roots(p: Poly):
    """Roots of p lying in degree <= 2 extensions, with multiplicity.

    Rational roots are included (a perfect-square discriminant is still a
    quadratic root).  Irrational roots come back as QuadExt pairs.  The
    search runs numerically at certified precision and every quadratic
    factor is verified by exact division, so nothing unverified is ever
    reported; a numeric failure raises ReconstructionInconclusive.
    """
    if p.is_zero():
        raise ZeroInput("root finding needs a nonzero polynomial")
    out = list(rational_roots(p))
    work = p
    for r in out:
        work = work / Poly([-r, 1])
    if work.degree() < 2:
        return out
    g = gcd(work, work.derivative())
    sf = work if g.degree() == 0 else (work / g)
    sints, _ = sf.integer_model()
    roots, err = _certified_roots(sints)
    bound = abs(sints[-1])
    seen = set()
    quads = []
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            tr = roots[i] + roots[j]
            nr = roots[i] * roots[j]
            if abs(tr.imag) > 10 * err + 1e-30 or abs(nr.imag) > 10 * err + 1e-30:
                continue
            t = _limit_denominator(_mpf_to_rational(tr.real), bound)
            n = _limit_denominator(_mpf_to_rational(nr.real), bound)
            if (t, n) in seen:
                continue
            seen.add((t, n))
            factor = Poly([n, -t, 1])
            q, rem = work.divrem(factor)
            if not rem.is_zero():
                continue
            disc = t * t - 4 * n
            if sqrt_exact(disc) is not None:
                continue  # rational pair, already collected
            mult = 1
            while True:
                q2, rem2 = q.divrem(factor)
                if not rem2.is_zero():
                    break
                mult += 1
                q = q2
            half_t, half = t / 2, Rational(1, 2)
            for _ in range(mult):
                quads.append(QuadExt(half_t, half, disc))
                quads.append(QuadExt(half_t, -half, disc))
    quads.sort(key=lambda z: (z.d, z.a, z.b))
    return out + quads


def numeric_roots(p: Poly, tol: float = 1e-9):
    """All complex roots in double precision, deterministically ordered.

    Thin wrapper over the kernel iteration: strips zero roots, normalizes
    to monic, iterates, and checks residuals against tol scaled by the
    largest coefficient magnitude.  Raises NonConvergence at the cap.
    """
    if p.is_zero() or p.degree() < 1:
        raise ZeroInput("numeric_roots needs degree >= 1")
    coeffs = [_to_complex(c) for c in p.coeffs]
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
            found = durand_kerner(monic, tol, 200)
        except RuntimeError as exc:
            raise NonConvergence(str(exc)) from exc
        for r in found:
            residual = abs(p.eval_complex(r))
            if residual > tol * scale:
                raise NonConvergence(
                    f"residual {residual:.3e} above tolerance at root {r}")
        roots.extend(found)
    roots.sort(key=lambda z: (abs(z), cmath.phase(z)))
    return roots
