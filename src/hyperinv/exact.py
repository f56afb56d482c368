"""Exact scalars: arbitrary-precision rationals and one quadratic extension.

Rational is fractions.Fraction under the package's name for it; this
module is the one place the rest of the package takes it from.
QuadExt adds values a + b*sqrt(d) over a fixed non-square radicand d, and
only irrational ones: b is never 0, because QuadExt(a, 0, d) and every
arithmetic result with a zero radical part are the Rational a.  So a
rational value is always a Rational, and code elsewhere never normalises.
Everything here is exact; nothing rounds.  zz.py holds the int-pair format.
"""

from __future__ import annotations

from fractions import Fraction as Rational
from functools import lru_cache
from math import isqrt

from .errors import RadicandMismatch


def rat(x) -> Rational:
    """Coerce x (int, str 'p/q', rational-like) to Rational."""
    if isinstance(x, Rational):
        return x
    if isinstance(x, (int, str)):
        try:
            return Rational(x)
        except ZeroDivisionError:  # a string such as "1/0"
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, QuadExt):
        raise ValueError(f"{x} is irrational, cannot coerce to Rational")
    if isinstance(x, float):
        raise TypeError("floats are not exact; convert explicitly")
    num = getattr(x, "numerator", None)
    den = getattr(x, "denominator", None)
    if num is not None and den is not None:
        return Rational(int(num), int(den))
    raise TypeError(f"cannot coerce {type(x).__name__} to Rational")


def sqrt_exact(x):
    """Exact square root of a non-negative rational, or None.

    Checks exactness by squaring integer square roots of numerator and
    denominator, so it is safe at any magnitude.
    """
    q = rat(x)
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Rational(rn, rd)


def is_square(x) -> bool:
    return sqrt_exact(x) is not None


_SQUARE_TRIAL_BOUND = 1000


@lru_cache(maxsize=4096)
def _canonical_radicand(num: int, den: int):
    """Reduce sqrt(num/den) to scale * sqrt(d) with d a canonical integer.

    Clears the denominator, then pulls out square factors whose prime part
    is below a fixed trial-division bound; rare radicands with a larger
    square prime factor stay as they come, which costs canonicality but
    never exactness.  Arithmetic goes through _make and never comes here;
    the cache serves the QuadExt(...) calls that build quadratic roots and
    fixed points, which meet the same few discriminants over and over.
    """
    m = num * den
    sign = -1 if m < 0 else 1
    m = abs(m)
    scale = 1
    for p in range(2, _SQUARE_TRIAL_BOUND):
        if p * p > m:
            break
        sq = p * p
        while m % sq == 0:
            m //= sq
            scale *= p
    return sign * m, Rational(scale, den)


class QuadExt:
    """Element a + b*sqrt(d) of a quadratic extension of the rationals.

    The radicand d must be a non-square nonzero rational.  It is stored in
    canonical form: an integer with small square factors removed (the
    rescaling is absorbed into b), so equal values built from different
    presentations of the same extension compare equal.  Two irrational
    values only interoperate in arithmetic when their radicands name one
    field (d1*d2 a square).  The radical part b is never 0: QuadExt(a, 0, d)
    checks d as usual and then returns the Rational a, so no QuadExt is
    rational and none equals a Rational.  Equality, hashing and sort_key
    all read one value key, so a radicand left non-canonical (a square
    prime factor past the trial bound) still gives one set or dict key and
    one sort position per field element.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, a, b, d):
        a, b, d = rat(a), rat(b), rat(d)
        if d == 0 or is_square(d):
            raise ValueError(f"radicand {d} is a perfect square; use a Rational")
        if b == 0:
            return a
        canon, mul = _canonical_radicand(int(d.numerator), int(d.denominator))
        return _make(a, b * mul, Rational(canon))

    # --- structure ---

    def conj(self) -> "QuadExt":
        return _make(self.a, -self.b, self.d)

    def norm(self) -> Rational:
        """Field norm a^2 - b^2 d; never zero, as b != 0 and d is no square."""
        return self.a * self.a - self.b * self.b * self.d

    def _coerce(self, other):
        """Return other as (a, b) over self's radicand, or None."""
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return other.a, other.b
            # one field when d1*d2 = s^2; then sqrt(d2) = (s/|d1|) sqrt(d1)
            s = sqrt_exact(self.d * other.d)
            if s is None:
                raise RadicandMismatch(f"sqrt({self.d}) vs sqrt({other.d})")
            return other.a, other.b * s / abs(self.d)
        try:
            return rat(other), Rational(0)
        except TypeError:
            return None

    # --- arithmetic ---

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        return _make(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        return _make(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        return _make(oa - self.a, ob - self.b, self.d)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        d = self.d
        return _make(self.a * oa + self.b * ob * d,
                     self.a * ob + self.b * oa, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        d = self.d
        n = oa * oa - ob * ob * d
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        # multiply by the conjugate of the divisor
        return _make((self.a * oa - self.b * ob * d) / n,
                     (self.b * oa - self.a * ob) / n, d)

    def __rtruediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        n = self.norm()
        return _make((oa * self.a - ob * self.b * self.d) / n,
                     (ob * self.a - oa * self.b) / n, self.d)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (Rational(1) / self) ** (-k)
        out = Rational(1)
        base = self
        while k:
            if k & 1:
                out = base * out
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    # --- comparisons ---

    def _value_key(self):
        """(a, b^2 d, b > 0): equal exactly when the values are equal.

        b1 sqrt(d1) = b2 sqrt(d2) iff b1^2 d1 = b2^2 d2 with b1, b2 of one
        sign, so the key does not depend on how the radicand is written.
        """
        return self.a, self.b * self.b * self.d, self.b > 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self._value_key() == other._value_key()
        return NotImplemented  # an irrational value equals no rational one

    def __hash__(self):
        return hash(self._value_key())

    def sign(self) -> int:
        """Exact sign for real embeddings (d > 0 uses the positive root)."""
        if self.d < 0:
            raise ValueError("no real sign for a negative radicand")
        a, b = self.a, self.b
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        lhs, rhs = a * a, b * b * self.d
        if lhs == rhs:
            return 0  # cannot happen for non-square d, kept for safety
        bigger_rational = lhs > rhs
        return (1 if bigger_rational else -1) if a > 0 else (-1 if bigger_rational else 1)

    def _cmp_sign(self, other) -> int:
        diff = self - other
        if isinstance(diff, QuadExt):
            return diff.sign()
        return -1 if diff < 0 else (0 if diff == 0 else 1)

    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0

    # --- conversions ---

    def __float__(self):
        if self.d < 0:
            raise ValueError("complex value; use complex()")
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    def __complex__(self):
        if self.d >= 0:
            return complex(float(self))
        return complex(float(self.a), float(self.b) * float(-self.d) ** 0.5)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d!r})"

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.d})"


def _make(a, b, d):
    """Build a QuadExt, or the Rational a when the radical part b is zero.

    Internal constructor for results of arithmetic on existing values: a and
    b are already Rational and d is a radicand taken from a QuadExt, so it
    is canonical and not a square.  Re-running __new__'s coercion, square
    test and canonicalisation would change nothing; QuadExt(...) called
    from outside keeps all of that validation.
    """
    if b == 0:
        return a
    x = object.__new__(QuadExt)
    x.a, x.b, x.d = a, b, d
    return x


def conj(x):
    """The Galois conjugate of an exact scalar; a Rational is its own."""
    return x.conj() if isinstance(x, QuadExt) else x


def sqrt_in_field(x, ambient=None):
    """Exact square root of x inside its own field, or None.

    Rational input gives a Rational root, or, when ambient names a radicand,
    a root in Q(sqrt(ambient)); QuadExt input gives a root in the same
    quadratic extension when one exists there.
    """
    if not isinstance(x, QuadExt):
        r = sqrt_exact(x)
        if r is None and ambient is not None:
            q = sqrt_exact(x / ambient)
            if q is not None:
                return QuadExt(0, q, ambient)
        return r
    A, B, D = x.a, x.b, x.d
    s = sqrt_exact(A * A - B * B * D)
    if s is None:
        return None
    for t in ((A + s) / 2, (A - s) / 2):
        p = sqrt_exact(t)
        if p is not None and p != 0:
            q = B / (2 * p)
            if p * p + q * q * D == A:
                return _make(p, q, D)
    return None


def sort_key(x):
    """Sort key of an exact scalar: rationals first, then QuadExt by _value_key.

    Orders map entries, invariants, roots and certificates deterministically;
    equal values get equal keys whatever their radicands.
    """
    if isinstance(x, QuadExt):
        return (1,) + x._value_key()
    return (0, x)


def scalar_to_complex(x) -> complex:
    """Numeric value of an exact scalar, for the numeric oracle only."""
    if isinstance(x, QuadExt):
        return complex(x)
    return complex(float(rat(x)))
