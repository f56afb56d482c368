"""Exact Moebius transformations and binary-form pullbacks.

Maps act on the projective line over an exact scalar field: points are
Rational or QuadExt values, with a single INFINITY sentinel.  Matrices are
kept in a canonical projective scaling (first nonzero entry equal to 1), so
equality and hashing are plain componentwise checks.  The scaling inverts
the lead entry once and multiplies, and is skipped when the lead is 1.

Pullbacks run on Python ints.  The form and the map entries lie in Q or in
one field Q(sqrt(rad)); a value is an int pair in zz.py's format, and a
polynomial the pair of its x and y coefficient lists.  Each side is cleared
to Z[sqrt(rad)] over its own common denominator (zz.cleared), and the
rational scale (content of f)/L^n is applied once at the end.  The expansion
is one homogeneous Horner at X = 2^k, read back as base-2^k digits
(zz.unpack): a few big-integer products per coefficient, not a polynomial
product (see _integer_pullback).  is_automorphism compares the two integer
models by cross multiplication and never builds the pullback's field
coefficients.
"""

from __future__ import annotations

from math import gcd as igcd, isqrt

from .errors import DegreeTooSmall, IdentityMap, SingularModel, ZeroInput
from .exact import QuadExt, Rational, conj, sqrt_in_field
from .poly import Poly, _coerce_coeff
from . import zz


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def proj_equal(x, y) -> bool:
    if x is INFINITY or y is INFINITY:
        return x is y
    return x == y


class MoebiusMap:
    """Invertible map X -> (aX + b)/(cX + d) with exact entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        entries = [_coerce_coeff(v) for v in (a, b, c, d)]
        if any(isinstance(v, Poly) for v in entries):
            raise TypeError("map entries must be exact scalars, not polynomials")
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det == 0:
            raise SingularModel("zero determinant")
        self.a, self.b, self.c, self.d = _canonical(entries)

    @classmethod
    def _unchecked(cls, a, b, c, d) -> "MoebiusMap":
        """The map of exact scalar entries whose determinant is known nonzero.

        Skips __init__'s coercion and determinant test, for callers that
        have already established both; the scaling is the same.
        """
        out = object.__new__(cls)
        out.a, out.b, out.c, out.d = _canonical((a, b, c, d))
        return out

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def det(self):
        return self.a * self.d - self.b * self.c

    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def apply(self, x):
        """Image of a projective point (scalar or INFINITY)."""
        if x is INFINITY:
            if self.c == 0:
                return INFINITY
            return self.a / self.c
        den = self.c * x + self.d
        if den == 0:
            return INFINITY
        return (self.a * x + self.b) / den

    def __call__(self, x):
        return self.apply(x)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return MoebiusMap(a * e + b * g, a * f + b * h,
                          c * e + d * g, c * f + d * h)

    def inverse(self) -> "MoebiusMap":
        # the adjugate has the same nonzero determinant
        return MoebiusMap._unchecked(self.d, -self.b, -self.c, self.a)

    def conj(self) -> "MoebiusMap":
        """The Galois conjugate: each QuadExt entry replaced by its conjugate.

        Conjugation keeps the rational lead entry 1 and every zero entry, so
        the result is already in canonical scaling and skips __init__.
        """
        out = object.__new__(MoebiusMap)
        out.a, out.b, out.c, out.d = map(conj, self.entries())
        return out

    def order(self, bound: int):
        """Smallest k <= bound with self^k the identity, or None."""
        acc = self
        for k in range(1, bound + 1):
            if acc.is_identity():
                return k
            acc = acc.compose(self)
        return None

    def fixed_points(self):
        """The two fixed points, quadratic-formula branch first.

        A parabolic map reports its double fixed point twice.  Raises
        IdentityMap for the identity and ValueError when the points live
        outside a quadratic extension of the entry field.
        """
        if self.is_identity():
            raise IdentityMap("every point is fixed")
        a, b, c, d = self.entries()
        if c == 0:
            if a == d:
                return (INFINITY, INFINITY)
            return (b / (d - a), INFINITY)
        # roots of c X^2 + (d - a) X - b
        disc = (d - a) * (d - a) + 4 * b * c
        mid = (a - d) / (2 * c)
        ambient = next((v.d for v in self.entries() if isinstance(v, QuadExt)), None)
        root = sqrt_in_field(disc, ambient)
        if root is not None:
            half = root / (2 * c)
            return (mid + half, mid - half)
        if isinstance(disc, QuadExt) or isinstance(mid, QuadExt) or ambient is not None:
            raise ValueError("fixed points lie outside a quadratic extension")
        spread = 1 / (2 * c)
        return (QuadExt(mid, spread, disc), QuadExt(mid, -spread, disc))

    def __eq__(self, other):
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"MoebiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        def wrap(x):
            s = str(x)
            return f"({s})" if " " in s or "/" in s else s

        def linear(u, v):
            if u == 0:
                return str(v)
            head = "X" if u == 1 else ("-X" if u == -1 else f"{wrap(u)}*X")
            if v == 0:
                return head
            vs = str(v)
            if " " in vs:
                return f"{head} + ({vs})"
            if vs.startswith("-"):
                return f"{head} - {vs[1:]}"
            return f"{head} + {vs}"

        if self.c == 0:
            return f"X -> {linear(self.a / self.d, self.b / self.d)}"
        num = linear(self.a, self.b)
        den = linear(self.c, self.d)
        if " " in num or "*" in num:
            num = f"({num})"
        if " " in den or "*" in den:
            den = f"({den})"
        return f"X -> {num}/{den}"


def _canonical(entries):
    """entries over the first nonzero one: one inversion, none when that is 1."""
    lead = next(v for v in entries if v)
    if lead == 1:
        return entries
    inv = 1 / lead
    return [v * inv for v in entries]


def _integer_pullback(f: Poly, a, b, c, d, n: int):
    """Integer models (F, G, rad, scale) of f and of its pullback.

    f = content * F and (cX+d)^n f((aX+b)/(cX+d)) = scale * G, where
    scale = content / L^n and L clears the denominators of a, b, c, d.  F
    and G are pairs (x, y) of int lists of length n + 1, coefficient i being
    x[i] + y[i]*sqrt(rad) (so every y[i] is 0 over Q, rad = 0).  G is
    sum_i F_i (AX + B)^i (CX + D)^(n-i) for the cleared entries, evaluated
    once at X = 2^k (zz.homogeneous) and read back as symmetric base-2^k
    digits (zz.unpack), part by part (Kronecker substitution).  The width
    k is safe: with s = isqrt(|rad|) + 1 the norm |x| + s*|y| bounds both
    parts of x + y*sqrt(rad) and is submultiplicative, so summed over
    coefficients it bounds every part of every G_j by
    N(F) * N(AX + B)^n * N(CX + D)^n, and k is that bound's bit length
    plus 2, which leaves every |G_j| below 2^k / 4.
    """
    if f.is_zero():
        raise ZeroInput("cannot pull back the zero form")
    deg = f.degree()
    if n < deg:
        raise DegreeTooSmall(f"form degree {n} below polynomial degree {deg}")
    rad, (ints, den_f), ((A, B, C, D), L) = zz.cleared(f.coeffs, (a, b, c, d))
    content = igcd(*[v for xy in ints for v in xy])
    pad = [0] * (n - deg)
    F = [x // content for x, _ in ints] + pad, [y // content for _, y in ints] + pad
    s = isqrt(abs(rad)) + 1

    def norm(*values):
        return sum(abs(x) + s * abs(y) for x, y in values)

    k = (norm(*ints) // content * norm(A, B) ** n * norm(C, D) ** n).bit_length() + 2
    xi = 1 << k
    gx, gy = zz.homogeneous(*F, (A[0] * xi + B[0], A[1] * xi + B[1]),
                            (C[0] * xi + D[0], C[1] * xi + D[1]), n, rad)
    G = tuple(g + [0] * (n + 1 - len(g)) for g in (zz.unpack(gx, k), zz.unpack(gy, k)))
    return F, G, rad, Rational(content, den_f * L ** n)


def pullback_coeffs(f: Poly, a, b, c, d, n: int) -> Poly:
    """(cX+d)^n * f((aX+b)/(cX+d)) as a polynomial of formal degree n.

    f and the entries lie in Q or in one quadratic field Q(sqrt(rad)).  The
    expansion runs on the integer models of _integer_pullback and is scaled
    back once at the end.
    """
    _, (gx, gy), rad, scale = _integer_pullback(f, a, b, c, d, n)
    p, q = scale.numerator, scale.denominator
    return Poly([zz.to_field(x * p, y * p, q, rad) for x, y in zip(gx, gy)])


def pullback_form(f: Poly, m: MoebiusMap, n: int) -> Poly:
    return pullback_coeffs(f, m.a, m.b, m.c, m.d, n)


def is_automorphism(f: Poly, m: MoebiusMap, n: int):
    """The scalar lam with pullback_form(f, m, n) == lam * f, or None.

    Decided on the integer models f = content * F and g = scale * G of f
    and its pullback: with k the lowest index where F_k != 0, g is a
    nonzero multiple of f exactly when G_k != 0 and G_i F_k = F_i G_k for
    every i.  Over Q(sqrt(rad)) both sides of each product are compared
    part by part, which is exact since sqrt(rad) is irrational.
    lam = g_k / f_k is formed only once that check has passed.
    """
    (fx, fy), (gx, gy), rad, scale = _integer_pullback(f, m.a, m.b, m.c, m.d, n)
    k = next(i for i, c in enumerate(f.coeffs) if c)
    p, q, r, s = fx[k], fy[k], gx[k], gy[k]  # F_k = p + q*sqrt(rad), G_k = r + s*sqrt(rad)
    if not (r or s):
        return None
    for x, y, u, v in zip(gx, gy, fx, fy):
        if x * p + rad * y * q != u * r + rad * v * s or x * q + y * p != u * s + v * r:
            return None
    lam = zz.to_field(r * scale.numerator, s * scale.numerator, scale.denominator, rad)
    return lam / f.coeffs[k]
