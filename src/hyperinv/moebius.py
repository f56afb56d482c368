"""Exact Moebius transformations and binary-form pullbacks.

Maps act on the projective line over an exact scalar field: points are
Rational or QuadExt values, with a single INFINITY sentinel.  Matrices are
kept in a canonical projective scaling (first nonzero entry equal to 1), so
equality and hashing are plain componentwise checks.  The scaling inverts
the lead entry once and multiplies, and is skipped when the lead is 1.

Pullbacks run on Python ints.  The form and the map entries lie in Q or in
one field Q(sqrt(D)); a value x + y*sqrt(D) is the pair (x, y), and a
polynomial the pair of its x and y coefficient lists.  Each side is cleared
to Z[sqrt(D)] over one common denominator, the expansion runs there, and
the rational scale (content of f)/L^n is applied once at the end (see
_integer_pullback).  is_automorphism compares the two integer models by
cross multiplication and never builds the pullback's field coefficients.
"""

from __future__ import annotations

from math import gcd as igcd, lcm

from .errors import DegreeTooSmall, IdentityMap, SingularModel, ZeroInput
from .exact import QuadExt, Rational, _make, conj, pairs_over_one_radicand, sqrt_in_field
from .poly import Poly, _coerce_coeff, _zz_add, _zz_mul, _zz_strip


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


def _cleared(pairs):
    """(ints, L): pairs[i] = ints[i] / L componentwise, L the least common denominator."""
    # Star arguments here and below are lists: unpacking a generator into
    # lcm or gcd raised peak RSS by about 1 MB over a few thousand calls.
    L = lcm(*[int(q.denominator) for xy in pairs for q in xy])
    return [[int(q.numerator) * (L // int(q.denominator)) for q in xy]
            for xy in pairs], L


def _pair_mul(u, v, rad):
    """Product over Z[sqrt(rad)] of polynomials given as pairs (x, y) of int lists."""
    (ux, uy), (vx, vy) = u, v
    x = _zz_mul(ux, vx)
    if not (uy or vy):
        return x, []
    if uy and vy:
        x = _zz_add(x, [rad * c for c in _zz_mul(uy, vy)])
    return x, _zz_add(_zz_mul(ux, vy), _zz_mul(uy, vx))


def _integer_pullback(f: Poly, a, b, c, d, n: int):
    """Integer models (F, G, D, scale) of f and of its pullback.

    f = content * F and (cX+d)^n f((aX+b)/(cX+d)) = scale * G, where
    scale = content / L^n and L clears the denominators of a, b, c, d.  F
    and G are pairs (x, y) of int lists of length n + 1, coefficient i being
    x[i] + y[i]*sqrt(D); over Q, D is None and every y[i] is 0.  G is
    sum_i F_i (AX + B)^i (CX + D')^(n-i) for the cleared entries, by Horner
    in AX + B over a power table of CX + D'.
    """
    if f.is_zero():
        raise ZeroInput("cannot pull back the zero form")
    deg = f.degree()
    if n < deg:
        raise DegreeTooSmall(f"form degree {n} below polynomial degree {deg}")
    D, pairs = pairs_over_one_radicand(f.coeffs + (a, b, c, d))
    rad = 0 if D is None else int(D)
    ints, den_f = _cleared(pairs[:-4])
    (A, B, C, Dm), L = _cleared(pairs[-4:])
    content = igcd(*[v for xy in ints for v in xy])
    F = [[v // content for v in xy] for xy in ints]
    num = (_zz_strip([B[0], A[0]]), _zz_strip([B[1], A[1]]))
    den = (_zz_strip([Dm[0], C[0]]), _zz_strip([Dm[1], C[1]]))
    den_pows = [([1], [])]
    for _ in range(n):
        den_pows.append(_pair_mul(den_pows[-1], den, rad))
    acc = ([], [])
    for i in range(deg, -1, -1):
        ax, ay = _pair_mul(acc, num, rad)
        tx, ty = _pair_mul((_zz_strip([F[i][0]]), _zz_strip([F[i][1]])),
                           den_pows[deg - i], rad)
        acc = (_zz_add(ax, tx), _zz_add(ay, ty))
    G = _pair_mul(acc, den_pows[n - deg], rad)
    pad = [0] * (n + 1)
    F = ([x for x, _ in F] + pad)[:n + 1], ([y for _, y in F] + pad)[:n + 1]
    G = (G[0] + pad)[:n + 1], (G[1] + pad)[:n + 1]
    return F, G, D, Rational(content, den_f * L ** n)


def _field_values(x, y, D, scale):
    """The field elements scale * (x[i] + y[i]*sqrt(D))."""
    p, q = int(scale.numerator), int(scale.denominator)
    if D is None:
        return [Rational(u * p, q) for u in x]
    return [_make(Rational(u * p, q), Rational(v * p, q), D) for u, v in zip(x, y)]


def pullback_coeffs(f: Poly, a, b, c, d, n: int) -> Poly:
    """(cX+d)^n * f((aX+b)/(cX+d)) as a polynomial of formal degree n.

    f and the entries lie in Q or in one quadratic field Q(sqrt(D)).  The
    expansion runs on the integer models of _integer_pullback and is scaled
    back once at the end.
    """
    _, (gx, gy), D, scale = _integer_pullback(f, a, b, c, d, n)
    return Poly(_field_values(gx, gy, D, scale))


def pullback_form(f: Poly, m: MoebiusMap, n: int) -> Poly:
    return pullback_coeffs(f, m.a, m.b, m.c, m.d, n)


def is_automorphism(f: Poly, m: MoebiusMap, n: int):
    """The scalar lam with pullback_form(f, m, n) == lam * f, or None.

    Decided on the integer models f = content * F and g = scale * G of f
    and its pullback: with k the lowest index where F_k != 0, g is a
    nonzero multiple of f exactly when G_k != 0 and G_i F_k = F_i G_k for
    every i.  Over Q(sqrt(D)) both sides of each product are compared part
    by part, which is exact since sqrt(D) is irrational.  lam = g_k / f_k
    is formed only once that check has passed.
    """
    (fx, fy), (gx, gy), D, scale = _integer_pullback(f, m.a, m.b, m.c, m.d, n)
    rad = 0 if D is None else int(D)
    k = next(i for i, c in enumerate(f.coeffs) if c)
    p, q, r, s = fx[k], fy[k], gx[k], gy[k]  # F_k = p + q*sqrt(D), G_k = r + s*sqrt(D)
    if not (r or s):
        return None
    for x, y, u, v in zip(gx, gy, fx, fy):
        if x * p + rad * y * q != u * r + rad * v * s or x * q + y * p != u * s + v * r:
            return None
    gk = _field_values([r], [s], D, scale)[0]
    return gk / f.coeffs[k]
