"""Exact Moebius transformations and binary-form pullbacks.

Maps act on the projective line over an exact scalar field: points are
Rational or QuadExt values, with a single INFINITY sentinel.  Matrices are
kept in a canonical projective scaling (first nonzero entry equal to 1), so
equality and hashing are plain componentwise checks.
"""

from __future__ import annotations

from .errors import DegreeTooSmall, IdentityMap, SingularModel, ZeroInput
from .exact import QuadExt, collapse, sqrt_in_field
from .poly import Poly, _coerce_coeff


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
        entries = [collapse(_coerce_coeff(v)) for v in (a, b, c, d)]
        if any(isinstance(v, Poly) for v in entries):
            raise TypeError("map entries must be scalars; see pullback_coeffs")
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det == 0:
            raise SingularModel("zero determinant")
        lead = next(v for v in entries if v)
        self.a, self.b, self.c, self.d = (collapse(v / lead) for v in entries)

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
            return collapse(self.a / self.c)
        den = self.c * x + self.d
        if den == 0:
            return INFINITY
        return collapse((self.a * x + self.b) / den)

    def __call__(self, x):
        return self.apply(x)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return MoebiusMap(a * e + b * g, a * f + b * h,
                          c * e + d * g, c * f + d * h)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

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
            return (collapse(b / (d - a)), INFINITY)
        # roots of c X^2 + (d - a) X - b
        disc = collapse((d - a) * (d - a) + 4 * b * c)
        mid = collapse((a - d) / (2 * c))
        ambient = next((v.d for v in self.entries() if isinstance(v, QuadExt)), None)
        root = sqrt_in_field(disc, ambient)
        if root is not None:
            half = root / (2 * c)
            return (collapse(mid + half), collapse(mid - half))
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


def pullback_coeffs(f: Poly, a, b, c, d, n: int) -> Poly:
    """(cX+d)^n * f((aX+b)/(cX+d)) as a polynomial of formal degree n.

    Entries may be exact scalars or Poly values (polynomials in unknown map
    parameters).
    """
    if f.is_zero():
        raise ZeroInput("cannot pull back the zero form")
    if n < f.degree():
        raise DegreeTooSmall(f"form degree {n} below polynomial degree {f.degree()}")
    num = Poly([b, a])
    den = Poly([d, c])
    deg = f.degree()
    num_pows = [Poly([1])]
    for _ in range(deg):
        num_pows.append(num_pows[-1] * num)
    den_pows = [Poly([1])]
    for _ in range(n):
        den_pows.append(den_pows[-1] * den)
    out = Poly()
    for i in range(deg + 1):
        fi = f.coeffs[i]
        if not fi:
            continue
        out = out + (num_pows[i] * den_pows[n - i]).scale(fi)
    return out


def pullback_form(f: Poly, m: MoebiusMap, n: int) -> Poly:
    return pullback_coeffs(f, m.a, m.b, m.c, m.d, n)


def is_automorphism(f: Poly, m: MoebiusMap, n: int):
    """The scalar lam with pullback_form(f, m, n) == lam * f, or None."""
    g = pullback_form(f, m, n)
    if g.degree() != f.degree():
        return None
    k = next(i for i, c in enumerate(f.coeffs) if c)
    gk = g.coeff(k)
    if not gk:
        return None
    lam = collapse(gk / f.coeffs[k])
    if g == Poly([c * lam for c in f.coeffs]):
        return lam
    return None
