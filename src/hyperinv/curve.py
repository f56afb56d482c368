"""Hyperelliptic curves Y^2 = F(X) and coordinate changes.

A model is valid when F is exact, square-free, and has degree 2g+1 or 2g+2
for some genus g >= 2.  An odd-degree model carries one branch point at
infinity; to_even_degree moves it to a finite position so downstream code
can always work with the full degree-(2g+2) binary form.
"""

from __future__ import annotations

from .errors import DegreeTooSmall, IllegalCollapse, SingularModel
from .exact import Rational
from .moebius import MoebiusMap, pullback_coeffs, pullback_form
from .poly import Poly, gcd


class HyperellipticCurve:
    """Curve Y^2 = F(X) with square-free F of degree >= 5."""

    __slots__ = ("F", "genus")

    def __init__(self, F: Poly):
        if not isinstance(F, Poly):
            F = Poly(F)
        deg = F.degree()
        if F.is_zero() or deg < 5:
            raise DegreeTooSmall(f"degree {deg} gives genus < 2")
        if gcd(F, F.derivative()).degree() != 0:
            raise SingularModel("F has a repeated root")
        genus = (deg - 1) // 2 if deg % 2 else deg // 2 - 1
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "genus", genus)

    def __setattr__(self, name, value):
        raise AttributeError("HyperellipticCurve is immutable")

    @property
    def even_degree(self) -> bool:
        return self.F.degree() == 2 * self.genus + 2

    @property
    def infinite_branch(self) -> bool:
        return not self.even_degree

    def __eq__(self, other):
        if not isinstance(other, HyperellipticCurve):
            return NotImplemented
        return self.F == other.F

    def __hash__(self):
        return hash(self.F)

    def __repr__(self):
        return f"HyperellipticCurve({self.F!r})"

    def __str__(self):
        return f"Y^2 = {self.F}"


def _moved_curve(G: Poly, genus: int) -> HyperellipticCurve:
    """Curve Y^2 = G for a Moebius image G of a valid model, without re-validation.

    Internal constructor for transform and to_even_degree.  A valid model F
    of genus g is square-free of degree n - 1 or n, n = 2g + 2, so as a
    binary form of degree n it has n distinct roots on the projective line
    (infinity among them when deg F = n - 1).  G = (cX + d)^n F(m(X)) is
    that binary form composed with the bijection m, whose roots are the n
    distinct preimages m^-1(roots of F): G is square-free, of degree n - 1
    or n, and the genus is unchanged.  gcd(G, G') would therefore only
    confirm what is known; HyperellipticCurve(...) called from outside keeps
    the full validation.
    """
    out = object.__new__(HyperellipticCurve)
    object.__setattr__(out, "F", G)
    object.__setattr__(out, "genus", genus)
    return out


def new_curve(coeffs) -> HyperellipticCurve:
    """Curve from ascending coefficients; validates degree and square-freeness."""
    return HyperellipticCurve(Poly(coeffs))


def transform(curve: HyperellipticCurve, m: MoebiusMap):
    """Model change by a Moebius map: F' = pullback_form(F, m, 2g+2).

    Returns (new_curve, lam) where lam = lead(F')/lead(F) records the
    leading-coefficient bookkeeping.  The branch set of the result is the
    preimage under m of the original branch set.
    """
    n = 2 * curve.genus + 2
    G = pullback_form(curve.F, m, n)
    if G.degree() < n - 1:
        raise IllegalCollapse("transform collapsed the branch divisor")
    out = _moved_curve(G, curve.genus)
    lam = G.lead() / curve.F.lead()
    return out, lam


def to_even_degree(curve: HyperellipticCurve):
    """Equivalent even-degree model plus the map that produced it.

    An even input comes back unchanged with the identity map.  For an odd
    model the branch point at infinity moves to 0 via X -> r + 1/X, with r
    the smallest non-negative integer that is not a branch point; the new
    model has leading coefficient F(r) and constant term 0 replaced by the
    full even-degree expansion (its root at 0 is the moved branch point).
    """
    if curve.even_degree:
        return curve, MoebiusMap.identity()
    F = curve.F
    n = 2 * curve.genus + 2
    r = 0
    while F.eval(Rational(r)) == 0:
        r += 1
    G = pullback_coeffs(F, Rational(r), Rational(1), Rational(1), Rational(0), n)
    return _moved_curve(G, curve.genus), MoebiusMap(r, 1, 1, 0)
