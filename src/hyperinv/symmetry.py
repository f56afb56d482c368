"""Extra-involution detection and reduction to the even model.

A reduced involution of Y^2 = F(X) is an order-2 Moebius map permuting the
branch set.  Every such map is conjugate to a trace-zero matrix, so the
search space splits into gamma = -X + beta (one linear unknown) and
gamma = (aX + b)/(X - a) (two unknowns).  The second case is solved by
exact elimination over Z[a][b]: the pullback-proportionality equations of
F's integer model are built as int lists, the X^(n-1) equation is linear in
b, and resultants against it collapse the system to a single univariate gcd
whose rational and quadratic-irrational roots are then certified and
verified against F itself.

Completeness is claimed only for parameters in Q or a quadratic extension;
involutions needing higher-degree fields are intentionally not reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, lcm
from typing import Optional, Tuple

from ._kernel import Rational
from .errors import (
    FixedBranchPoint,
    OddTermResidue,
    RadicandMismatch,
    ReconstructionInconclusive,
    SearchInconclusive,
    SingularModel,
)
from .exact import QuadExt, collapse, sqrt_exact, sqrt_in_field
# pullback_coeffs stays importable from here: perfbench/spans.py wraps this name
from .moebius import INFINITY, MoebiusMap, is_automorphism, pullback_coeffs  # noqa: F401
from .poly import Poly, _zz_strip, gcd, quad_irrational_roots, resultant


@dataclass(frozen=True)
class InvolutionCertificate:
    """A verified reduced involution.

    map is trace-zero normalized up to projective scaling; lam is the exact
    proportionality factor pullback_form(F, map) = lam * F.  fixed_points is
    None when the two fixed points generate a degree-4 extension (the map is
    still a verified automorphism; it just cannot seed an even model here).
    """

    map: MoebiusMap
    lam: object
    fixed_points: Optional[Tuple]
    fixes_branch_points: bool


@dataclass(frozen=True)
class CandidateOrders:
    """Possible orders N > 2 of reduced automorphisms at a given genus."""

    genus: int
    orders: Tuple[int, ...]


def candidate_orders(g: int) -> CandidateOrders:
    """Enumerate candidate reduced-automorphism orders N > 2.

    Cases: divisors of 2g+1; divisors of 2g below g; even divisors of 2g in
    [6, 2g-2]; multiples 4N' for proper divisors N' of g; plus the always
    possible {3, 4}.  Everything stays at or below the bound 2(2g+1).
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    out = {3, 4}
    for N in range(3, 2 * (2 * g + 1) + 1):
        if (2 * g + 1) % N == 0:
            out.add(N)
        if (2 * g) % N == 0 and N < g:
            out.add(N)
        if N % 2 == 0 and (2 * g) % N == 0 and 6 <= N <= 2 * g - 2:
            out.add(N)
    for k in range(1, g):
        if g % k == 0:
            out.add(4 * k)
    return CandidateOrders(g, tuple(sorted(out)))


def _fix_poly(m: MoebiusMap) -> Poly:
    # fixed points of (aX+b)/(cX+d) solve cX^2 + (d-a)X - b = 0
    a, b, c, d = m.entries()
    return Poly([-b, d - a, c])


def _fixes_branch(F: Poly, n: int, m: MoebiusMap) -> bool:
    a, b, c, d = m.entries()
    if c == 0 and F.degree() < n:
        return True
    fp = _fix_poly(m)
    if fp.is_zero():
        return True
    return gcd(F, fp).degree() >= 1


def _certificate(F: Poly, n: int, m: MoebiusMap, lam) -> InvolutionCertificate:
    try:
        fixed = m.fixed_points()
    except ValueError:
        fixed = None
    return InvolutionCertificate(m, lam, fixed, _fixes_branch(F, n, m))


def _entry_key(m: MoebiusMap):
    out = []
    for e in m.entries():
        e = collapse(e)
        if isinstance(e, QuadExt):
            out.append((1, e.a, e.b, Rational(e.d)))
        else:
            out.append((0, e, Rational(0), Rational(0)))
    return tuple(out)


def _field_sqrt(x, ambient_d):
    """Square root of x inside Q or Q(sqrt(ambient_d)); None if absent."""
    x = collapse(x)
    if isinstance(x, QuadExt):
        return sqrt_in_field(x)
    if x < 0 and (ambient_d is None or ambient_d > 0):
        return None
    r = sqrt_exact(x) if x >= 0 else None
    if r is not None:
        return r
    if ambient_d is not None:
        q = sqrt_exact(x / ambient_d) if x / ambient_d >= 0 else None
        if q is not None and q != 0:
            return QuadExt(Rational(0), q, ambient_d)
    return None


def _involution_equations(f, n: int):
    """The c = 1 equations in Z[a][b] for an integer model f of degree n.

    With G = (X - a)^n f((aX + b)/(X - a)), equation k is
    f_n G_k - f_k f(a) for k = n-1 down to 0, zero ones left out; each is a
    list ascending in b of int lists ascending in a.  The b^e a^t term of G_k
    comes from f_i with i = t + k + 2e - n alone, with coefficient
    (-1)^(n-k-e) C(i, e) C(n-i, k-i+e) f_i.
    """
    G = [[[0] * (2 * n + 1) for _ in range(n + 1)] for _ in range(n)]
    for i, fi in enumerate(f):
        if not fi:
            continue
        for e in range(i + 1):
            for k in range(max(i - e, 0), min(n - e, n - 1) + 1):
                term = fi * comb(i, e) * comb(n - i, k - i + e)
                G[k][e][n - k + i - 2 * e] += -term if (n - k - e) % 2 else term
    fn = f[n]
    eqs = []
    for k in range(n - 1, -1, -1):
        rows = [[fn * c for c in row] for row in G[k]]
        rows[0] = [c - f[k] * fc for c, fc in zip(rows[0], f + [0] * n)]
        rows = _zz_strip([_zz_strip(row) for row in rows])
        if rows:
            eqs.append(rows)
    return eqs


def _specialize(E, a0) -> Poly:
    """Evaluate the a-level of an equation in Z[a][b] at a Rational or QuadExt a0.

    Horner runs on ints: with a0 = (p + q sqrt d)/r, a row of degree D takes
    the value sum_t c_t (p + q sqrt d)^t r^(D-t) over r^D.
    """
    if isinstance(a0, QuadExt):
        x, y, d = a0.a, a0.b, int(a0.d)
        r = lcm(x.denominator, y.denominator)
        p, q = x.numerator * (r // x.denominator), y.numerator * (r // y.denominator)
    else:
        p, q, r, d = a0.numerator, 0, a0.denominator, 0
    out = []
    for row in E:
        u = v = 0  # u + v sqrt d
        rk = 1
        for c in reversed(row):
            u, v = u * p + v * q * d + c * rk, u * q + v * p
            rk *= r
        den = rk // r if row else 1
        u = Rational(u, den)
        out.append(QuadExt(u, Rational(v, den), d) if v else u)
    return Poly(out)


def _off_branch(D: Poly, F: Poly) -> Poly:
    """D with every factor it shares with F divided out.

    gamma = (aX + b)/(X - a) sends a to infinity, which is no branch point
    of an even-degree model, so no root of F is a parameter a.
    """
    while D.degree() >= 1 and (common := gcd(D, F)).degree() >= 1:
        D = D / common
    return D


def _roots_in_field(p: Poly, ambient_d):
    """Roots of p lying in Q or the ambient quadratic field.

    Rational-coefficient polynomials get the full rational + quadratic
    treatment; QuadExt-coefficient ones are solved directly for degree <= 2
    and skipped beyond that (higher-degree parameters are out of scope).
    """
    if p.degree() <= 0:
        return []
    if all(isinstance(c, Rational) for c in p.coeffs):
        return quad_irrational_roots(p)
    if p.degree() == 1:
        return [collapse(-p.coeff(0) / p.coeff(1))]
    if p.degree() == 2:
        c0, c1, c2 = p.coeff(0), p.coeff(1), p.coeff(2)
        disc = c1 * c1 - 4 * c2 * c0
        s = _field_sqrt(disc, ambient_d)
        if s is None:
            return []
        return [collapse((-c1 + s) / (2 * c2)), collapse((-c1 - s) / (2 * c2))]
    return []


def _ambient_of(x):
    return x.d if isinstance(x, QuadExt) else None


def detect_involutions(curve) -> list:
    """All reduced involutions with parameters in Q or a quadratic field.

    Requires an even-degree rational model (run to_even_degree first).
    Every returned certificate has been re-verified exactly through
    is_automorphism; the list is deterministically ordered.  Raises
    SearchInconclusive when exact root certification fails (or elimination
    leaves no resolvent, which genus >= 2 rules out), in which case no
    silent undercount is possible.
    """
    F = curve.F
    n = 2 * curve.genus + 2
    if F.degree() != n:
        raise ValueError("involution search needs the even-degree model")
    if not all(isinstance(c, Rational) for c in F.coeffs):
        raise ValueError("involution search needs a rational model")

    found = {}

    def record(m: MoebiusMap, lam):
        key = _entry_key(m)
        if key not in found:
            found[key] = _certificate(F, n, m, lam)

    # Case c = 0: gamma = -X + beta.  Matching the X^(n-1) coefficient of
    # F(-X + beta) = lam * F forces beta; everything else is verification.
    fn = F.coeff(n)
    beta = -2 * F.coeff(n - 1) / (n * fn)
    m0 = MoebiusMap(-1, beta, 0, 1)
    lam0 = is_automorphism(F, m0, n)
    if lam0 is not None:
        record(m0, lam0)

    # Case c = 1: gamma = (aX + b)/(X - a); outer variable b, inner a.
    # The X^(n-1) equation, first in the list, is fn*F'(a)*b + p0(a) with
    # F' != 0: the linear pivot of every resultant.
    eqs = _involution_equations(F.integer_model()[0], n)
    D = None
    for E in eqs[1:]:
        r = Poly(E[0]) if len(E) == 1 else resultant(eqs[0], E)
        if not r.is_zero():
            D = r if D is None else _off_branch(gcd(D, r), F)
            if D.degree() == 0:
                break
    if D is None:
        # unreachable: then b = -p0/p1 solves all for every a: infinitely many involutions
        sizes = [(len(E) - 1, max(map(len, E)) - 1) for E in eqs]
        raise SearchInconclusive(
            f"elimination: no nonzero resolvent at genus {curve.genus}; "
            f"equation degrees (in b, in a): {sizes}")
    D = _off_branch(D, F)
    if D.degree() >= 1:
        try:
            a_candidates = quad_irrational_roots(D)
        except ReconstructionInconclusive as exc:
            raise SearchInconclusive(f"parameter certification failed: {exc}")
        seen = set()
        for a0 in a_candidates:
            marker = _scalar_marker(a0)
            if marker in seen:
                continue
            seen.add(marker)
            ambient = _ambient_of(a0)
            specialized = [q for q in (_specialize(E, a0) for E in eqs) if not q.is_zero()]
            if not specialized:
                continue
            common = reduce(gcd, specialized)
            for b0 in _roots_in_field(common, ambient):
                if a0 * a0 + b0 == 0:
                    continue
                try:
                    m = MoebiusMap(a0, b0, 1, -a0)
                    lam = is_automorphism(F, m, n)
                except (RadicandMismatch, SingularModel):
                    continue
                if lam is not None:
                    record(m, lam)
    return _sorted_certs(found)


def _scalar_marker(x):
    x = collapse(x)
    if isinstance(x, QuadExt):
        return (x.a, x.b, Rational(x.d))
    return (x, Rational(0), Rational(0))


def _sorted_certs(found: dict) -> list:
    return [found[k] for k in sorted(found)]


def even_model(curve, inv: InvolutionCertificate):
    """Even model seeded by an involution fixing no branch point.

    Moves the involution's fixed points to 0 and infinity with
    M = (X - p)/(X - q); the conjugated involution becomes X -> -X, so the
    transformed model has even-degree terms only.  Returns the g+2 nonzero
    coefficients b_0..b_(g+1) (entries in Q or the fixed points' quadratic
    field) together with M.
    """
    from .curve import transform

    if inv.fixes_branch_points:
        raise FixedBranchPoint("involution fixes a branch point")
    if inv.fixed_points is None:
        raise FixedBranchPoint(
            "fixed points lie outside a quadratic extension; no even model here"
        )
    p, q = inv.fixed_points
    if q is INFINITY:
        M = MoebiusMap(1, -p, 0, 1)
    else:
        M = MoebiusMap(1, -p, 1, -q)
    new_curve, _ = transform(curve, M.inverse())
    G = new_curve.F
    n = 2 * curve.genus + 2
    if G.degree() != n:
        raise OddTermResidue("even-model transform lost degree")
    for i in range(1, n, 2):
        if G.coeff(i) != 0:
            raise OddTermResidue(f"odd coefficient X^{i} survived the reduction")
    b = tuple(collapse(G.coeff(2 * i)) for i in range(n // 2 + 1))
    if b[0] == 0 or b[-1] == 0:
        raise OddTermResidue("even model has a vanishing end coefficient")
    return b, M
