"""Extra-involution detection and reduction to the even model.

A reduced involution of Y^2 = F(X) is an order-2 Moebius map permuting the
branch set.  Every such map is conjugate to a trace-zero matrix, so the
search space splits into gamma = -X + beta (one linear unknown) and
gamma = (aX + b)/(X - a) (two unknowns).  The second case is solved by
exact elimination over Z[a][b]: the pullback-proportionality equations of
F's integer model are built as int lists, the X^(n-1) equation is linear in
b, and resultants against it collapse the system to a single univariate gcd
in a whose rational and quadratic-irrational roots are certified.  Each
such a then fixes b through that linear pivot, b = -p0(a)/p1(a); only at
the one rational a where the pivot vanishes are the other equations
solved for b.  Every candidate map is verified against F itself.

Completeness is claimed only for parameters in Q or a quadratic extension;
involutions needing higher-degree fields are intentionally not reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, isqrt
from typing import Optional, Tuple

from .errors import (
    FixedBranchPoint,
    OddTermResidue,
    ReconstructionInconclusive,
    SearchInconclusive,
)
from .exact import QuadExt, Rational, collapse, rat, sort_key
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


def _divisors(n: int) -> set:
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return set(small) | {n // k for k in small}


def candidate_orders(g: int) -> CandidateOrders:
    """Enumerate candidate reduced-automorphism orders N > 2.

    Cases: divisors of 2g+1; divisors of 2g below g; even divisors of 2g in
    [6, 2g-2]; multiples 4N' for proper divisors N' of g; plus the always
    possible {3, 4}.  Everything stays at or below the bound 2(2g+1).  The
    divisors come from trial division up to sqrt(2g+1), so large g is cheap.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    out = {3, 4}
    out.update(N for N in _divisors(2 * g + 1) if N >= 3)
    for N in _divisors(2 * g):
        if 3 <= N < g or (N % 2 == 0 and 6 <= N <= 2 * g - 2):
            out.add(N)
        if N < g and g % N == 0:
            out.add(4 * N)
    return CandidateOrders(g, tuple(sorted(out)))


def _fixes_branch(F: Poly, m: MoebiusMap) -> bool:
    """Whether m fixes a branch point of Y^2 = F, F the rational even model.

    Infinity is no branch point of the even model, so only the finite fixed
    points count: the roots of fix = cX^2 + (d - a)X - b, over Q or Q(sqrt(D)).
    N = fix * conj(fix) is rational, and F shares a root with N exactly when
    it shares one with fix: a root r of conj(fix) with F(r) = 0 gives the
    root sigma(r) of fix with F(sigma(r)) = sigma(F(r)) = 0, sigma extending
    the conjugation.
    """
    a, b, c, d = m.entries()
    fix = [-b, d - a, c]
    N = Poly(fix) * Poly([v.conj() if isinstance(v, QuadExt) else v for v in fix])
    return gcd(F, Poly([rat(v) for v in N.coeffs])).degree() >= 1


def _certificate(F: Poly, m: MoebiusMap, lam) -> InvolutionCertificate:
    try:
        fixed = m.fixed_points()
    except ValueError:
        fixed = None
    return InvolutionCertificate(m, lam, fixed, _fixes_branch(F, m))


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


def _off_branch(D: Poly, F: Poly) -> Poly:
    """D with every factor it shares with F divided out.

    gamma = (aX + b)/(X - a) sends a to infinity, which is no branch point
    of an even-degree model, so no root of F is a parameter a.
    """
    while D.degree() >= 1 and (common := gcd(D, F)).degree() >= 1:
        D = D / common
    return D


def _b_values(eqs, a0) -> list:
    """Every b solving all the c = 1 equations at a root a0 of the resolvent.

    The pivot eqs[0] is p1*b + p0 with p1 = fn*f'(a) and
    p0 = fn*a^2*f'(a) - (n*fn*a + f_(n-1))*f(a).  For any other equation E
    of degree m in b, Res(pivot, E) = p1^m * E(-p0/p1) (E itself when
    m = 0), and a nonconstant resolvent divides every such resultant that
    is not identically zero; a zero one vanishes at b = -p0/p1 for every a.
    Three cases follow at a0:
    - p1(a0) != 0: b0 = -p0(a0)/p1(a0), in Q(a0), makes every equation
      vanish, so it is the one solution;
    - p1(a0) = 0 != p0(a0): the pivot has no solution;
    - p1(a0) = p0(a0) = 0: f'(a0) = 0 leaves p0(a0) = -(n*fn*a0 + f_(n-1))*f(a0),
      and f(a0) != 0 (_off_branch), so a0 = -f_(n-1)/(n*fn) is rational.
      Only here are the remaining equations specialised, at a rational a0,
      and the roots of their gcd over Q are the solutions.
    """
    p0, p1 = (Poly(row).eval(a0) for row in eqs[0])
    if p1 != 0:
        return [collapse(-p0 / p1)]
    if p0 != 0:
        return []
    specialized = [Poly([Poly(row).eval(a0) for row in E]) for E in eqs[1:]]
    specialized = [q for q in specialized if not q.is_zero()]
    if not specialized:
        return []
    return _certified(reduce(gcd, specialized), f"b certification failed at the "
                      f"rational a0 = {a0} where the pivot vanishes, on the gcd")


def _certified(p: Poly, stage: str) -> list:
    """quad_irrational_roots(p); a failure is SearchInconclusive naming stage and sizes."""
    try:
        return quad_irrational_roots(p)
    except ReconstructionInconclusive as exc:
        bits = max(abs(v).bit_length() for v in p.integer_model()[0])
        raise SearchInconclusive(f"{stage} of degree {p.degree()} with "
                                 f"{bits}-bit coefficients: {exc}") from exc


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
        if m not in found:
            found[m] = _certificate(F, m, lam)

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
    # F' != 0: the linear pivot of every resultant.  The resolvent D gives
    # the candidates a0, and the pivot then reads off b0 (_b_values).
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
        a_candidates = _certified(D, "parameter certification failed on the resolvent")
        for a0 in dict.fromkeys(a_candidates):
            for b0 in _b_values(eqs, a0):
                if a0 * a0 + b0 == 0:
                    continue
                m = MoebiusMap(a0, b0, 1, -a0)
                lam = is_automorphism(F, m, n)
                if lam is not None:
                    record(m, lam)
    return _sorted_certs(found)


def _sorted_certs(found: dict) -> list:
    return sorted(found.values(), key=lambda c: tuple(map(sort_key, c.map.entries())))


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
