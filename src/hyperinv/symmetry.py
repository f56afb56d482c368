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
solved for b.  The resolvent chain and the evaluations at each a run on
int lists.  Every candidate map is verified against F itself, directly or
as the Galois conjugate of a verified map: F is rational, so
pullback(F, conj(m)) = conj(pullback(F, m)), and one map per conjugate
pair is checked.

Completeness is claimed only for parameters in Q or a quadratic extension;
involutions needing higher-degree fields are intentionally not reported.
"""

from __future__ import annotations

from math import comb, isqrt
from typing import Optional, Tuple

from .errors import (
    FixedBranchPoint,
    OddTermResidue,
    ReconstructionInconclusive,
    SearchInconclusive,
)
from .exact import (QuadExt, Rational, _make, conj, is_square, pairs_over_one_radicand,
                    sort_key)
from .moebius import INFINITY, MoebiusMap, _cleared, is_automorphism
# pullback_coeffs stays importable from here: perfbench/spans.py wraps this name
from .moebius import pullback_coeffs  # noqa: F401
# gcd stays importable from here: perfbench/spans.py wraps this name
from .poly import gcd  # noqa: F401
from .poly import (Poly, _zz_add, _zz_gcd, _zz_mul, _zz_primitive, _zz_quo, _zz_strip,
                   quad_irrational_roots, resultant)
from .record import frozen_record


@frozen_record
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


@frozen_record
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


def _fixes_branch(f, m: MoebiusMap) -> bool:
    """Whether m fixes a branch point of Y^2 = F, F the rational even model.

    Infinity is no branch point of the even model, so only the finite fixed
    points count: the roots of fix = cX^2 + (d - a)X - b, over Q or Q(sqrt(D)).
    Written fix = U + sqrt(D)*V with U, V rational (V = 0 over Q), the norm
    form N = fix * conj(fix) = U^2 - D*V^2 is rational, and it is formed on
    int lists over the common denominator of fix's coefficients.  F shares
    a root with N exactly when it shares one with fix: a root r of
    conj(fix) with F(r) = 0 gives the root sigma(r) of fix with
    F(sigma(r)) = sigma(F(r)) = 0, sigma extending the conjugation.  The
    gcd is taken on int lists, against F's integer model f.
    """
    a, b, c, d = m.entries()
    D, pairs = pairs_over_one_radicand([-b, d - a, c])
    ints, _ = _cleared(pairs)
    U, V = _zz_strip([x for x, _ in ints]), _zz_strip([y for _, y in ints])
    rad = 0 if D is None else int(D)
    N = _zz_add(_zz_mul(U, U), [-rad * v for v in _zz_mul(V, V)])
    return len(_zz_gcd(f, _zz_primitive(N))) > 1


def _certificate(f, m: MoebiusMap, lam) -> InvolutionCertificate:
    """The certificate of the verified map m, f the integer model of F."""
    try:
        fixed = m.fixed_points()
    except ValueError:
        fixed = None
    return InvolutionCertificate(m, lam, fixed, _fixes_branch(f, m))


def _conjugate(cert: InvolutionCertificate) -> InvolutionCertificate:
    """The certificate of cert.map.conj(), derived from cert without a check.

    F is rational, so pullback(F, conj(m)) = conj(pullback(F, m)) =
    conj(lam) * F, and the fixed points of conj(m) are the conjugates of
    m's: they fix a branch point exactly when m's do, and lie in a
    quadratic field exactly when m's do.  fixed_points() lists them in the
    same order, except when the discriminant (d - a)^2 + 4bc is a rational
    non-square: sqrt_in_field then gives both maps the same root
    QuadExt(0, q, ambient), whose conjugate is its negative, so conj(m)'s
    points come out as (conj(q), conj(p)).
    """
    m, fixed = cert.map, cert.fixed_points
    if fixed is not None:
        p, q = map(conj, fixed)
        a, b, c, d = m.entries()
        disc = (d - a) * (d - a) + 4 * b * c
        fixed = (q, p) if isinstance(disc, Rational) and not is_square(disc) else (p, q)
    return InvolutionCertificate(m.conj(), conj(cert.lam), fixed, cert.fixes_branch_points)


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


def _off_branch(D, F):
    """The integer model D with every factor it shares with F divided out.

    gamma = (aX + b)/(X - a) sends a to infinity, which is no branch point
    of an even-degree model, so no root of F is a parameter a.  D and F are
    integer models; so is the result.
    """
    while len(D) > 1 and len(common := _zz_gcd(D, F)) > 1:
        D = _zz_quo(D, common)
    return D


def _homogeneous(row, x, y, L, K, rad):
    """L^K * row((x + y*sqrt(rad))/L) as the int pair (u, v) = u + v*sqrt(rad).

    row is an int list of degree at most K; y = 0 evaluates at x/L.
    """
    u = v = 0
    power = 1
    for i in range(K, -1, -1):
        c = row[i] * power if i < len(row) else 0
        u, v = u * x + rad * v * y + c, u * y + v * x
        power *= L
    return u, v


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
    a0 = (x + y*sqrt(D))/L is cleared to ints, p0 and p1 are evaluated
    homogeneously over Z[sqrt(D)], and b0 is built once, over the norm of
    p1(a0).  At the rational a0 = x/L each other equation becomes a
    primitive int list in b through one power of L, and the gcd chain stops
    as soon as the gcd is constant.
    """
    D, pairs = pairs_over_one_radicand([a0])
    [(x, y)], L = _cleared(pairs)
    rad = 0 if D is None else int(D)
    p0, p1 = eqs[0]
    K = max(len(p0), len(p1)) - 1
    u0, v0 = _homogeneous(p0, x, y, L, K, rad)
    u1, v1 = _homogeneous(p1, x, y, L, K, rad)
    if u1 or v1:
        # -(u0 + v0 sqrt(D)) / (u1 + v1 sqrt(D)), through the conjugate of the divisor
        norm = u1 * u1 - rad * v1 * v1
        re, im = Rational(rad * v0 * v1 - u0 * u1, norm), Rational(u0 * v1 - v0 * u1, norm)
        return [re if D is None else _make(re, im, D)]
    if u0 or v0 or D is not None:
        return []  # p0(a0) != 0, the case above: both vanish only at a rational a0
    g = None
    for E in eqs[1:]:
        q = _zz_strip([_homogeneous(row, x, 0, L, max(map(len, E)) - 1, 0)[0]
                       for row in E])
        if q:
            g = _zz_primitive(q) if g is None else _zz_gcd(g, _zz_primitive(q))
            if len(g) == 1:
                return []
    if g is None:
        return []
    return _certified(Poly(g), f"b certification failed at the rational a0 = {a0} "
                      f"where the pivot vanishes, on the gcd")


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
    Every returned certificate is verified exactly, through is_automorphism
    directly or as the Galois conjugate of a map verified there: F is
    rational, so pullback(F, conj(m)) = conj(pullback(F, m)).  The list is
    deterministically ordered.  Raises
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
    f = F.integer_model()[0]

    def record(m: MoebiusMap, lam):
        if m not in found:
            found[m] = _certificate(f, m, lam)
        return found[m]

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
    # F' != 0: the linear pivot of every resultant.  The resolvent D, an
    # integer model, gives the candidates a0, and the pivot then reads off
    # b0 (_b_values).
    eqs = _involution_equations(f, n)
    D = None
    for E in eqs[1:]:
        r = E[0] if len(E) == 1 else [c.numerator for c in resultant(eqs[0], E).coeffs]
        if r:
            r = _zz_primitive(r)
            D = r if D is None else _off_branch(_zz_gcd(D, r), f)
            if len(D) == 1:
                break
    if D is None:
        # unreachable: then b = -p0/p1 solves all for every a: infinitely many involutions
        sizes = [(len(E) - 1, max(map(len, E)) - 1) for E in eqs]
        raise SearchInconclusive(
            f"elimination: no nonzero resolvent at genus {curve.genus}; "
            f"equation degrees (in b, in a): {sizes}")
    D = _off_branch(D, f)
    if len(D) > 1:
        # One map per Galois orbit: of two conjugate a0, and of two
        # conjugate b0 at a rational a0, only the one with positive radical
        # part is verified; the certificate of the other comes from _conjugate.
        a_candidates = _certified(Poly(D), "parameter certification failed on the resolvent")
        for a0 in dict.fromkeys(a_candidates):
            for b0 in dict.fromkeys(_b_values(eqs, a0)):
                irr = a0 if isinstance(a0, QuadExt) else b0  # a QuadExt iff m is irrational
                if isinstance(irr, QuadExt) and irr.b < 0 or a0 * a0 + b0 == 0:
                    continue
                m = MoebiusMap._unchecked(a0, b0, Rational(1), -a0)  # det -(a0^2 + b0)
                lam = is_automorphism(F, m, n)
                if lam is not None:
                    cert = record(m, lam)
                    if isinstance(irr, QuadExt):
                        twin = _conjugate(cert)
                        found[twin.map] = twin
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
    b = tuple(G.coeff(2 * i) for i in range(n // 2 + 1))
    if b[0] == 0 or b[-1] == 0:
        raise OddTermResidue("even model has a vanishing end coefficient")
    return b, M
