"""Extra-involution detection and reduction to the even model.

A reduced involution of Y^2 = F(X) is an order-2 Moebius map permuting the
branch set.  Every such map is conjugate to a trace-zero matrix, so the
search space splits into gamma = -X + beta (one linear unknown) and
gamma = (aX + b)/(X - a) (two unknowns).  The second case is solved by
exact elimination over Z[a][b]: the pullback-proportionality equations of
F's integer model are int lists, each built on demand when the elimination
first reads it, the X^(n-1) equation is linear in b, and resultants against
it collapse the system to a single univariate gcd in a whose rational and
quadratic-irrational roots are certified; the chain stops, and draws no
further equation, once that gcd is constant.  Each such a then fixes b
through that linear pivot, b = -p0(a)/p1(a); only at the one rational a
where the pivot vanishes are the other equations solved for b.  The
resolvent chain and the evaluations at each a run on int lists.  Every
candidate map is verified against F itself, directly or as the Galois
conjugate of a verified map: F is rational, so
pullback(F, conj(m)) = conj(pullback(F, m)), and one map per conjugate
pair is checked.

Completeness is claimed only for parameters in Q or a quadratic extension;
involutions needing higher-degree fields are intentionally not reported.
"""

from __future__ import annotations

from itertools import islice
from math import comb, isqrt
from typing import Optional, Tuple

from .errors import (
    FixedBranchPoint,
    OddTermResidue,
    ReconstructionInconclusive,
    SearchInconclusive,
)
from .exact import QuadExt, Rational, conj, is_square, sort_key
from .moebius import INFINITY, MoebiusMap, is_automorphism
# pullback_coeffs stays importable from here: perfbench/spans.py wraps this name
from .moebius import pullback_coeffs  # noqa: F401
# gcd (poly.gcd, not zz.gcd) stays importable from here: perfbench/spans.py wraps this name
from .poly import gcd  # noqa: F401
from .poly import Poly, quad_irrational_roots, resultant
from .record import frozen_record
from . import zz


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
    points count: the roots of fix = cX^2 + (d - a)X - b, over Q(sqrt(rad)).
    Written fix = U + sqrt(rad)*V with U, V rational (V = 0 over Q), the
    norm form N = fix * conj(fix) = U^2 - rad*V^2 is rational, and it is
    formed on int lists over fix's common denominator.  F shares a root
    with N exactly when it shares one with fix: a root r of
    conj(fix) with F(r) = 0 gives the root sigma(r) of fix with
    F(sigma(r)) = sigma(F(r)) = 0, sigma extending the conjugation.  The
    gcd is taken on int lists, against F's integer model f.
    """
    a, b, c, d = m.entries()
    rad, (ints, _) = zz.cleared([-b, d - a, c])
    return len(zz.gcd(f, zz.primitive(zz.norm_form(*zip(*ints), rad)))) > 1


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

    A generator: with G = (X - a)^n f((aX + b)/(X - a)), equation k is
    f_n G_k - f_k f(a) for k = n-1 down to 0, zero ones left out, and each
    is built in O(n^2) only when it is drawn.  Each is a list ascending in b
    of int lists ascending in a.  The b^e a^t term of G_k comes from f_i
    with i = t + k + 2e - n alone, with coefficient
    (-1)^(n-k-e) C(i, e) C(n-i, k-i+e) f_i.
    """
    fn, tail = f[n], [0] * n
    for k in range(n - 1, -1, -1):
        rows = [[0] * (2 * n + 1) for _ in range(n - k + 1)]
        for i, fi in enumerate(f):
            if fi:
                for e in range(max(i - k, 0), min(i, n - k) + 1):
                    term = fn * fi * comb(i, e) * comb(n - i, k - i + e)
                    rows[e][n - k + i - 2 * e] += -term if (n - k - e) % 2 else term
        rows[0] = [c - f[k] * fc for c, fc in zip(rows[0], f + tail)]
        rows = zz.strip([zz.strip(row) for row in rows])
        if rows:
            yield rows


class _Equations:
    """The c = 1 equations of one search, each built when first read.

    Iterating replays the equations built so far and then draws new ones
    from the source, keeping them: every reader sees the same sequence,
    and none is built twice or before a reader needs it.  The pivot comes
    first; rest() is every equation after it.
    """

    __slots__ = ("_source", "_built")

    def __init__(self, source):
        self._source, self._built = source, []

    def __iter__(self):
        i = 0
        while True:
            if i == len(self._built):
                E = next(self._source, None)
                if E is None:
                    return
                self._built.append(E)
            yield self._built[i]
            i += 1

    @property
    def pivot(self):
        return next(iter(self))

    def rest(self):
        return islice(self, 1, None)


def _off_branch(D, F):
    """The integer model D with every factor it shares with F divided out.

    gamma = (aX + b)/(X - a) sends a to infinity, which is no branch point
    of an even-degree model, so no root of F is a parameter a.  D and F are
    integer models; so is the result.
    """
    while len(D) > 1 and len(common := zz.gcd(D, F)) > 1:
        D = zz.quo(D, common)
    return D


def _b_values(eqs, a0) -> list:
    """Every b solving all the c = 1 equations at a root a0 of the resolvent.

    The pivot eqs.pivot is p1*b + p0 with p1 = fn*f'(a) and
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
    a0 = (x + y*sqrt(rad))/L is cleared to ints, p0 and p1 are evaluated
    homogeneously over Z[sqrt(rad)], and b0 is built once, over the norm of
    p1(a0).  At the rational a0 = x/L the other equations go through
    _pivot_gcd.
    """
    rad, ([xy], L) = zz.cleared([a0])
    p0, p1 = eqs.pivot
    K = max(len(p0), len(p1)) - 1
    u0, v0 = zz.homogeneous(p0, (), xy, (L, 0), K, rad)
    u1, v1 = zz.homogeneous(p1, (), xy, (L, 0), K, rad)
    if u1 or v1:
        return [zz.to_field(*zz.pair_quotient((-u0, -v0), (u1, v1), rad), rad)]
    if u0 or v0 or rad:
        return []  # p0(a0) != 0, the case above: both vanish only at a rational a0
    g = _pivot_gcd(eqs, xy[0], L)
    if g is None or len(g) == 1:
        return []
    return _certified(Poly(g), f"b certification failed at the rational a0 = {a0} "
                      f"where the pivot vanishes, on the gcd")


def _pivot_gcd(eqs, x: int, L: int):
    """gcd over Q in b of the equations after the pivot, at the rational a = x/L.

    Each equation becomes a primitive int list in b through one power of L;
    the result is an integer model, None when every equation vanishes, and
    the chain stops, drawing no further equation, as soon as the gcd is
    constant.
    """
    g = None
    for E in eqs.rest():
        K = max(map(len, E)) - 1
        q = zz.strip([zz.homogeneous(row, (), (x, 0), (L, 0), K, 0)[0] for row in E])
        if q:
            g = zz.primitive(q) if g is None else zz.gcd(g, zz.primitive(q))
            if len(g) == 1:
                break
    return g


def _count_over_qbar(f, eqs, D, c0: bool) -> int:
    """Number of reduced involutions over Q-bar, read off the search's own data.

    f is F's integer model of degree n, eqs the c = 1 equations, D the
    resolvent with every factor shared with f divided out, and c0 whether
    the c = 0 map is an automorphism.  Every involution with c != 0 is
    (aX + b)/(X - a) with a a root of D, and a solution (a0, b0) of all the
    equations is one: it gives G = (f(a0)/fn)*f with f(a0) != 0, and it is
    never singular, since a0^2 + b0 = 0 would give G = f(a0)*(X - a0)^n,
    which is no multiple of the square-free f.  By _b_values' three cases:
    - each root a0 with p1(a0) != 0 gives exactly one: these are the roots
      of D's square-free part less its common roots with p1;
    - a root with p1(a0) = 0 != p0(a0) gives none;
    - at the rational a0 = -f_(n-1)/(n*fn), if p1 and p0 both vanish
      there, each root of the other equations' gcd in b gives one.
    Each count is the degree of a square-free int list, so nothing is
    solved and no floating point is used.
    """
    count = int(c0)
    if len(D) == 1:
        return count
    p1 = eqs.pivot[1]
    rest = zz.square_free(D)
    count += len(rest) - len(zz.gcd(rest, zz.primitive(p1)))
    n = len(f) - 1
    a0 = Rational(-f[n - 1], n * f[n])
    x, L = a0.numerator, a0.denominator
    # n*fn*a0 + f_(n-1) = 0 leaves p0(a0) = a0^2 * p1(a0): both vanish where p1 does
    if zz.homogeneous(p1, (), (x, 0), (L, 0), len(p1) - 1, 0)[0] == 0:
        g = _pivot_gcd(eqs, x, L)
        if g is not None and len(g) > 1:
            count += len(zz.square_free(g)) - 1
    return count


class Certificates(list):
    """The certificates of detect_involutions, with their count over Q-bar.

    A list, equal to the plain list of its certificates.  The search's
    equations (_Equations, which builds any not yet drawn when the count
    first reads it) and resolvent stay attached, so involutions_over_qbar
    can be read off them later without a second elimination; it is
    evaluated on each access, and a search that found certificates never
    needs it.
    """

    def __init__(self, certs, f, eqs, D, c0: bool):
        super().__init__(certs)
        self._search = (f, eqs, D, c0)

    @property
    def involutions_over_qbar(self) -> int:
        """Number of reduced involutions over Q-bar (see _count_over_qbar)."""
        return _count_over_qbar(*self._search)


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
    deterministically ordered, and its involutions_over_qbar counts the
    reduced involutions over every field (Certificates).  Raises
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
    # The X^(n-1) equation, drawn first, is fn*F'(a)*b + p0(a) with
    # F' != 0: the linear pivot of every resultant.  The resolvent D, an
    # integer model, gives the candidates a0, and the pivot then reads off
    # b0 (_b_values).  Equations are drawn only while the chain needs them.
    eqs = _Equations(_involution_equations(f, n))
    pivot, D = eqs.pivot, None
    for E in eqs.rest():
        r = E[0] if len(E) == 1 else [c.numerator for c in resultant(pivot, E).coeffs]
        if r:
            r = zz.primitive(r)
            # F's factors leave the first resultant once: every divisor of
            # a polynomial coprime to F is coprime to F, so the later gcds
            # need no second pass
            D = _off_branch(r, f) if D is None else zz.gcd(D, r)
            if len(D) == 1:
                break
    if D is None:
        # unreachable: then b = -p0/p1 solves all for every a: infinitely many involutions
        sizes = [(len(E) - 1, max(map(len, E)) - 1) for E in eqs]
        raise SearchInconclusive(
            f"elimination: no nonzero resolvent at genus {curve.genus}; "
            f"equation degrees (in b, in a): {sizes}")
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
    return Certificates(_sorted_certs(found), f, eqs, D, lam0 is not None)


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
