"""Involution search, even models, and automorphism order candidates."""

import random
from fractions import Fraction
from functools import reduce
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

import hyperinv.poly as poly_module
import hyperinv.symmetry as symmetry
from hyperinv import zz
from hyperinv.curve import to_even_degree, transform
from hyperinv.errors import FixedBranchPoint, HyperinvError, SearchInconclusive
from hyperinv.exact import QuadExt
from hyperinv.invariants import classify, dihedral_from_even, dihedral_from_normal
from hyperinv.moebius import MoebiusMap, is_automorphism, pullback_form
from hyperinv.oracle import reduced_group
from hyperinv.poly import Poly, gcd, resultant, variable
from hyperinv.symmetry import candidate_orders, detect_involutions, even_model

from conftest import (
    CUBIC_MIDDLE,
    EVEN_CHAIN,
    QUINTIC,
    SEXTIC_PLUS_ONE,
    curve,
)


class TestCandidateOrders:
    # reduced automorphism element orders > 2 possible for each genus,
    # enumerated by hand from the three families (cyclic branch rotations
    # with 0/1/2 of the points 0 and infinity in the branch set)
    TABLE = {
        2: (3, 4, 5),
        3: (3, 4, 7),
        4: (3, 4, 8, 9),
        5: (3, 4, 11),
        6: (3, 4, 6, 8, 12, 13),
        7: (3, 4, 5, 15),
        8: (3, 4, 8, 16, 17),
        9: (3, 4, 6, 12, 19),
        10: (3, 4, 5, 7, 8, 10, 20, 21),
    }

    def test_pinned_table(self):
        for g, want in self.TABLE.items():
            got = candidate_orders(g)
            assert tuple(got.orders) == want, f"genus {g}"
            assert got.genus == g

    def test_small_genus_rejected(self):
        with pytest.raises(ValueError):
            candidate_orders(1)

    @staticmethod
    def scan_orders(g):
        # reference: the direct scan of every N up to 2(2g+1) and every k < g
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
        return tuple(sorted(out))

    def test_divisor_build_matches_scan(self):
        for g in range(2, 301):
            assert candidate_orders(g).orders == self.scan_orders(g), g

    def test_large_genus_is_cheap(self):
        g = 10**10  # 2g + 1 = 3 * 6666666667
        orders = candidate_orders(g).orders
        assert {3, 4, 6666666667, 2 * g + 1, 4 * 10**9} <= set(orders)
        assert max(orders) == 2 * g + 1


class TestDetectInvolutions:
    def test_counts(self):
        assert len(detect_involutions(curve(EVEN_CHAIN))) == 3
        assert len(detect_involutions(curve(CUBIC_MIDDLE))) == 3
        assert len(detect_involutions(curve(SEXTIC_PLUS_ONE))) == 7
        assert detect_involutions(curve([1, 1, 0, 0, 0, 0, 1])) == []

    def test_count_on_promoted_quintic(self):
        ec, _ = to_even_degree(curve(QUINTIC))
        assert len(detect_involutions(ec)) == 9

    def test_odd_degree_model_rejected(self):
        with pytest.raises(ValueError):
            detect_involutions(curve(QUINTIC))

    def test_certificates_verify(self):
        ec, _ = to_even_degree(curve(QUINTIC))
        n = 2 * ec.genus + 2
        for cert in detect_involutions(ec):
            assert cert.map.order(4) == 2
            assert pullback_form(ec.F, cert.map, n) == ec.F.scale(cert.lam)

    def test_reciprocal_found_for_palindromes(self):
        certs = detect_involutions(curve(CUBIC_MIDDLE))
        maps = [cert.map for cert in certs]
        assert MoebiusMap(0, 1, 1, 0) in maps

    def test_negation_found_for_even_curves(self):
        certs = detect_involutions(curve(SEXTIC_PLUS_ONE))
        maps = [cert.map for cert in certs]
        assert MoebiusMap(-1, 0, 0, 1) in maps

    def test_fixed_branch_point_flagged(self):
        # branch point 0 of the promoted model is fixed by some involutions
        ec, _ = to_even_degree(curve(QUINTIC))
        certs = detect_involutions(ec)
        fixing = [c for c in certs if c.fixes_branch_points]
        assert len(fixing) == 3
        assert MoebiusMap(1, 0, -4, -1) in [c.map for c in fixing]


def _count(c):
    ec, _ = to_even_degree(c)
    return detect_involutions(ec).involutions_over_qbar


# curves with their number of reduced involutions over Q-bar, from their groups
_QBAR_COUNTS = {
    (0, -1, 0, 0, 0, 0, 1): 0,  # X^6 - X, reduced Z5
    (1, 0, 0, 0, 0, 0, 1): 7,  # X^6 + 1, reduced dihedral of order 12
    (1, 0, 0, 4, 0, 0, 1): 3,  # reduced S3
    (2, 0, 0, 1, 0, 0, 1): 3,  # reduced S3, X -> t/X over Q(t), t^3 = 2
    (0, -1, 0, 0, 0, 1): 9,  # X^5 - X, reduced S4
    (1, 0, 2, 0, 2, 0, 1): 3,  # reduced V4
    (1, 0, 0, 0, 0, 0, 0, 0, 1): 9,  # X^8 + 1, reduced dihedral of order 16
    (0, 2, 0, 0, 1, 0, 0, 1): 3,  # genus 3, reduced order 6, involutions over cubic fields
    (0, 3, 0, 0, 5, 0, 0, 1): 3,
    (1, 1, 0, 0, 0, 0, 0, 0, 1): 0,
}


class TestCountOverQbar:
    def test_pinned_counts(self):
        assert {k: _count(curve(k)) for k in _QBAR_COUNTS} == _QBAR_COUNTS

    def test_pivot_vanishing_parameter(self):
        # (X-3)^6 + 4(X-3)^3 + 1: p0 and p1 both vanish at a0 = 3, which
        # carries all three involutions
        x = variable() - 3
        assert _count(curve((x ** 6 + 4 * x ** 3 + 1).coeffs)) == 3

    def test_count_reuses_the_search(self, monkeypatch):
        # no second elimination and no root finding after the search
        found = detect_involutions(curve([2, 0, 0, 1, 0, 0, 1]))
        monkeypatch.setattr(symmetry, "resultant", None)
        monkeypatch.setattr(symmetry, "quad_irrational_roots", None)
        assert found == [] and found.involutions_over_qbar == 3

    @settings(max_examples=40, deadline=10000, derandomize=True, database=None)
    @given(base=st.sampled_from(sorted(_QBAR_COUNTS) + [None]),
           coeffs=st.lists(st.integers(-4, 4), min_size=5, max_size=8),
           entries=st.tuples(*[st.integers(-3, 3)] * 4))
    def test_equals_the_oracle_involution_count(self, base, coeffs, entries):
        # The oracle's answer counts only where it names the same group at two
        # tolerances: at 1e-9 it can miss symmetries of clustered roots.
        try:
            c = curve(coeffs + [1]) if base is None else transform(
                curve(base), MoebiusMap(*entries))[0]
            groups = {reduced_group(c, tol) for tol in (1e-9, 1e-6)}
        except HyperinvError:
            assume(False)
        assume(len(groups) == 1)
        [grp] = groups
        assert _count(c) == sum(order == 2 for order in grp.element_orders)


class TestPivotRead:
    # Each candidate a0 of the c = 1 search fixes b through the pivot
    # p1(a)*b + p0(a); the other equations are solved only where both vanish.

    def test_fallback_where_the_pivot_vanishes(self):
        # (X - 3)^6 + 4(X - 3)^3 + 1: p1 = p0 = 0 at a = -f5/(6 f6) = 3
        f = [622, -1350, 1179, -536, 135, -18, 1]
        p0, p1 = (Poly(row) for row in next(symmetry._involution_equations(f, 6)))
        assert p0(3) == p1(3) == 0
        certs = detect_involutions(curve(f))
        assert len(certs) == 3
        assert all(c.map.a / c.map.c == 3 for c in certs)
        assert MoebiusMap(3, -8, 1, -3) in [c.map for c in certs]

    def test_pivot_reads_b_at_irrational_candidates(self):
        # X^6 - 1 pulled back by (2X + 1)/(X + 3)
        f = [-728, -1446, -1155, -380, 105, 174, 63]
        c = curve(f)
        p1 = Poly(next(symmetry._involution_equations(f, 6))[1])
        certs = detect_involutions(c)
        assert len(certs) == 7
        irrational = [t for t in certs
                      if any(isinstance(e, QuadExt) for e in t.map.entries())]
        assert len(irrational) == 4
        for t in irrational:
            assert {e.d for e in t.map.entries() if isinstance(e, QuadExt)} == {-3}
            a0 = t.map.a / t.map.c
            assert isinstance(a0, QuadExt) and p1(a0) != 0
            assert pullback_form(c.F, t.map, 6) == c.F.scale(t.lam)

    def test_moved_curve_keeps_every_certificate(self):
        # X^6 - 1 moved by (11X - 27)/(27X - 20): its resolvent has two
        # quadratic factors with six-digit leading coefficients
        f = [323420489, -428627862, -785034585, 2625318540, -3028546665,
             1695778578, -385648928]
        assert len(detect_involutions(curve(f))) == 7

    def test_certificates_match_direct_ones(self):
        for f in ([622, -1350, 1179, -536, 135, -18, 1],
                  [-728, -1446, -1155, -380, 105, 174, 63],
                  [323420489, -428627862, -785034585, 2625318540, -3028546665,
                   1695778578, -385648928]):
            assert _direct_checked(curve(f))


def _direct_checked(ec):
    """detect_involutions(ec), each certificate checked against a direct one.

    A certificate derived as the Galois conjugate of a verified one must
    equal the certificate built from its own map: is_automorphism's factor,
    fixed_points() in its order, and the fixes-branch flag.
    """
    n = 2 * ec.genus + 2
    certs = detect_involutions(ec)
    for cert in certs:
        lam = is_automorphism(ec.F, cert.map, n)
        assert lam is not None
        assert cert == symmetry._certificate(ec.F.integer_model()[0], cert.map, lam)
    return certs


class TestGaloisOrbits:
    # One map per pair of Galois conjugates is verified; the other
    # certificate is derived from it (symmetry._conjugate).

    def test_one_verified_map_per_conjugate_pair(self, monkeypatch):
        checked = []

        def spy(F, m, n):
            checked.append(m)
            return is_automorphism(F, m, n)

        monkeypatch.setattr(symmetry, "is_automorphism", spy)
        # X^6 - 1 moved by (2X + 1)/(X + 3): four certificates over Q(sqrt -3)
        certs = detect_involutions(curve([-728, -1446, -1155, -380, 105, 174, 63]))
        irrational = [t.map for t in certs
                      if any(isinstance(e, QuadExt) for e in t.map.entries())]
        assert len(irrational) == 4
        assert sum(m in checked for m in irrational) == 2
        assert all((m in checked) != (m.conj() in checked) for m in irrational)

    @pytest.mark.parametrize("f", [
        # D12 sextic moved by a random map: one derived certificate whose
        # discriminant is a rational non-square, so its points swap
        [622, -396, -2574, 5080, -2574, -396, 622],
        # one derived certificate whose discriminant is the rational square
        # 16: no swap
        [384, 0, 288, 0, 168, 0, -2],
    ])
    def test_fixed_points_in_the_order_of_the_map(self, f):
        certs = detect_involutions(curve(f))
        assert any(isinstance(e, QuadExt) for t in certs for e in t.map.entries())
        for cert in certs:
            assert cert.fixed_points == cert.map.fixed_points()

    def test_conjugate_map_keeps_canonical_scaling(self):
        m = MoebiusMap(QuadExt(1, 2, 3), Fraction(5, 7), 1, QuadExt(-1, -2, 3))
        c = m.conj()
        assert c == MoebiusMap(QuadExt(1, -2, 3), Fraction(5, 7), 1, QuadExt(-1, 2, 3))
        assert c.conj() == m


def _refuse_field_gcd(p, q):
    raise AssertionError("Euclid over Q(sqrt d) was called")


def _refuse_eval(self, x):
    raise AssertionError("F was evaluated at a fixed point")


def _certificate_of(F, m):
    return symmetry._certificate(F.integer_model()[0], m, 1)


class TestFixesBranch:
    # Whether a certificate fixes a branch point is decided over Q by one
    # test, gcd(F, fix * conj(fix)) for the fixed-point quadratic fix, for
    # fixed points in Q, a quadratic field or a quartic one alike; F is
    # never evaluated at them and no gcd over a quadratic field is taken.

    def test_moved_curves_classify_without_field_gcd(self, monkeypatch):
        monkeypatch.setattr(poly_module, "_field_gcd", _refuse_field_gcd)
        # base, map, then certificates over Q(sqrt d) and those fixing a
        # branch point: X^6 - 1 by (2X + 1)/(X + 3) turns X -> w/X and
        # X -> w^2/X (w a cube root of unity, fixing the branch points
        # +-w^2) into maps over Q(sqrt -3)
        moves = [([-1, 0, 0, 0, 0, 0, 1], MoebiusMap(2, 1, 1, 3), 4, 2),
                 (CUBIC_MIDDLE, MoebiusMap(3, -2, 5, 7), 2, 0)]
        for base, m, irrational, fixing in moves:
            moved, _ = transform(curve(base), m)
            over_q_sqrt = [t for t in detect_involutions(moved)
                           if any(isinstance(e, QuadExt) for e in t.map.entries())]
            assert len(over_q_sqrt) == irrational
            assert len([t for t in over_q_sqrt if t.fixes_branch_points]) == fixing
            assert classify(moved).invariants == classify(curve(base)).invariants

    def test_either_fixed_point_counts(self, monkeypatch):
        monkeypatch.setattr(Poly, "eval", _refuse_eval)
        x = variable()
        # X -> 4/X fixes 2 (listed first) and -2; only -2 is a root here
        m = MoebiusMap(0, 4, 1, 0)
        assert m.fixed_points() == (2, -2)
        assert _certificate_of((x + 2) * (x**5 + 7), m).fixes_branch_points
        assert not _certificate_of((x + 3) * (x**5 + 7), m).fixes_branch_points
        # X -> -X + 4 fixes 2 and infinity, no branch point of the even model
        m = MoebiusMap(-1, 4, 0, 1)
        assert _certificate_of((x - 2) * (x**5 + 7), m).fixes_branch_points
        assert not _certificate_of((x - 3) * (x**5 + 7), m).fixes_branch_points
        # X -> -(X + 2)/(2X + 1) fixes the roots of X^2 + X + 1, in Q(sqrt -3)
        m = MoebiusMap(-1, -2, 2, 1)
        assert all(isinstance(p, QuadExt) and p.d == -3 for p in m.fixed_points())
        assert _certificate_of((x**2 + x + 1) * (x**4 + 7), m).fixes_branch_points
        assert not _certificate_of((x**2 + x + 2) * (x**4 + 7), m).fixes_branch_points

    def test_quartic_fixed_points_decided_over_q(self, monkeypatch):
        monkeypatch.setattr(poly_module, "_field_gcd", _refuse_field_gcd)
        monkeypatch.setattr(Poly, "eval", _refuse_eval)
        # X -> sqrt(2)/X fixes the roots of X^2 - sqrt(2), which are +-2^(1/4)
        m = MoebiusMap(0, QuadExt(0, 1, 2), 1, 0)
        x = variable()
        on = (x**4 - 2) * (x**2 + 5)
        off = (x**4 - 3) * (x**2 + 5)
        assert _certificate_of(on, m).fixes_branch_points
        assert _certificate_of(on, m).fixed_points is None
        assert not _certificate_of(off, m).fixes_branch_points


_BASES = {
    "X^6 - 1": [-1, 0, 0, 0, 0, 0, 1],
    "X^6 + 4X^3 + 1": CUBIC_MIDDLE,
    "X^8 + 1": [1, 0, 0, 0, 0, 0, 0, 0, 1],
}


def _search_and_invariants(c):
    ec, _ = to_even_degree(c)
    return len(_direct_checked(ec)), classify(c).invariants


_ENTRY = st.integers(-3000, 3000)
_MAPS = st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY).filter(
    lambda e: e[0] * e[3] != e[1] * e[2])


class TestMovedCurves:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(base=st.sampled_from(sorted(_BASES)), entries=_MAPS)
    def test_certificates_and_invariants_survive_moebius_maps(self, base, entries):
        c = curve(_BASES[base])
        moved, _ = transform(c, MoebiusMap(*entries))
        assert _search_and_invariants(moved) == _search_and_invariants(c)


def _random_even_model(rng, g):
    f = [rng.randint(-20, 20) for _ in range(2 * g + 2)]
    return f + [rng.choice([-3, -2, -1, 1, 2, 3])]


def generic_pullback(f, a, b, c, d, n):
    """(cX+d)^n * f((aX+b)/(cX+d)) by Poly products over any coefficient ring.

    The reference for the integer pullback in hyperinv.moebius, and for the
    c = 1 equations, whose entries are polynomials in the map parameters.
    """
    num, den, deg = Poly([b, a]), Poly([d, c]), f.degree()
    num_pows = [Poly([1])]
    for _ in range(deg):
        num_pows.append(num_pows[-1] * num)
    den_pows = [Poly([1])]
    for _ in range(n):
        den_pows.append(den_pows[-1] * den)
    out = Poly()
    for i, fi in enumerate(f.coeffs):
        if fi:
            out = out + (num_pows[i] * den_pows[n - i]).scale(fi)
    return out


def _nested_equations(f, n):
    """The c = 1 equations by nested-Poly pullback, as int lists."""
    A = Poly([Poly([0, 1])])
    B = Poly([Poly([0]), Poly([1])])
    ONE = Poly([Poly([1])])
    F = Poly(f)
    G = generic_pullback(F, A, B, ONE, -A, n)
    Fa = F.eval(Poly([0, 1]))
    out = []
    for k in range(n - 1, -1, -1):
        Gk = G.coeff(k)
        if not isinstance(Gk, Poly):
            Gk = Poly([Gk])
        E = Gk.scale(f[n]) - Poly([Fa.scale(f[k])])
        if not E.is_zero():
            # a row that collapsed to a scalar is a constant, or zero
            out.append([[int(c) for c in row.coeffs] if isinstance(row, Poly)
                        else [int(row)] if row else [] for row in E.coeffs])
    return out


def _reference_b_values(eqs, a0):
    """The b values at a0 by Poly(row).eval: Fraction or QuadExt Horner.

    The earlier symmetry._b_values, kept as the reference for the one on
    int lists: the pivot p1*b + p0 read at a0, and where both vanish the
    other equations specialised at a0 and their gcd taken over Q.
    """
    p0, p1 = (Poly(row).eval(a0) for row in eqs[0])
    if p1 != 0:
        return [-p0 / p1]
    if p0 != 0:
        return []
    specialized = [Poly([Poly(row).eval(a0) for row in E]) for E in eqs[1:]]
    specialized = [q for q in specialized if not q.is_zero()]
    if not specialized:
        return []
    return symmetry._certified(reduce(gcd, specialized), "reference")


def _random_quadratic(rng):
    a = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 9))
    return QuadExt(a, b, rng.choice([-7, -3, -1, 2, 5, 12, Fraction(3, 5)]))


class TestBValues:
    @staticmethod
    def same(f, a0):
        eqs = list(symmetry._involution_equations(f, len(f) - 1))
        got = symmetry._b_values(symmetry._Equations(iter(eqs)), a0)
        want = _reference_b_values(eqs, a0)
        assert repr(got) == repr(want), (f, a0)
        return got

    def test_match_reference_on_random_models(self):
        rng = random.Random(61)
        for _ in range(10):
            for g in (2, 3, 4):
                f = _random_even_model(rng, g)
                for a0 in (Fraction(rng.randint(-50, 50), rng.randint(1, 12)),
                           _random_quadratic(rng)):
                    assert len(self.same(f, a0)) == 1

    def test_match_reference_where_the_pivot_vanishes(self):
        # (X - 3)^6 + 4(X - 3)^3 + 1: p1(3) = p0(3) = 0; b = -8 and a
        # conjugate pair over Q(sqrt -3)
        b = self.same([622, -1350, 1179, -536, 135, -18, 1], Fraction(3))
        assert b[0] == -8 and b[1] == b[2].conj() and b[1].d == -3
        # X^6 + X^3 + 2 at a0 = 0: b^3 = 2 has no root of degree <= 2
        assert self.same([2, 0, 0, 1, 0, 0, 1], Fraction(0)) == []

    def test_irrational_root_of_the_pivot_lead_gives_nothing(self):
        # X^6 - 3X^4 + 1: f'(sqrt 2) = 0 != f(sqrt 2), so p1 = 0 != p0 there
        assert self.same([1, 0, 0, 0, -3, 0, 1], QuadExt(0, 1, 2)) == []


def _sparse_even_model(rng, g):
    """A model of degree 2g + 2 with most coefficients zero."""
    f = [rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(2 * g + 2)]
    f[0] = f[0] or 1
    return f + [rng.choice([-2, -1, 1, 2])]


def _chain_length(eqs, f):
    """How many equations the resolvent chain reads, the pivot included.

    The chain of detect_involutions on the full list: it stops at the first
    resultant whose gcd with the ones before it, F's factors divided out,
    is constant.
    """
    D = None
    for k, E in enumerate(eqs[1:], start=2):
        r = E[0] if len(E) == 1 else [c.numerator for c in resultant(eqs[0], E).coeffs]
        if r:
            r = zz.primitive(r)
            D = symmetry._off_branch(r if D is None else zz.gcd(D, r), f)
            if len(D) == 1:
                return k
    return len(eqs)


class TestInvolutionEquations:
    def test_match_nested_pullback(self):
        # dense and sparse models of genus 2 to 5; the b^(n-k) row of
        # equation k is fn * sum_i C(i, n-k) f_i a^(i-n+k), which holds
        # C(n, n-k) fn^2 a^k, so no equation is zero and all n are drawn
        rng = random.Random(53)
        for _ in range(3):
            for g in (2, 3, 4, 5):
                n = 2 * g + 2
                for f in (_random_even_model(rng, g), _sparse_even_model(rng, g)):
                    eqs = list(symmetry._involution_equations(f, n))
                    assert eqs == _nested_equations(f, n), f
                    assert len(eqs) == n

    def test_equations_are_built_only_as_the_chain_reads_them(self, monkeypatch):
        # recip40-style curves: odd reciprocal models [1] + mid + mid[::-1] + [1]
        full, drawn = symmetry._involution_equations, []

        def counted(f, n):
            for E in full(f, n):
                drawn[-1] += 1
                yield E

        monkeypatch.setattr(symmetry, "_involution_equations", counted)
        rng, early = random.Random(3), 0
        for _ in range(20):
            g = rng.randint(2, 4)
            mid = [rng.randint(-6, 6) for _ in range(g)]
            try:
                c, _ = to_even_degree(curve([1] + mid + mid[::-1] + [1]))
            except HyperinvError:
                continue
            drawn.append(0)
            certs = detect_involutions(c)
            f = c.F.integer_model()[0]
            if len(certs) == 0:  # a constant resolvent: nothing after the chain reads more
                stop = _chain_length(list(full(f, len(f) - 1)), f)
                assert drawn[-1] == stop, (mid, drawn[-1], stop)
                early += stop < len(f) - 1
        assert early >= 10

    def test_pivot_is_linear_with_lead_fn_times_derivative(self):
        rng = random.Random(59)
        for _ in range(8):
            for g in (2, 3, 4, 5):
                f = _random_even_model(rng, g)
                n = 2 * g + 2
                pivot = next(symmetry._involution_equations(f, n))
                derivative = [i * c for i, c in enumerate(f)][1:]
                assert len(pivot) == 2
                assert pivot[1] == [f[n] * c for c in derivative]
                # p0 = fn a^2 f'(a) - (n fn a + f_(n-1)) f(a)
                F, a = Poly(f), variable()
                p0 = (a**2 * F.derivative()).scale(f[n]) - Poly([f[n - 1], n * f[n]]) * F
                assert Poly(pivot[0]) == p0

    def test_branch_point_factors_leave_the_candidates(self):
        # integer models: (X - 1)^2 (X + 1) (2X - 5) against X^6 - 1
        D = [-5, 7, 3, -7, 2]
        assert symmetry._off_branch(D, [-1, 0, 0, 0, 0, 0, 1]) == [-5, 2]

    def test_certification_failure_names_the_resolvent(self, monkeypatch):
        import mpmath

        def no_convergence(*args, **kwargs):
            raise mpmath.libmp.NoConvergence("forced")

        monkeypatch.setattr(mpmath, "polyroots", no_convergence)
        # X^6 - 1 pulled back by (2X + 1)/(X + 3): quadratic resolvent factors
        f = [-728, -1446, -1155, -380, 105, 174, 63]
        with pytest.raises(SearchInconclusive,
                           match=r"parameter certification failed on the resolvent "
                                 r"of degree \d+ with \d+-bit coefficients: "
                                 r"high-precision root refinement failed on degree \d+"):
            detect_involutions(curve(f))

    def test_certification_failure_names_the_pivot_fallback(self, monkeypatch):
        import mpmath

        def no_convergence(*args, **kwargs):
            raise mpmath.libmp.NoConvergence("forced")

        monkeypatch.setattr(mpmath, "polyroots", no_convergence)
        # X^6 + X^3 + 2: the pivot vanishes at a0 = 0, where b^3 = 2
        with pytest.raises(SearchInconclusive,
                           match=r"b certification failed at the rational a0 = 0 "
                                 r"where the pivot vanishes, on the gcd of degree 3 "
                                 r"with 2-bit coefficients: high-precision root"):
            detect_involutions(curve([2, 0, 0, 1, 0, 0, 1]))

    def test_vanishing_elimination_is_inconclusive(self, monkeypatch):
        full = symmetry._involution_equations
        monkeypatch.setattr(symmetry, "_involution_equations",
                            lambda f, n: islice(full(f, n), 1))
        with pytest.raises(SearchInconclusive, match="elimination.*genus 2"):
            detect_involutions(curve([1, 1, 0, 0, 0, 0, 1]))


class TestEvenModel:
    def test_palindrome_via_reciprocal(self):
        c = curve(CUBIC_MIDDLE)  # X^6 + 4X^3 + 1
        certs = detect_involutions(c)
        recip = next(t for t in certs if t.map == MoebiusMap(0, 1, 1, 0))
        b, m = even_model(c, recip)
        assert len(b) == c.genus + 2
        u_even = dihedral_from_even(b)
        assert u_even.genus == c.genus

    def test_already_even(self):
        c = curve(SEXTIC_PLUS_ONE)
        certs = detect_involutions(c)
        neg = next(t for t in certs if t.map == MoebiusMap(-1, 0, 0, 1))
        b, m = even_model(c, neg)
        assert tuple(b) == (1, 0, 0, 1)
        assert dihedral_from_even(b).u == dihedral_from_normal((0, 0)).u == (0, 0)

    def test_fixed_branch_point_rejected(self):
        ec, _ = to_even_degree(curve(QUINTIC))
        certs = detect_involutions(ec)
        bad = next(t for t in certs if t.fixes_branch_points)
        with pytest.raises(FixedBranchPoint):
            even_model(ec, bad)

    def test_even_models_agree_on_invariant_locus(self):
        # different usable involutions of the same curve can give different
        # u vectors, but each must put the curve on a consistent locus
        c = curve(EVEN_CHAIN)
        certs = detect_involutions(c)
        results = []
        for cert in certs:
            if cert.fixes_branch_points:
                continue
            try:
                b, _ = even_model(c, cert)
            except FixedBranchPoint:
                continue
            results.append(dihedral_from_even(b))
        assert results
        for inv in results:
            assert inv.genus == 2
