"""Involution search, even models, and automorphism order candidates."""

import random

import pytest

import hyperinv.symmetry as symmetry
from hyperinv.curve import to_even_degree
from hyperinv.errors import FixedBranchPoint, SearchInconclusive
from hyperinv.invariants import dihedral_from_even, dihedral_from_normal
from hyperinv.moebius import MoebiusMap, pullback_coeffs, pullback_form
from hyperinv.poly import Poly, variable
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


def _random_even_model(rng, g):
    f = [rng.randint(-20, 20) for _ in range(2 * g + 2)]
    return f + [rng.choice([-3, -2, -1, 1, 2, 3])]


def _nested_equations(f, n):
    """The c = 1 equations by nested-Poly pullback, as int lists."""
    A = Poly([Poly([0, 1])])
    B = Poly([Poly([0]), Poly([1])])
    ONE = Poly([Poly([1])])
    F = Poly(f)
    G = pullback_coeffs(F, A, B, ONE, -A, n)
    Fa = F.eval(Poly([0, 1]))
    out = []
    for k in range(n - 1, -1, -1):
        Gk = G.coeff(k)
        if not isinstance(Gk, Poly):
            Gk = Poly([Gk])
        E = Gk.scale(f[n]) - Poly([Fa.scale(f[k])])
        if not E.is_zero():
            out.append([[int(c) for c in row.coeffs] for row in E.coeffs])
    return out


class TestInvolutionEquations:
    def test_match_nested_pullback(self):
        rng = random.Random(53)
        for g in (2, 3, 4):
            f = _random_even_model(rng, g)
            n = 2 * g + 2
            assert symmetry._involution_equations(f, n) == _nested_equations(f, n)

    def test_pivot_is_linear_with_lead_fn_times_derivative(self):
        rng = random.Random(59)
        for _ in range(8):
            for g in (2, 3, 4, 5):
                f = _random_even_model(rng, g)
                n = 2 * g + 2
                pivot = symmetry._involution_equations(f, n)[0]
                derivative = [i * c for i, c in enumerate(f)][1:]
                assert len(pivot) == 2
                assert pivot[1] == [f[n] * c for c in derivative]

    def test_branch_point_factors_leave_the_candidates(self):
        x = variable()
        D = (x - 1) ** 2 * (x + 1) * (2 * x - 5)
        assert symmetry._off_branch(D, x**6 - 1) == 2 * x - 5

    def test_vanishing_elimination_is_inconclusive(self, monkeypatch):
        full = symmetry._involution_equations
        monkeypatch.setattr(symmetry, "_involution_equations",
                            lambda f, n: full(f, n)[:1])
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
