"""Projective fractional-linear maps and polynomial pullbacks."""

import random

import pytest

from hyperinv.curve import transform
from hyperinv.errors import DegreeTooSmall, IdentityMap, RadicandMismatch, SingularModel, ZeroInput
from hyperinv.exact import QuadExt
from hyperinv.moebius import (
    INFINITY,
    MoebiusMap,
    is_automorphism,
    proj_equal,
    pullback_coeffs,
    pullback_form,
)
from hyperinv.poly import Poly, variable
from hyperinv.exact import Rational

from conftest import curve, random_moebius
from test_symmetry import generic_pullback


class TestConstruction:
    def test_entries_normalized_by_first_nonzero(self):
        m = MoebiusMap(2, 4, 0, 2)
        assert m.entries() == (1, 2, 0, 1)
        m = MoebiusMap(0, 3, 6, 9)
        assert m.entries() == (0, 1, 2, 3)

    def test_singular_rejected(self):
        with pytest.raises(SingularModel):
            MoebiusMap(1, 2, 2, 4)
        with pytest.raises(SingularModel):
            MoebiusMap(0, 0, 0, 0)

    def test_polynomial_entries_rejected(self):
        with pytest.raises(TypeError):
            MoebiusMap(variable(), 0, 0, 1)

    def test_eq_hash_projective(self):
        assert MoebiusMap(1, 0, 0, 2) == MoebiusMap(3, 0, 0, 6)
        assert hash(MoebiusMap(1, 0, 0, 2)) == hash(MoebiusMap(3, 0, 0, 6))
        assert MoebiusMap(1, 0, 0, 2) != MoebiusMap(1, 0, 0, 3)


def _reference_scaled(entries):
    """Every entry divided by the first nonzero one, as __init__ once did."""
    lead = next(v for v in entries if v)
    return "MoebiusMap(%r, %r, %r, %r)" % tuple(v / lead for v in entries)


class TestCanonicalScaling:
    # one inversion of the lead entry, skipped when the lead is 1, must give
    # the entries that dividing each of them by the lead gave

    @staticmethod
    def _entry_sets(seed):
        rng = random.Random(seed)
        for _ in range(300):
            radicand = rng.choice((None, 2, -1, -3, 5))
            a, b, c, d = (TestIntegerPullback._scalar(rng, radicand) for _ in range(4))
            kind = rng.randrange(4)
            if kind == 1:
                a = Rational(0)  # the lead sits in position b
            elif kind == 2:
                a = -abs(Rational(rng.randint(1, 9), rng.randint(1, 9)))  # negative lead
            elif kind == 3:
                a = Rational(1)  # no inversion
            yield a, b, c, d

    def test_init_matches_division_by_the_lead(self):
        built = 0
        for entries in self._entry_sets(83):
            try:
                m = MoebiusMap(*entries)
            except SingularModel:
                continue
            assert repr(m) == _reference_scaled(entries)
            built += 1
        assert built > 250

    def test_irrational_and_negative_leads(self):
        for entries in [(QuadExt(1, 2, 3), Rational(5, 7), 1, QuadExt(-1, -2, 3)),
                        (QuadExt(-2, -1, -1), 0, 3, QuadExt(0, 1, -1)),
                        (0, QuadExt(0, -1, 2), 1, 4),
                        (0, Rational(-3, 4), 2, 5),
                        (Rational(-2), 1, 0, Rational(-1, 2))]:
            assert repr(MoebiusMap(*entries)) == _reference_scaled(
                [Rational(v) if isinstance(v, int) else v for v in entries])

    def test_inverse_matches_division_by_the_lead(self):
        for entries in self._entry_sets(89):
            try:
                m = MoebiusMap(*entries)
            except SingularModel:
                continue
            assert repr(m.inverse()) == _reference_scaled((m.d, -m.b, -m.c, m.a))
            assert m.compose(m.inverse()).is_identity()

    def test_candidate_builder_matches_division_by_the_lead(self):
        # detect_involutions builds (a0, b0, 1, -a0) once a0^2 + b0 != 0 is known
        rng = random.Random(97)
        built = 0
        for _ in range(300):
            radicand = rng.choice((None, 2, -1, -3, 5))
            a0 = Rational(0) if rng.random() < 0.25 else TestIntegerPullback._scalar(rng, radicand)
            b0 = TestIntegerPullback._scalar(rng, radicand)
            if a0 * a0 + b0 == 0:
                continue
            entries = (a0, b0, Rational(1), -a0)
            m = MoebiusMap._unchecked(*entries)
            assert repr(m) == _reference_scaled(entries) == repr(MoebiusMap(*entries))
            built += 1
        assert built > 250

    def test_singular_still_raised(self):
        with pytest.raises(SingularModel):
            MoebiusMap(QuadExt(1, 1, 2), QuadExt(3, 1, 2), QuadExt(1, 1, 2), QuadExt(3, 1, 2))
        with pytest.raises(SingularModel):
            MoebiusMap(0, 5, 0, Rational(7, 3))
        with pytest.raises(SingularModel):
            MoebiusMap(1, QuadExt(0, 1, 2), QuadExt(0, 1, 2), 2)


class TestAction:
    def test_apply(self):
        m = MoebiusMap(1, 1, 1, -1)  # (x+1)/(x-1)
        assert m(2) == 3
        assert m(1) is INFINITY
        assert m(INFINITY) == 1
        assert MoebiusMap(0, 1, 1, 0)(0) is INFINITY

    def test_compose_is_function_composition(self):
        rng = random.Random(37)
        for _ in range(30):
            m1 = random_moebius(rng)
            m2 = random_moebius(rng)
            c = m1.compose(m2)
            for x in (Rational(0), Rational(1), Rational(-3), Rational(5, 2), INFINITY):
                assert proj_equal(c(x), m1(m2(x)))

    def test_inverse(self):
        rng = random.Random(41)
        for _ in range(20):
            m = random_moebius(rng)
            assert m.compose(m.inverse()).is_identity()
            assert m.inverse().compose(m).is_identity()

    def test_identity(self):
        e = MoebiusMap.identity()
        assert e.is_identity()
        assert e(7) == 7
        assert e(INFINITY) is INFINITY

    def test_order(self):
        assert MoebiusMap(-1, 0, 0, 1).order(8) == 2      # x -> -x
        assert MoebiusMap(0, 1, 1, 0).order(8) == 2       # x -> 1/x
        assert MoebiusMap(1, -1, 1, 0).order(8) == 3      # x -> (x-1)/x
        assert MoebiusMap(1, 1, 0, 1).order(8) is None    # translation, infinite
        assert MoebiusMap.identity().order(8) == 1


class TestFixedPoints:
    def test_involution_reciprocal(self):
        assert set(MoebiusMap(0, 1, 1, 0).fixed_points()) == {Rational(1), Rational(-1)}

    def test_negation(self):
        pts = MoebiusMap(-1, 0, 0, 1).fixed_points()
        assert set(pts) == {Rational(0), INFINITY}

    def test_translation_parabolic(self):
        assert MoebiusMap(1, 1, 0, 1).fixed_points() == (INFINITY, INFINITY)

    def test_identity_raises(self):
        with pytest.raises(IdentityMap):
            MoebiusMap.identity().fixed_points()

    def test_quadratic_irrational(self):
        pts = MoebiusMap(0, 2, 1, 0).fixed_points()  # x -> 2/x, fixed at +-sqrt(2)
        assert set(pts) == {QuadExt(0, 1, 2), QuadExt(0, -1, 2)}

    def test_parabolic_rational_double_point(self):
        # x -> x/(x+1) fixes only 0 (doubled)
        pts = MoebiusMap(1, 0, 1, 1).fixed_points()
        assert pts == (Rational(0), Rational(0))

    def test_degree_four_extension_rejected(self):
        r2 = QuadExt(0, 1, 2)
        m = MoebiusMap(0, r2, 1, 0)  # fixed points +- 2^(1/4)
        with pytest.raises(ValueError):
            m.fixed_points()

    def test_fixed_points_are_fixed(self):
        rng = random.Random(43)
        found = 0
        while found < 15:
            m = random_moebius(rng)
            if m.is_identity():
                continue
            try:
                pts = m.fixed_points()
            except ValueError:
                continue
            for p in pts:
                assert proj_equal(m(p), p)
            found += 1


class TestStr:
    def test_plain(self):
        assert str(MoebiusMap(1, 1, 1, -1)) == "X -> (X + 1)/(X - 1)"
        assert str(MoebiusMap(1, 0, 0, 1)) == "X -> X"
        assert str(MoebiusMap(0, 1, 1, 0)) == "X -> 1/X"
        assert str(MoebiusMap(-1, 0, 0, 1)) == "X -> -X"
        assert str(MoebiusMap(1, 1, 0, 2)) == "X -> (1/2)*X + 1/2"


class TestPullback:
    def test_reciprocal_reverses(self):
        f = Poly([1, 2, 0, 0, 0, 0, 3])  # 3X^6 + 2X + 1
        g = pullback_form(f, MoebiusMap(0, 1, 1, 0), 6)
        assert g == Poly([3, 0, 0, 0, 0, 2, 1])

    def test_zero_form_rejected(self):
        with pytest.raises(ZeroInput):
            pullback_coeffs(Poly(), 1, 0, 0, 1, 6)

    def test_form_degree_below_polynomial_degree_rejected(self):
        with pytest.raises(DegreeTooSmall):
            pullback_coeffs(Poly([1, 0, 0, 1]), 1, 0, 0, 1, 2)

    def test_identity_pullback(self):
        f = Poly([1, 2, 3, 4, 5, 6, 7])
        assert pullback_form(f, MoebiusMap.identity(), 6) == f

    def test_composition_contravariant_up_to_scalar(self):
        # entries are normalized projectively, so the weight factor of the
        # composite differs from the two-step pullback by a nonzero scalar
        rng = random.Random(47)
        for _ in range(10):
            f = Poly([rng.randint(-5, 5) for _ in range(7)])
            if f.degree() < 6:
                continue
            m1 = random_moebius(rng)
            m2 = random_moebius(rng)
            lhs = pullback_form(f, m1.compose(m2), 6)
            rhs = pullback_form(pullback_form(f, m1, 6), m2, 6)
            ratio = lhs.lead() / rhs.lead()
            assert lhs == rhs.scale(ratio)


class TestIsAutomorphism:
    def test_sextic_plus_one(self):
        f = Poly([1, 0, 0, 0, 0, 0, 1])
        assert is_automorphism(f, MoebiusMap(-1, 0, 0, 1), 6) == 1
        assert is_automorphism(f, MoebiusMap(0, 1, 1, 0), 6) == 1

    def test_scaled_lambda(self):
        f = Poly([1, 0, 0, 4, 0, 0, 1])  # X^6 + 4X^3 + 1
        lam = is_automorphism(f, MoebiusMap(0, 1, 1, 0), 6)
        assert lam == 1

    def test_non_automorphism(self):
        f = Poly([1, 1, 0, 0, 0, 0, 1])
        assert is_automorphism(f, MoebiusMap(-1, 0, 0, 1), 6) is None


def _reference_lam(f, m, n):
    """is_automorphism by the generic pullback and field arithmetic."""
    g = generic_pullback(f, m.a, m.b, m.c, m.d, n)
    if g.degree() != f.degree():
        return None
    k = next(i for i, c in enumerate(f.coeffs) if c)
    if not g.coeff(k):
        return None
    lam = g.coeff(k) / f.coeffs[k]
    return lam if g == f.scale(lam) else None


class TestIntegerPullback:
    # 2 * 1009^2 keeps its square factor (1009 is past the radicand trial
    # bound), so values over it and over 2 are one field in two spellings
    RADICANDS = (2, -3, 5, -1, 2 * 1009**2)

    @staticmethod
    def _scalar(rng, radicand, height=60):
        """A random value over Q(sqrt radicand), sometimes rational, sometimes 0."""
        if rng.random() < 0.15:
            return Rational(0)
        x = Rational(rng.randint(-height, height), rng.randint(1, 12))
        if radicand is None or rng.random() < 0.3:
            return x
        return QuadExt(x, Rational(rng.randint(-height, height) or 1, rng.randint(1, 7)),
                       radicand)

    def test_matches_generic_reference(self):
        # forms of degree below n, zero coefficients, and map entries up to
        # 10^40, whose pullback is read back as digits of a large integer
        rng = random.Random(71)
        done = 0
        while done < 200:
            field = rng.choice((None,) + self.RADICANDS)
            f_field = field if rng.random() < 0.5 else None
            if field == 2 * 1009**2 and rng.random() < 0.5:
                f_field = 2
            n = rng.randint(5, 9)
            height = rng.choice((60, 10**6, 10**40))
            f = Poly([self._scalar(rng, f_field) for _ in range(rng.randint(1, n + 1))])
            try:
                m = MoebiusMap(*(self._scalar(rng, field, height) for _ in range(4)))
            except SingularModel:
                continue
            if f.is_zero():
                continue
            want = generic_pullback(f, m.a, m.b, m.c, m.d, n)
            assert pullback_form(f, m, n) == want
            assert pullback_coeffs(f, m.a, m.b, m.c, m.d, n) == want
            assert is_automorphism(f, m, n) == _reference_lam(f, m, n)
            done += 1

    @pytest.mark.parametrize("coeffs, entries, n", [
        # pullbacks whose largest coefficient meets the width's bound: one
        # term, read back with its sign, at the top of its digit range
        ([0, 0, 0, 0, 0, 0, -7], (5, 0, 0, 1), 6),
        ([0, 0, -1], (0, 1, 1, 0), 6),
        ([0, 0, 0, 0, 0, 3], (QuadExt(0, 3, -1), 0, 0, 1), 5),
        ([0, 0, 0, QuadExt(0, -1, 2)], (0, QuadExt(0, 1009, 2), 1, 0), 3),
        ([-1, 0, 0, 0, 0, 0, 0, 0, 10**40], (-(10**40), 0, 0, 1), 8),
    ])
    def test_single_term_pullbacks(self, coeffs, entries, n):
        f, m = Poly(coeffs), MoebiusMap(*entries)
        want = generic_pullback(f, m.a, m.b, m.c, m.d, n)
        assert pullback_form(f, m, n) == want
        assert is_automorphism(f, m, n) == _reference_lam(f, m, n)

    def test_automorphisms_over_a_quadratic_field(self):
        # X^6 - 1 moved by a map over Q(sqrt 2): its rational involutions,
        # conjugated by that map, are automorphisms with entries in Q(sqrt 2)
        moved_by = MoebiusMap(QuadExt(0, 1, 2), 1, 1, 3)
        f = transform(curve([-1, 0, 0, 0, 0, 0, 1]), moved_by)[0].F
        assert any(isinstance(c, QuadExt) for c in f.coeffs)
        back = moved_by.inverse()
        # scaled by 1 + sqrt 2 the lowest coefficient is irrational too, so
        # the cross products meet sqrt(2)*sqrt(2) terms
        for form in (f, f.scale(QuadExt(1, 1, 2))):
            assert isinstance(form.coeffs[0], QuadExt) == (form is not f)
            for gamma in (MoebiusMap(-1, 0, 0, 1), MoebiusMap(0, 1, 1, 0),
                          MoebiusMap(0, -1, 1, 0)):
                m = back.compose(gamma.compose(moved_by))
                lam = is_automorphism(form, m, 6)
                assert lam is not None
                assert lam == _reference_lam(form, m, 6)
                assert pullback_form(form, m, 6) == form.scale(lam)
            assert is_automorphism(form, MoebiusMap(1, 1, 0, 1), 6) is None

    def test_mixed_radicands_raise(self):
        f = Poly([QuadExt(1, 3, 2), 1, 0, 0, 0, 0, 2])
        with pytest.raises(RadicandMismatch):
            pullback_form(f, MoebiusMap(QuadExt(0, 1, 3), 1, 1, 2), 6)
        with pytest.raises(RadicandMismatch):
            is_automorphism(f, MoebiusMap(QuadExt(0, 1, 3), 1, 1, 2), 6)
