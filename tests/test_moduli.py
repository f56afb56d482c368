"""Reconstruction of even models from dihedral invariant points."""

import pytest

from hyperinv.errors import NotOnLocus, SingularOutput, ZeroLeading
from hyperinv.invariants import DihedralInvariants, dihedral_from_normal, locus_eval
from hyperinv.moduli import RationalModelResult, rational_model, round_trip_check
from hyperinv.poly import Poly
from hyperinv.exact import Rational


class TestRationalModel:
    def test_minus_branch_point(self):
        res = rational_model((16, 8))
        assert isinstance(res, RationalModelResult)
        assert res.branch == "minus"
        assert res.verified
        # layout: 16 X^6 + 16 X^4 + 8 X^2 + 2
        assert res.curve.F == Poly([2, 0, 8, 0, 16, 0, 16])

    def test_genus3_point(self):
        res = rational_model((2, 5, 2))
        assert res.branch == "minus"
        assert res.verified
        assert res.curve.F == Poly([2, 0, 2, 0, 5, 0, 2, 0, 2])

    def test_plus_branch_point(self):
        res = rational_model((2, -2))
        assert res.branch == "plus"
        assert res.verified
        assert res.curve.F == Poly([2, 0, 2, 0, 2, 0, 2])

    def test_invariants_object_accepted(self):
        u = DihedralInvariants((Rational(16), Rational(8)), 2)
        assert rational_model(u).branch == "minus"

    def test_rational_entries_from_strings(self):
        res = rational_model((Rational("16"), Rational("8")))
        assert res.verified

    def test_zero_leading_rejected(self):
        with pytest.raises(ZeroLeading):
            rational_model((0, 2))

    def test_off_locus_rejected(self):
        with pytest.raises(NotOnLocus) as info:
            rational_model((36, 8))
        # the error reports both factor values
        assert "2080" in str(info.value) and "3104" in str(info.value)

    def test_singular_output_reports_repeated_factor(self):
        # the model 54X^6 + 54X^4 + 18X^2 + 2 = 2 (3X^2 + 1)^3, so
        # gcd(F, F') = (X^2 + 1/3)^2
        with pytest.raises(SingularOutput) as info:
            rational_model((54, 18))
        assert "repeated factor X^4 + 2/3*X^2 + 1/9" in str(info.value)


class TestRoundTrip:
    def test_pinned_points(self):
        assert round_trip_check((16, 8))
        assert round_trip_check((2, 5, 2))
        assert round_trip_check((2, -2))

    def test_minus_branch_family(self):
        # points (2 t^3, 2 t^2) parameterize the genus-2 minus locus
        for t in (2, 5, 7, -4, Rational(3, 2)):
            t = Rational(t)
            u = (2 * t**3, 2 * t**2)
            res = rational_model(u)
            assert res.branch == "minus"
            assert round_trip_check(u)

    def test_normal_form_slices_round_trip(self):
        # curves with a1 = ag land on the minus branch by construction
        import random

        rng = random.Random(83)
        done = 0
        while done < 25:
            g = rng.choice((2, 3, 4))
            a = [Rational(rng.randint(-9, 9)) for _ in range(g)]
            a[-1] = a[0]
            if a[0] == 0:
                continue
            u = dihedral_from_normal(tuple(a))
            minus, _ = locus_eval(u)
            assert minus == 0
            try:
                assert round_trip_check(u)
            except (SingularOutput, ZeroLeading):
                continue  # boundary: reconstruction degenerates, resample
            done += 1
