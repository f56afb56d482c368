"""Hyperelliptic curve container and degree-change transforms."""

import random
from types import SimpleNamespace

import pytest

from hyperinv.curve import HyperellipticCurve, new_curve, to_even_degree, transform
from hyperinv.errors import DegreeTooSmall, IllegalCollapse, SingularModel
from hyperinv.exact import QuadExt
from hyperinv.moebius import MoebiusMap
from hyperinv.poly import Poly

from conftest import CUBIC_MIDDLE, QUINTIC, SEXTIC_PLUS_ONE, curve


class TestConstruction:
    def test_genus_from_degree(self):
        assert curve(QUINTIC).genus == 2
        assert curve(SEXTIC_PLUS_ONE).genus == 2
        assert new_curve([1, 1, 0, 0, 0, 0, 0, 1]).genus == 3   # degree 7
        assert new_curve([1, 1, 0, 0, 0, 0, 0, 0, 1]).genus == 3  # degree 8

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            new_curve([1, 0, 0, 0, 1])  # degree 4

    def test_singular_rejected(self):
        with pytest.raises(SingularModel):
            new_curve([0, 0, 1, 0, 0, 1])  # X^2 (X^3 + 1), double root at 0

    def test_immutable(self):
        c = curve(SEXTIC_PLUS_ONE)
        with pytest.raises(AttributeError):
            c.genus = 5

    def test_parity_properties(self):
        even = curve(SEXTIC_PLUS_ONE)
        odd = curve(QUINTIC)
        assert even.even_degree and not even.infinite_branch
        assert not odd.even_degree and odd.infinite_branch


class TestTransform:
    def test_shift_preserves_genus_and_scales(self):
        c = curve(SEXTIC_PLUS_ONE)
        shifted, lam = transform(c, MoebiusMap(1, 1, 0, 1))  # X -> X + 1
        assert shifted.genus == 2
        # pullback of a degree-6 form along an affine map keeps degree 6
        assert shifted.F.degree() == 6
        assert lam == shifted.F.lead() / c.F.lead()
        assert shifted.F(0) == c.F(1)  # weight factor is 1 for a unit shift

    def test_reciprocal_reverses_coefficients(self):
        c = new_curve([2, 1, 0, 0, 0, 0, 3])
        flipped, lam = transform(c, MoebiusMap(0, 1, 1, 0))
        assert flipped.F == Poly([3, 0, 0, 0, 0, 1, 2])
        assert lam == Poly([3, 0, 0, 0, 0, 1, 2]).lead() / c.F.lead()


    def test_output_passes_full_validation(self):
        # transform builds its result without the square-free re-check;
        # validating it from outside must accept it and give the same curve
        rng = random.Random(67)
        done = 0
        while done < 24:
            root = QuadExt(0, 1, rng.choice([2, -3, 5]))
            entries = [rng.randint(-40, 40) for _ in range(4)]
            if done % 2:
                entries[rng.randrange(4)] += rng.randint(1, 9) * root
            try:
                m = MoebiusMap(*entries)
            except SingularModel:
                continue
            for base in (QUINTIC, CUBIC_MIDDLE):
                out, _ = transform(curve(base), m)
                assert HyperellipticCurve(out.F) == out
                assert HyperellipticCurve(out.F).genus == out.genus
            done += 1

    def test_collapse_below_n_minus_one_raises(self):
        # only a model of degree below 2g+1 can collapse, and no valid
        # curve has one: build the input by hand
        fake = SimpleNamespace(F=Poly([1, 0, 0, 0, 1]), genus=2)
        with pytest.raises(IllegalCollapse):
            transform(fake, MoebiusMap(1, 1, 0, 1))


class TestToEvenDegree:
    def test_even_input_unchanged(self):
        c = curve(SEXTIC_PLUS_ONE)
        out, m = to_even_degree(c)
        assert out is c
        assert m.is_identity()

    def test_quintic_promoted(self):
        c = curve(QUINTIC)  # X^5 - X, branch points 0, +-1, infinity
        out, m = to_even_degree(c)
        assert out.even_degree
        assert out.F.degree() == 6
        assert out.genus == c.genus
        # the map sends a finite non-branch integer r to infinity via X -> r + 1/X;
        # 0 and +-1 are branch points so the smallest usable r is 2
        assert m == MoebiusMap(2, 1, 1, 0)
        # the new model has a root at 0 (image of the old infinite branch point)
        assert out.F(0) == 0

    def test_round_trip_consistency(self):
        c = curve(QUINTIC)
        out, m = to_even_degree(c)
        back, lam = transform(out, m.inverse())
        # pulling back along the inverse recovers a rescaled odd model
        assert back.genus == c.genus
