"""Numeric branch-permutation oracle for reduced symmetry groups."""

from collections import Counter

import pytest

from hyperinv.errors import ToleranceAmbiguity, UnknownSignature
from hyperinv.oracle import (
    NumericGroup,
    has_klein_subgroup,
    label_from_signature,
    reduced_group,
)
from hyperinv.poly import Poly
from hyperinv.exact import Rational

from conftest import (
    CUBIC_MIDDLE,
    EVEN_CHAIN,
    QUINTIC,
    SEXTIC_MINUS_X,
    SEXTIC_PLUS_ONE,
    curve,
)


class TestGroupOrders:
    def test_fixture_orders(self):
        assert reduced_group(curve(SEXTIC_PLUS_ONE)).order == 12
        assert reduced_group(curve(QUINTIC)).order == 24
        assert reduced_group(curve(SEXTIC_MINUS_X)).order == 5
        assert reduced_group(curve(CUBIC_MIDDLE)).order == 6
        assert reduced_group(curve(EVEN_CHAIN)).order == 4

    def test_quintic_element_order_multiset(self):
        # the octahedral reduced group has the S4 signature
        grp = reduced_group(curve(QUINTIC))
        assert Counter(grp.element_orders) == {1: 1, 2: 9, 3: 8, 4: 6}

    def test_trivial_group(self):
        grp = reduced_group(curve([1, 1, 0, 0, 0, 0, 1]))
        assert grp.order == 1
        assert grp.element_orders == (1,)


class TestGroupStructure:
    def test_identity_present(self):
        grp = reduced_group(curve(SEXTIC_PLUS_ONE))
        n = len(grp.elements[0])
        assert tuple(range(n)) in grp.elements

    def test_closure_and_inverses(self):
        for coeffs in (SEXTIC_PLUS_ONE, QUINTIC, CUBIC_MIDDLE, EVEN_CHAIN):
            grp = reduced_group(curve(coeffs))
            elems = set(grp.elements)
            for p in grp.elements:
                for q in grp.elements:
                    comp = tuple(p[i] for i in q)
                    assert comp in elems
                inv = tuple(sorted(range(len(p)), key=lambda i: p[i]))
                assert inv in elems

    def test_determinism(self):
        a = reduced_group(curve(QUINTIC))
        b = reduced_group(curve(QUINTIC))
        assert a == b

    def test_order_divides(self):
        # element orders divide the group order
        for coeffs in (SEXTIC_PLUS_ONE, QUINTIC, CUBIC_MIDDLE):
            grp = reduced_group(curve(coeffs))
            assert all(grp.order % k == 0 for k in grp.element_orders)


class TestKleinDetection:
    def test_present_in_even_curve_group(self):
        assert has_klein_subgroup(reduced_group(curve(SEXTIC_PLUS_ONE)))
        assert has_klein_subgroup(reduced_group(curve(EVEN_CHAIN)))

    def test_absent_in_odd_dihedral(self):
        # reduced S3 of the D12 curve: its three involutions pairwise
        # fail to commute, so no Klein four-subgroup exists
        assert not has_klein_subgroup(reduced_group(curve(CUBIC_MIDDLE)))

    def test_absent_in_cyclic(self):
        assert not has_klein_subgroup(reduced_group(curve(SEXTIC_MINUS_X)))
        assert not has_klein_subgroup(reduced_group(curve([1, 1, 0, 0, 0, 0, 1])))


class TestLabels:
    def test_genus2_table(self):
        assert label_from_signature(2, reduced_group(curve(SEXTIC_PLUS_ONE))).name == "Z3⋊D8"
        assert label_from_signature(2, reduced_group(curve(QUINTIC))).name == "GL2(3)"
        assert label_from_signature(2, reduced_group(curve(SEXTIC_MINUS_X))).name == "Z10"
        assert label_from_signature(2, reduced_group(curve(CUBIC_MIDDLE))).name == "D12"

    def test_trivial_any_genus(self):
        grp = NumericGroup(elements=((0, 1, 2, 3, 4, 5),), order=1, element_orders=(1,))
        assert label_from_signature(2, grp).name == "Z2"
        assert label_from_signature(5, grp).name == "Z2"

    def test_higher_genus_cyclic(self):
        grp = reduced_group(curve([1, 0, 0, 0, 0, 0, 0, 1]))  # X^7 + 1, genus 3
        assert grp.order == 7
        assert label_from_signature(3, grp).name == "Z2N(7)"

    def test_unknown_signature_raises(self):
        grp = NumericGroup(
            elements=((0, 1, 2), (1, 2, 0), (2, 0, 1)),
            order=3,
            element_orders=(1, 3, 3),
        )
        with pytest.raises(UnknownSignature):
            label_from_signature(2, grp)


class TestTolerance:
    def test_validation(self):
        c = curve(SEXTIC_PLUS_ONE)
        for bad in (0, -1e-9, 1e-3, 1.0):
            with pytest.raises(ValueError):
                reduced_group(c, bad)
        assert reduced_group(c, 1e-5).order == 12

    @staticmethod
    def _tight_pair_curve(k):
        eps = Rational(1, 10**k)
        f = Poly([1])
        for r in (0, 1, 2, 3, 4):
            f = f * Poly([-Rational(r), 1])
        return curve(list((f * Poly([-(Rational(4) + eps), 1])).coeffs))

    def test_ambiguity_from_separation(self):
        # pair 1e-5 apart: resolved accurately, but below 10x a 1e-4 tolerance
        with pytest.raises(ToleranceAmbiguity):
            reduced_group(self._tight_pair_curve(5), 1e-4)

    def test_ambiguity_from_accuracy_floor(self):
        # pair 1e-8 apart: the iteration converges but scatters the pair,
        # so the Newton correction exceeds the requested tolerance
        with pytest.raises(ToleranceAmbiguity):
            reduced_group(self._tight_pair_curve(8), 1e-9)
