"""Numeric branch-permutation oracle for reduced symmetry groups."""

import math
import random
from collections import Counter
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperinv import oracle
from hyperinv.curve import transform
from hyperinv.errors import (
    ExcludedLocusPoint,
    HyperinvError,
    NonConvergence,
    SingularOutput,
    ToleranceAmbiguity,
    UnknownSignature,
)
from hyperinv.invariants import classify_genus2, dihedral_from_normal, locus_eval
from hyperinv.moduli import rational_model
from hyperinv.moebius import INFINITY
from hyperinv.oracle import (
    NumericGroup,
    has_klein_subgroup,
    label_from_signature,
    reduced_group,
)
from hyperinv.poly import Poly, numeric_roots
from hyperinv.exact import Rational

from conftest import (
    CUBIC_MIDDLE,
    EVEN_CHAIN,
    QUINTIC,
    SEXTIC_MINUS_X,
    SEXTIC_PLUS_ONE,
    curve,
    random_moebius,
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


# --- reference: the chordal distance, matcher, separation check and root
# check the oracle used before it lifted points to the unit sphere and
# evaluated roots over the Gaussian integers.
# reduced_group must return what this returns, or raise the same type.

def _chordal(z, w) -> float:
    """Distance on the Riemann sphere; finite even when a point is infinite."""
    if z is INFINITY and w is INFINITY:
        return 0.0
    if z is INFINITY:
        return 2.0 / math.sqrt(1.0 + abs(w) ** 2)
    if w is INFINITY:
        return 2.0 / math.sqrt(1.0 + abs(z) ** 2)
    return 2.0 * abs(z - w) / math.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


def _reference_match(m, branch, tol):
    perm = []
    for z in branch:
        w = oracle._apply(m, z)
        best, best_j, second = None, None, None
        for j, target in enumerate(branch):
            dist = _chordal(w, target)
            if best is None or dist < best:
                best, second, best_j = dist, best, j
            elif second is None or dist < second:
                second = dist
        if best > tol:
            return None
        if second is not None and second <= tol:
            raise ToleranceAmbiguity(
                f"image point {w} matches two branch points within {tol}"
            )
        perm.append(best_j)
    if len(set(perm)) != len(perm):
        return None
    return tuple(perm)


def _exact_eval(coeffs, zr, zi):
    re = im = Rational(0)
    for c in reversed(coeffs):
        re, im = re * zr - im * zi, re * zi + im * zr
        re += c
    return re, im


def _reference_magnitudes(F, z):
    """|F(z)| and |F'(z)| as the reference check rounded them."""
    zr, zi = Rational(z.real), Rational(z.imag)
    fr, fi = _exact_eval(F.coeffs, zr, zi)
    gr, gi = _exact_eval(F.derivative().coeffs, zr, zi)
    return math.hypot(float(fr), float(fi)), math.hypot(float(gr), float(gi))


def _magnitudes(F, z):
    """|F(z)| and |F'(z)| as reduced_group's root check rounds them."""
    ints, content = F.integer_model()
    dints = [j * c for j, c in enumerate(ints)][1:]
    a, b, k = oracle._dyadic(z)
    return (oracle._exact_magnitude(ints, content, a, b, k),
            oracle._exact_magnitude(dints, content, a, b, k))


def _reference_reduced_group(c, tol):
    branch = list(numeric_roots(c.F))
    if all(isinstance(x, Rational) for x in c.F.coeffs):
        for z in branch:
            fmag, gmag = _reference_magnitudes(c.F, z)
            if gmag == 0.0 or fmag > tol * gmag:
                raise ToleranceAmbiguity("branch points are not resolved at this tolerance")
    if c.infinite_branch:
        branch.append(INFINITY)
    n = len(branch)
    for i in range(n):
        for j in range(i + 1, n):
            if _chordal(branch[i], branch[j]) <= 10.0 * tol:
                raise ToleranceAmbiguity("branch points are not resolved at this tolerance")
    src = oracle._to_zero_one_inf(*branch[:3])
    perms = set()
    for dst in permutations(range(n), 3):
        m = oracle._triple_map(src, tuple(branch[k] for k in dst))
        perm = _reference_match(m, branch, tol)
        if perm is not None:
            perms.add(perm)
    identity = tuple(range(n))
    if identity not in perms:
        raise ToleranceAmbiguity("identity symmetry not recovered")
    for p in perms:
        if tuple(p.index(i) for i in range(n)) not in perms:
            raise ToleranceAmbiguity("permutation set is not closed under inverse")
        for q in perms:
            if tuple(p[q[i]] for i in range(n)) not in perms:
                raise ToleranceAmbiguity("permutation set is not closed under composition")
    elements = tuple(sorted(perms))
    return elements, len(elements), tuple(sorted(oracle._perm_order(p) for p in elements))


def _outcome(run, c, tol):
    try:
        grp = run(c, tol)
    except (ToleranceAmbiguity, NonConvergence) as exc:
        return type(exc)
    if isinstance(grp, NumericGroup):
        return grp.elements, grp.order, grp.element_orders
    return grp


@lru_cache(maxsize=None)
def _reference_corpus():
    """250 random square-free curves of degree 5-10, then 40 moved copies
    each of X^6 - X, X^6 + X^3 + 1, X^5 - X and X^6 + 1."""
    rng = random.Random(20261018)
    curves = []
    while len(curves) < 250:
        deg = rng.randint(5, 10)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-2, -1, 1, 3))]
        try:
            curves.append(curve(coeffs))
        except HyperinvError:
            continue  # repeated root
    for base in (SEXTIC_MINUS_X, [1, 0, 0, 1, 0, 0, 1], QUINTIC, SEXTIC_PLUS_ONE):
        done = 0
        while done < 40:
            try:
                moved, _ = transform(curve(base), random_moebius(rng, -3, 3))
            except HyperinvError:
                continue  # the map collapsed the branch divisor
            curves.append(moved)
            done += 1
    return tuple(curves)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("tol, errors", [
        (1e-4, {NonConvergence}),
        (1e-9, {NonConvergence}),
        (1e-12, {NonConvergence, ToleranceAmbiguity}),
    ])
    def test_same_group_or_error_as_reference(self, tol, errors):
        seen = set()
        for c in _reference_corpus():
            want = _outcome(_reference_reduced_group, c, tol)
            assert _outcome(reduced_group, c, tol) == want, (c.F, tol)
            seen.add(want if isinstance(want, type) else want[1])
        # the corpus reaches every group order of the moved curves and the
        # errors expected at this tolerance
        assert {1, 5, 6, 12, 24} | errors <= seen


# ascending coefficients 1/3 - 2X + 5/2 X^3 + X^4 - 7/4 X^6
_RATIONAL_SEXTIC = Poly([Rational(1, 3), -2, 0, Rational(5, 2), 1, 0, Rational(-7, 4)])


class TestExactMagnitudes:
    @pytest.mark.parametrize("z", [
        complex(1.5, 0.0),  # zero imaginary part
        complex(-0.7, -0.0),
        0j,  # a zero root
        complex(0.0, -2.25),
        complex(3.0, 2.0 ** -40),  # parts with different binary exponents
        complex(2.0 ** -30 * 3, 1e5),
        complex(0.1, 0.7),
    ])
    def test_bit_identical_to_rational_horner(self, z):
        assert _magnitudes(_RATIONAL_SEXTIC, z) == _reference_magnitudes(_RATIONAL_SEXTIC, z)

    def test_bit_identical_at_computed_roots(self):
        for F in (_RATIONAL_SEXTIC, curve(QUINTIC).F, curve([2, 0, 8, 0, 16, 0, 16]).F):
            for z in numeric_roots(F):
                assert _magnitudes(F, z) == _reference_magnitudes(F, z)

    @pytest.mark.parametrize("z", [complex(1.5, 0.0), 0j, complex(3.0, 2.0 ** -40),
                                   complex(-2.0 ** -1074, 2.0 ** 60)])
    def test_dyadic_form_is_exact(self, z):
        a, b, k = oracle._dyadic(z)
        assert Rational(a, 2 ** k) == Rational(z.real)
        assert Rational(b, 2 ** k) == Rational(z.imag)


_LOCUS_ENTRY = st.builds(Rational, st.integers(-6, 6), st.integers(1, 4))


class TestMinusBranchLocus:
    """Random points of the minus branch, through rational_model."""

    @settings(max_examples=60, deadline=5000, derandomize=True, database=None)
    @given(g=st.integers(2, 6), data=st.data())
    def test_oracle_group_of_the_model(self, g, data):
        a = data.draw(st.lists(_LOCUS_ENTRY, min_size=g - 1, max_size=g - 1))
        a.append(a[0])  # a_g = a_1 puts the point on the minus branch
        assume(a[0] != 0)
        u = dihedral_from_normal(a)
        assert locus_eval(u)[0] == 0
        try:
            model = rational_model(u)
        except SingularOutput:
            assume(False)
        grp = reduced_group(model.curve)
        # the even model's X -> -X and the lifted involution commute
        assert has_klein_subgroup(grp)
        if g == 2:
            try:
                want = classify_genus2(u)
            except ExcludedLocusPoint:
                return
            assert label_from_signature(2, grp) == want
