"""Dihedral invariants, locus factors, and the classification tables."""

import random
import signal
from contextlib import contextmanager

import pytest

from hyperinv.curve import transform
from hyperinv.errors import (
    ExcludedLocusPoint,
    HyperinvError,
    SearchInconclusive,
    ToleranceAmbiguity,
    ZeroEndCoefficient,
)
from hyperinv.exact import QuadExt
from hyperinv.invariants import (
    DihedralInvariants,
    apply_dihedral_action,
    canonicalize_invariants,
    classify,
    classify_genus2,
    cover_residual,
    dihedral_from_even,
    dihedral_from_normal,
    invariants_of,
    jacobian_det,
    locus_eval,
    scale_action,
    swap_action,
)
from hyperinv.poly import Poly, variable
from hyperinv.exact import Rational
from hyperinv.moebius import MoebiusMap
from hyperinv.symmetry import even_model

from conftest import (
    CUBIC_MIDDLE,
    QUINTIC,
    SEXTIC_MINUS_X,
    SEXTIC_PLUS_ONE,
    SLICE_15,
    SLICE_MINUS_5,
    curve,
    random_normal_form,
)


def _u_reference(a):
    """Direct transcription of the defining sums, kept separate on purpose."""
    g = len(a)
    a1, ag = a[0], a[-1]
    out = []
    for i in range(1, g + 1):
        m = g - i + 1
        out.append(a1**m * a[i - 1] + ag**m * a[g - i])
    return tuple(out)


class TestDihedralFromNormal:
    def test_matches_reference_formula(self):
        rng = random.Random(53)
        for g in (2, 3, 4, 5):
            for _ in range(15):
                a = tuple(Rational(rng.randint(-9, 9)) for _ in range(g))
                u = dihedral_from_normal(a)
                assert u.u == _u_reference(a)
                assert u.genus == g

    def test_first_and_last_shapes(self):
        a = (Rational(2), Rational(3))  # genus 2
        u = dihedral_from_normal(a)
        assert u.u[0] == 2**3 + 3**3          # a1^(g+1) + ag^(g+1)
        assert u.u[-1] == 2 * 2 * 3           # 2 a1 ag

    def test_genus_too_small(self):
        with pytest.raises(ValueError):
            dihedral_from_normal((Rational(1),))

    def test_iterable_protocol(self):
        u = dihedral_from_normal((1, 2, 3))
        assert tuple(u) == u.u
        assert not u.is_zero()
        assert dihedral_from_normal((0, 0)).is_zero()


class TestDihedralFromEven:
    def test_consistent_with_normal_form(self):
        rng = random.Random(59)
        for g in (2, 3, 4):
            a = tuple(Rational(rng.randint(1, 9)) for _ in range(g))
            b = (Rational(1),) + a + (Rational(1),)
            assert dihedral_from_even(b).u == dihedral_from_normal(a).u

    def test_scaling_invariance_builtin(self):
        # dividing out the end coefficients is part of the definition
        b = (Rational(3), Rational(6), Rational(9), Rational(3))
        a_norm = (Rational(2), Rational(3))  # after X-scaling to make ends 1
        got = dihedral_from_even(b)
        assert got.genus == 2

    def test_zero_end_rejected(self):
        with pytest.raises(ZeroEndCoefficient):
            dihedral_from_even((0, 1, 1, 1))
        with pytest.raises(ZeroEndCoefficient):
            dihedral_from_even((1, 1, 1, 0))


class TestActions:
    def test_swap_invariance(self):
        rng = random.Random(61)
        for g in (2, 3, 4, 5):
            for _ in range(10):
                a = tuple(Rational(rng.randint(-9, 9)) for _ in range(g))
                assert dihedral_from_normal(swap_action(a)).u == dihedral_from_normal(a).u

    def test_scale_invariance(self):
        rng = random.Random(67)
        for g in (2, 3, 4):
            for _ in range(10):
                b = tuple(Rational(rng.randint(1, 9)) for _ in range(g + 2))
                t = Rational(rng.randint(1, 9), rng.randint(1, 9))
                s = Rational(rng.randint(1, 9), rng.randint(1, 9))
                scaled = scale_action(b, t, s)
                assert dihedral_from_even(scaled).u == dihedral_from_even(b).u

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            scale_action((1, 1, 1, 1), 0, 1)
        with pytest.raises(ValueError):
            scale_action((1, 1, 1, 1), 1, 0)

    def test_apply_dihedral_action_dispatch(self):
        b = (Rational(1), Rational(2), Rational(3), Rational(4))
        assert apply_dihedral_action(b, "swap") == b[::-1]
        assert apply_dihedral_action(b, ("scale", 2, 3)) == scale_action(b, 2, 3)
        with pytest.raises(ValueError):
            apply_dihedral_action(b, "rotate")


class TestCoverResidual:
    def test_vanishes_identically(self):
        rng = random.Random(71)
        for g in (2, 3, 4, 5, 6):
            for _ in range(10):
                a = tuple(Rational(rng.randint(-9, 9)) for _ in range(g))
                if a[0] == 0 and a[-1] == 0:
                    continue
                assert cover_residual(a) == 0

    def test_detects_wrong_invariants(self):
        a = (Rational(2), Rational(3))
        u = dihedral_from_normal(a)
        wrong = DihedralInvariants((u.u[0] + 1,) + u.u[1:], u.genus)
        assert cover_residual(a, wrong) != 0


class TestLocusFactors:
    def test_minus_factor_is_a_square_expression(self):
        rng = random.Random(73)
        for g in (2, 3, 4, 5):
            for _ in range(10):
                a = tuple(Rational(rng.randint(-9, 9)) for _ in range(g))
                u = dihedral_from_normal(a)
                minus, plus = locus_eval(u)
                A = a[0] ** (g + 1)
                B = a[-1] ** (g + 1)
                assert minus == 2 ** (g - 1) * (A - B) ** 2
                assert plus == 2 ** (g - 1) * (A * A + 6 * A * B + B * B)

    def test_symmetric_slice_lands_on_minus(self):
        u = dihedral_from_normal((Rational(5), Rational(3), Rational(5)))
        minus, _ = locus_eval(u)
        assert minus == 0


class TestJacobian:
    def test_symbolic_genus2_determinant(self):
        # outer variable: a1; inner variable: a2 (nested Poly coefficients)
        inner_zero = Poly([])
        inner_one = Poly([Rational(1)])
        a2s = Poly([Poly([Rational(0), Rational(1)])])  # constant in a1, linear in a2
        a1s = Poly([inner_zero, inner_one])             # linear in a1
        det = jacobian_det((a1s, a2s))
        want = (a1s**3 - a2s**3).scale(Rational(6))
        assert det == want

    def test_symbolic_minus_factor_identity(self):
        inner_one = Poly([Rational(1)])
        a2s = Poly([Poly([Rational(0), Rational(1)])])
        a1s = Poly([Poly([]), inner_one])
        u = dihedral_from_normal((a1s, a2s))
        minus = u.u[0] * u.u[0] * 2 - u.u[1] ** 3
        want = ((a1s**3 - a2s**3) ** 2).scale(Rational(2))
        assert minus == want

    def test_numeric_agreement(self):
        rng = random.Random(79)
        for _ in range(20):
            a1 = Rational(rng.randint(-9, 9))
            a2 = Rational(rng.randint(-9, 9))
            assert jacobian_det((a1, a2)) == 6 * (a1**3 - a2**3)


class TestClassifyGenus2Table:
    def test_special_points(self):
        assert classify_genus2((0, 0)).name == "Z3⋊D8"
        assert classify_genus2((6750, 450)).name == "Z3⋊D8"
        assert classify_genus2((0, 0)).reduced_order == 12
        assert classify_genus2((-250, 50)).name == "GL2(3)"
        assert classify_genus2((-250, 50)).reduced_order == 24

    def test_sign_partners_are_plain_d8(self):
        # distinct moduli points from the sign flip; both lie on the order-4
        # curve only, which the numeric oracle confirms (reduced order 4)
        assert classify_genus2((-6750, 450)).name == "D8"
        assert classify_genus2((250, 50)).name == "D8"

    def test_d12_curve(self):
        assert classify_genus2((Rational(909, 4), 4)).name == "D12"
        assert classify_genus2((3006, -126)).name == "D12"

    def test_d8_curve(self):
        lbl = classify_genus2((16, 8))
        assert lbl.name == "D8" and lbl.reduced_order == 4

    def test_excluded_points(self):
        for pt in ((2, 2), (-2, 2), (54, 18), (-54, 18)):
            with pytest.raises(ExcludedLocusPoint):
                classify_genus2(pt)

    def test_generic_v4(self):
        lbl = classify_genus2((1, 1))
        assert lbl.name == "V4" and lbl.reduced_order == 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classify_genus2((1, 2, 3))
        with pytest.raises(ValueError):
            classify_genus2((QuadExt(0, 1, 2), 1))


class TestCanonicalize:
    def test_even_genus_passthrough(self):
        u = DihedralInvariants((Rational(3), Rational(-5)), 2)
        assert canonicalize_invariants(u) is u

    def test_off_locus_passthrough(self):
        u = DihedralInvariants((Rational(1), Rational(2), Rational(3)), 3)
        assert canonicalize_invariants(u) is u

    def test_plus_locus_sign_fixed(self):
        # genus 3: plus = 4 u1^2 + u3^4 vanishes only at u1 = u3 = 0 over Q,
        # so build a QuadExt point: u3 = sqrt(-2 u1^2) needs u3^4 = 4 u1^4...
        # use u1 chosen so that the plus factor vanishes with rational u3:
        # 4 u1^2 = -u3^4 has no nonzero real solutions, so verify the
        # passthrough on a real tuple and the flip on a crafted complex one.
        u3 = QuadExt(0, 1, -2)          # u3^2 = -2, u3^4 = 4
        u = DihedralInvariants((Rational(1), Rational(0), -u3), 3)
        # plus factor: 4*1 + (-u3)^4 = 4 + 4 != 0 -> passthrough expected
        got = canonicalize_invariants(u)
        assert got is u


class TestClassifyIntegration:
    def test_fixture_labels(self):
        assert classify(curve(SEXTIC_PLUS_ONE)).label.name == "Z3⋊D8"
        assert classify(curve(SLICE_15)).label.name == "Z3⋊D8"
        assert classify(curve(QUINTIC)).label.name == "GL2(3)"
        assert classify(curve(CUBIC_MIDDLE)).label.name == "D12"
        # a1 = a2 = -5 gives u = (-250, 50), the octahedral point
        assert classify(curve(SLICE_MINUS_5)).label.name == "GL2(3)"

    def test_fixture_invariants(self):
        assert classify(curve(SLICE_15)).invariants.u == (6750, 450)
        assert classify(curve(QUINTIC)).invariants.u == (-250, 50)
        assert classify(curve(SEXTIC_PLUS_ONE)).invariants.u == (0, 0)

    def test_degenerate_zero_flag(self):
        r = classify(curve(SEXTIC_PLUS_ONE))
        assert "u-zero-degenerate" in r.flags

    def test_genus3_symmetric_slice_involution_lift(self):
        # X^8 + 2X^6 + 5X^4 + 2X^2 + 1: a1 = ag -> the minus factor vanishes
        c = curve([1, 0, 2, 0, 5, 0, 2, 0, 1])
        r = classify(c)
        assert r.label.name == "V4"
        assert r.label.lift_flag == "involution-lift"
        assert r.locus[0] == 0

    def test_genus3_generic_no_lift(self):
        c = curve([1, 0, 3, 0, 5, 0, 2, 0, 1])
        r = classify(c)
        assert r.label.name == "V4"
        assert r.label.lift_flag is None
        assert r.locus[0] != 0 and r.locus[1] != 0

    def test_no_usable_involution_names_genus_and_count(self, monkeypatch):
        import hyperinv.symmetry as symmetry

        search = symmetry.detect_involutions
        monkeypatch.setattr(symmetry, "detect_involutions", lambda c: [
            symmetry.InvolutionCertificate(t.map, t.lam, t.fixed_points, True)
            for t in search(c)])
        with pytest.raises(SearchInconclusive,
                           match=r"none is usable for an even model \(genus 2, 7 certificates\)"):
            classify(curve(SEXTIC_PLUS_ONE))

    def test_z10_fallback(self):
        r = classify(curve(SEXTIC_MINUS_X))
        assert r.label.name == "Z10"
        assert r.invariants is None
        assert "no-involution-found" in r.flags

    def test_z10_fallback_needs_exact_i2_zero(self):
        # 1 + X^5 and its moved copy have I2 = 0, as the Z10 point must
        assert classify(curve([1, 0, 0, 0, 0, 1])).label.name == "Z10"
        moved = transform(curve(SEXTIC_MINUS_X), MoebiusMap(2, 1, 1, 3))[0]
        assert classify(moved).label.name == "Z10"
        # X^6 + 10^k X^5 + 1 lies near infinity, where the oracle's tolerance
        # admits an approximate Z5, but I2 = -240 there
        for k in (10, 15):
            with pytest.raises(ToleranceAmbiguity, match=r"fallback.*I2 = -240 is nonzero"):
                classify(curve([1, 0, 0, 0, 0, 10**k, 1]))

    def test_genus3_no_involution_reports_candidates(self):
        c = curve([1, 1, 0, 0, 0, 0, 0, 0, 1])  # X^8 + X + 1
        r = classify(c)
        assert r.label.name == "Z2"
        assert r.invariants is None
        assert tuple(r.candidate_orders) == (3, 4, 7)

    def test_invariants_of_stops_before_labeling(self):
        r = invariants_of(curve(SLICE_15))
        assert r.label is None
        assert r.invariants.u == (6750, 450)
        assert r.model_coeffs is not None
        assert r.model_map is not None

    def test_classification_unpacks_as_pair(self):
        u, label = classify(curve(SLICE_15))
        assert u.u == (6750, 450)
        assert label.name == "Z3⋊D8"


@contextmanager
def _time_budget(seconds):
    """Fail the enclosed block once it runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _v4_genus3_curve():
    # A V4 of reduced involutions, all usable; their fixed points lie over
    # Q(sqrt 2), Q(sqrt 7) and Q(sqrt -14).
    x = variable()
    F = ((x - 5) * (5 * x - 2) * (2 * x - 13) * (13 * x - 4)
         * (x - 4) * (2 * x - 1) * (x - 10) * (5 * x - 1))
    return curve(F.coeffs)


class TestCertificateRanking:
    def test_real_field_before_imaginary_then_least_u(self):
        c = _v4_genus3_curve()
        r = classify(c)
        by_radicand = {}
        for cert in r.certificates:
            b, _ = even_model(c, cert)
            by_radicand[cert.fixed_points[0].d] = canonicalize_invariants(
                dihedral_from_even(b)).u
        assert sorted(by_radicand) == [-14, 2, 7]
        # Q(sqrt -14) has the least u but is imaginary; Q(sqrt 2) beats Q(sqrt 7) on u
        assert min(by_radicand.values()) == by_radicand[-14]
        assert r.invariants.u == by_radicand[2] == (
            Rational(693627383151601690829312, 1083924838267604688481),
            Rational(9668213979488543424, 41816474606211361),
            Rational(1177817798432, 32923013809),
        )

    def test_choice_survives_large_coordinate_changes(self):
        # moved copies carry square prime factors past the radicand trial
        # bound, so a rank read off the stored radicand would move here
        c = _v4_genus3_curve()
        base = classify(c).invariants.u
        rng = random.Random(2024)
        done = 0
        while done < 8:
            m = MoebiusMap(*(rng.randint(-3000, 3000) for _ in range(4)))
            try:
                moved, _ = transform(c, m)
            except HyperinvError:
                continue  # singular draw
            assert classify(moved).invariants.u == base, m
            done += 1

    def test_huge_coefficient_classified_in_polynomial_time(self):
        # Y^2 = X^6 + 5X^3 + P^3 with P = 10^20 + 39 is a D12 curve whose
        # certificate radicands carry P; ranking must not factor them
        P = 10**20 + 39
        with _time_budget(20):
            r = classify(curve([P**3, 0, 0, 5, 0, 0, 1]))
        assert r.label.name == "D12"
