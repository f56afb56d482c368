"""Dihedral invariants, locus factors, and the classification tables."""

import random
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from hyperinv.curve import to_even_degree, transform
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
from hyperinv.poly import Poly, _coerce_coeff, variable
from hyperinv.exact import Rational
from hyperinv.moebius import MoebiusMap
from hyperinv.symmetry import detect_involutions, even_model

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
        assert got.u == dihedral_from_normal(a_norm).u == (35, 12)

    def test_zero_end_rejected(self):
        with pytest.raises(ZeroEndCoefficient):
            dihedral_from_even((0, 1, 1, 1))
        with pytest.raises(ZeroEndCoefficient):
            dihedral_from_even((1, 1, 1, 0))
        with pytest.raises(ZeroEndCoefficient):
            dihedral_from_even((0, QuadExt(1, 1, 2), 1, QuadExt(0, 3, 2)))
        with pytest.raises(ZeroEndCoefficient):
            dihedral_from_even((QuadExt(2, -1, -1), 0, 0, 0, Rational(0)))


def _reference_dihedral_from_even(b):
    """The field formula dihedral_from_even evaluated before it cleared b to ints.

        u_i = b_1^m b_i / (b_(g+1) b_0^m) + b_g^m b_(g-i+1) / (b_(g+1)^m b_0)
    """
    b = tuple(_coerce_coeff(x) for x in b)
    g = len(b) - 2
    b0, btop, b1, bg = b[0], b[g + 1], b[1], b[g]
    u = []
    for i in range(1, g + 1):
        m = g - i + 1
        first = b1**m * b[i] / (btop * b0**m)
        second = bg**m * b[g - i + 1] / (btop**m * b0)
        u.append(first + second)
    return DihedralInvariants(tuple(u), g)


def _even_models(coeffs):
    """The even model of every usable involution certificate of a curve."""
    c, _ = to_even_degree(curve(coeffs))
    return [even_model(c, t)[0] for t in detect_involutions(c)
            if not t.fixes_branch_points and t.fixed_points is not None]


def _orbit_product(rng, orbits):
    """Integer F whose roots come in orbits {t, -1/t}: X -> -1/X fixes +-sqrt(-1)."""
    ts = set()
    while len(ts) < orbits:
        t = Rational(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))
        ts.add(t)
    F = Poly([1])
    for t in ts:
        p, q = t.numerator, t.denominator
        F = F * Poly([-p * q, q * q - p * p, p * q])  # (qX - p)(pX + q)
    return [int(v) for v in F.coeffs]


def _random_scalar(rng, radicand, zero_chance=0.0):
    if rng.random() < zero_chance:
        return Rational(0)
    while True:
        x = Rational(rng.randint(-40, 40), rng.randint(1, 9))
        y = Rational(rng.randint(-9, 9), rng.randint(1, 5))
        if radicand is not None and rng.random() < 0.7:
            v = QuadExt(x, y, radicand)
        else:
            v = x
        if v != 0:
            return v


class TestIntegerDihedralFromEven:
    # dihedral_from_even clears b to int pairs over Z[sqrt D] and divides
    # once per u_i; it must give the field formula's values, by repr

    @staticmethod
    def same(b):
        assert repr(dihedral_from_even(b)) == repr(_reference_dihedral_from_even(b)), b

    def test_corpus_even_models(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        models = [b for name in ("coordchange", "bigcoeff")
                  for item in workloads.WORKLOADS[name]().items
                  for b in _even_models(item["input"])]
        assert len(models) > 140
        assert any(isinstance(v, QuadExt) for b in models for v in b)
        for b in models:
            self.same(b)

    def test_imaginary_even_models(self):
        # products of orbits {t, -1/t}: their even models lie over Q(sqrt -1)
        b = classify(curve([24, 140, -126, -595, 126, 140, -24])).model_coeffs
        assert {v.d for v in b} == {-1}
        self.same(b)
        rng = random.Random(61)
        imaginary = 0
        for _ in range(40):
            coeffs = _orbit_product(rng, rng.choice([3, 3, 4]))
            try:
                models = _even_models(coeffs)
            except HyperinvError:
                continue  # a repeated root
            for b in models:
                imaginary += any(isinstance(v, QuadExt) and v.d < 0 for v in b)
                self.same(b)
        assert imaginary >= 20

    def test_random_even_models(self):
        rng = random.Random(67)
        for radicand in (None, 2, 5, 13, -1, -3, -7):
            for _ in range(40):
                g = rng.randint(2, 5)
                b = ([_random_scalar(rng, radicand)]
                     + [_random_scalar(rng, radicand, zero_chance=0.3) for _ in range(g)]
                     + [_random_scalar(rng, radicand)])
                if rng.random() < 0.5:
                    b[0], b[-1] = -b[0], -b[-1]
                self.same(tuple(b))
        self.same((-2, 0, 7, 0, 3))  # plain ints


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
