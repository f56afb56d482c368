"""Dense polynomial arithmetic, resultants, and exact root finding."""

import random
from fractions import Fraction
from math import isnan, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

import hyperinv.poly as poly_module
from hyperinv.curve import new_curve, to_even_degree, transform
from hyperinv.errors import BothZero, NonConvergence, ReconstructionInconclusive, ZeroInput
from hyperinv.exact import QuadExt
from hyperinv.moebius import MoebiusMap
from hyperinv.poly import (
    Poly,
    constant,
    det_bareiss,
    gcd,
    is_square_free,
    numeric_roots,
    quad_irrational_roots,
    rational_roots,
    resultant,
    variable,
)
from hyperinv import zz
from hyperinv.poly import _field_gcd
from hyperinv.exact import Rational


def _random_poly(rng, max_deg=6, lo=-9, hi=9):
    deg = rng.randint(0, max_deg)
    coeffs = [Rational(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(deg + 1)]
    return Poly(coeffs)


def sylvester_resultant(p, q):
    """Independent check: resultant as the Sylvester matrix determinant.

    Built over Fraction with plain Gaussian elimination, sharing no code
    with the closed-form resultant under test.
    """
    n, m = p.degree(), q.degree()
    if n < 0 or m < 0:
        return Fraction(0)
    if n == 0:
        return Fraction(p.coeff(0)) ** m
    if m == 0:
        return Fraction(q.coeff(0)) ** n
    size = n + m
    rows = []
    pc = [Fraction(p.coeff(n - i)) for i in range(n + 1)]  # descending
    qc = [Fraction(q.coeff(m - i)) for i in range(m + 1)]
    for i in range(m):
        rows.append([Fraction(0)] * i + pc + [Fraction(0)] * (size - n - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + qc + [Fraction(0)] * (size - m - 1 - i))
    # fraction-free is unnecessary here; exact Gaussian elimination suffices
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def cofactor_det(rows):
    """Independent determinant by cofactor expansion (fine for small sizes)."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = None
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


class TestArithmetic:
    def test_construction_strips_leading_zeros(self):
        assert Poly([1, 2, 0, 0]).degree() == 1
        assert Poly([0, 0]).is_zero()
        assert Poly([]).degree() == float("-inf")

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(60):
            a, b, c = (_random_poly(rng, 4) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + Poly([]) == a
            assert a * Poly([1]) == a
            assert a - a == Poly([])

    def test_scalar_mixing(self):
        x = variable()
        p = 3 * x**2 + Rational(1, 2) * x - 4
        assert p.coeff(2) == 3
        assert p.coeff(1) == Rational(1, 2)
        assert p.coeff(0) == -4
        assert (p - p).is_zero()
        assert constant(5).degree() == 0

    def test_eval_and_call(self):
        p = Poly([1, 0, 1])  # 1 + X^2
        assert p(2) == 5
        assert p.eval(Rational(1, 2)) == Rational(5, 4)
        assert p.eval_complex(1j) == pytest.approx(0)

    def test_shift_and_reverse(self):
        p = Poly([1, 2])
        assert p.shift(2) == Poly([0, 0, 1, 2])
        assert Poly([1, 2, 3]).reverse() == Poly([3, 2, 1])

    def test_pow(self):
        x = variable()
        assert (x + 1) ** 3 == Poly([1, 3, 3, 1])
        assert (x + 1) ** 0 == Poly([1])

    def test_divrem_property_random(self):
        rng = random.Random(13)
        for _ in range(60):
            a = _random_poly(rng, 7)
            b = _random_poly(rng, 4)
            if b.is_zero():
                continue
            q, r = a.divrem(b)
            assert a == q * b + r
            assert r.degree() < b.degree()

    def test_divrem_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Poly([1, 1]).divrem(Poly([]))

    def test_derivative(self):
        p = Poly([5, 4, 3, 2])  # 5 + 4X + 3X^2 + 2X^3
        assert p.derivative() == Poly([4, 6, 6])
        assert constant(3).derivative().is_zero()

    def test_monic(self):
        p = Poly([2, 0, 4])
        assert p.monic() == Poly([Rational(1, 2), 0, 1])

    def test_str(self):
        assert str(Poly([1, 0, 1])) == "X^2 + 1"
        assert str(Poly([])) == "0"


class TestIntegerModel:
    def test_contract(self):
        p = Poly([Rational(1, 2), Rational(3, 4), Rational(-5, 6)])
        ints, content = p.integer_model()
        assert p == Poly(ints).scale(content)
        from math import gcd as igcd
        from functools import reduce

        assert reduce(igcd, (abs(c) for c in ints)) == 1
        assert ints[-1] > 0

    def test_negative_lead_flips(self):
        ints, content = Poly([1, -2]).integer_model()
        assert ints[-1] > 0
        assert Poly(ints).scale(content) == Poly([1, -2])


class TestHomogeneous:
    def test_matches_field_evaluation(self):
        # v^n * c(u/v) over Q(sqrt rad), with cy shorter than cx and forms
        # of degree below n
        rng = random.Random(83)
        for _ in range(200):
            rad = rng.choice((0, -1, 2, -3, 5))
            n = rng.randint(0, 8)
            cx = [rng.randint(-99, 99) for _ in range(rng.randint(1, n + 1))]
            cy = [] if rad == 0 else [rng.randint(-99, 99) for _ in range(rng.randint(0, len(cx)))]
            u = (rng.randint(-10**20, 10**20), 0 if rad == 0 else rng.randint(-9, 9))
            v = (rng.randint(1, 10**6), 0 if rad == 0 else rng.randint(-9, 9))
            got = zz.homogeneous(cx, cy, u, v, n, rad)
            if rad == 0:
                want = sum(c * u[0] ** i * v[0] ** (n - i) for i, c in enumerate(cx))
                assert got == (want, 0)
                continue
            U, V = (QuadExt(x, y, rad) for x, y in (u, v))
            want = sum((QuadExt(x, y, rad) * U ** i * V ** (n - i)
                        for i, (x, y) in enumerate(zip(cx, cy + [0] * len(cx)))),
                       Rational(0))
            x, y = (want, 0) if isinstance(want, Rational) else (want.a, want.b)
            assert got == (x, y)


class TestGcd:
    def test_both_zero_rejected(self):
        with pytest.raises(BothZero):
            gcd(Poly(), Poly())

    def test_common_factor_recovered(self):
        rng = random.Random(17)
        for _ in range(25):
            h = _random_poly(rng, 3)
            if h.degree() < 1:
                continue
            p = _random_poly(rng, 3)
            q = _random_poly(rng, 3)
            g = gcd(h * p, h * q)
            # gcd is monic and divisible by h up to the gcd of p, q
            _, r = (h.monic()).divrem(g) if g.degree() > h.degree() else g.divrem(h.monic())
            del r
            qt, rem = (h * p).divrem(g)
            assert rem.is_zero()
            qt, rem = (h * q).divrem(g)
            assert rem.is_zero()
            assert g.lead() == 1

    def test_coprime(self):
        assert gcd(Poly([1, 1]), Poly([2, 1])).degree() == 0

    def test_zero_and_constant_inputs(self):
        p = Poly([Rational(1, 2), 3, 2])
        assert gcd(p, Poly()) == p.monic()
        assert gcd(Poly(), p) == p.monic()
        assert gcd(p, Poly([7])) == Poly([1])

    def test_quadext_coefficients_use_field_euclid(self):
        r = QuadExt(1, 1, 2)
        x = variable()
        p = (x - r) * (x - 3)
        q = (x - r) * (x + 5)
        assert gcd(p, q) == x - r

    @settings(max_examples=40, deadline=5000, derandomize=True, database=None)
    @given(st.data())
    def test_integer_gcd_matches_field_euclid(self, data):
        big = st.integers(2 ** 200, 2 ** 210).flatmap(
            lambda v: st.sampled_from([v, -v]))

        def draw_poly(max_deg):
            return Poly(data.draw(st.lists(big, min_size=1, max_size=max_deg + 1)))

        h, p, q = draw_poly(4), draw_poly(4), draw_poly(4)
        a, b = h * p, h * q
        want = _field_gcd(a, b)
        assert gcd(a, b) == want
        assert want.degree() >= h.degree()
        ia, ib = a.integer_model()[0], b.integer_model()[0]
        from_prs = zz.prs_gcd(ia, ib)
        assert Poly(from_prs).monic() == want
        from_heu = zz.heu_gcd(ia, ib)
        assert from_heu is None or from_heu == from_prs

    def test_square_free(self):
        x = variable()
        assert is_square_free((x - 1) * (x + 2))
        assert not is_square_free((x - 1) ** 2 * (x + 2))

    def test_prs_fallback_when_every_evaluation_fails(self, monkeypatch):
        monkeypatch.setattr(zz, "_HEU_TRIES", 0)
        rng = random.Random(37)
        for _ in range(20):
            h, p, q = (_random_poly(rng, 3) for _ in range(3))
            if h.is_zero() or p.is_zero() or q.is_zero():
                continue
            assert gcd(h * p, h * q) == _field_gcd(h * p, h * q)


class TestResultant:
    def test_linear_case_against_sylvester_both_orders(self):
        # univariate integer input: rows of constant int lists
        rng = random.Random(41)
        for _ in range(30):
            lin = [[rng.randint(-9, 9)], [rng.choice([-3, -2, -1, 1, 2, 3])]]
            other = [[rng.randint(-9, 9)] for _ in range(rng.randint(1, 6))]
            other[-1] = [rng.choice([-2, -1, 1, 2])]
            p, q = Poly([r[0] for r in lin]), Poly([r[0] for r in other])
            assert resultant(lin, other).coeff(0) == sylvester_resultant(p, q)
            assert resultant(other, lin).coeff(0) == sylvester_resultant(q, p)

    def test_linear_case_in_z_a_b_specializes(self):
        # Res_b commutes with a -> a0 wherever no leading coefficient vanishes
        rng = random.Random(43)

        def row(deg):
            return [rng.randint(-5, 5) for _ in range(deg + 1)]

        checked = 0
        while checked < 25:
            lin = [row(3), row(2)]
            other = [row(rng.randint(0, 3)) for _ in range(rng.randint(2, 5))]
            a0 = rng.randint(-4, 4)

            def at(rows):
                return Poly([Poly(r).eval(a0) for r in rows])

            p, q = at(lin), at(other)
            if p.degree() != 1 or q.degree() != len(other) - 1:
                continue
            assert resultant(lin, other).eval(a0) == sylvester_resultant(p, q)
            assert resultant(other, lin).eval(a0) == sylvester_resultant(q, p)
            checked += 1

    def test_integer_input_needs_a_linear_argument(self):
        quad = [[1], [0], [1]]
        with pytest.raises(ValueError):
            resultant(quad, quad)
        with pytest.raises(ZeroInput):
            resultant([[0], []], quad)

    def test_shared_root_gives_zero(self):
        # b - 2 and (b - 2)(b + 5) = b^2 + 3b - 10
        assert resultant([[-2], [1]], [[-10], [3], [1]]) == 0

    def test_product_of_evaluations(self):
        # Res_b(b - a, E(b)) = E(a): the product of E over the roots of b - a
        E = [[-7], [0], [3], [1]]
        assert resultant([[0, -1], [1]], E) == Poly([-7, 0, 3, 1])


class TestDetBareiss:
    def test_against_cofactor_oracle(self):
        rng = random.Random(31)
        for size in (1, 2, 3, 4):
            for _ in range(10):
                rows = [
                    [Rational(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(size)]
                    for _ in range(size)
                ]
                assert det_bareiss(rows) == cofactor_det(rows)

    def test_polynomial_entries(self):
        x = variable()
        rows = [[x + 1, constant(2)], [constant(3), x - 1]]
        assert det_bareiss(rows) == (x + 1) * (x - 1) - 6

    def test_singular(self):
        rows = [[Rational(1), Rational(2)], [Rational(2), Rational(4)]]
        assert det_bareiss(rows) == 0


def _divisor_rational_roots(p):
    """Reference rational roots: every +-d/e, d dividing the lowest nonzero
    coefficient of the integer model and e its lead, tried exactly.

    Divisor enumeration is exponential in the bit size of the end
    coefficients, so it serves only small inputs; it shares no code with
    the p-adic lifting under test.
    """
    ints, _ = p.integer_model()
    roots = []
    while ints[0] == 0:
        ints.pop(0)
        roots.append(Rational(0))
    if len(ints) == 1:
        return roots

    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in small]

    work = Poly(ints)
    candidates = {Rational(s * num, den) for num in divisors(ints[0])
                  for den in divisors(ints[-1]) for s in (1, -1)}
    for cand in sorted(candidates):
        if work.eval(cand) != 0:
            continue
        factor = Poly([-cand, 1])
        while True:
            q, r = work.divrem(factor)
            if not r.is_zero():
                break
            roots.append(cand)
            work = q
    return sorted(roots)


# the product of the primes below 200
_PRIMORIAL = prod(q for q in range(2, 200) if all(q % d for d in range(2, q)))


class TestRationalRoots:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroInput):
            rational_roots(Poly())

    def test_planted_roots_with_multiplicity(self):
        x = variable()
        p = (x - 2) ** 2 * (2 * x + 1) * (x**2 + 1)
        roots = rational_roots(p)
        assert roots == sorted([Rational(-1, 2), Rational(2), Rational(2)])

    def test_no_rational_roots(self):
        assert rational_roots(Poly([1, 0, 1])) == []
        assert rational_roots(Poly([2, 0, 0, 1])) == []  # X^3 + 2

    def test_large_coefficients_certified_path(self):
        # end coefficients far too large to enumerate their divisors
        big_prime = 2 ** 61 - 1
        x = variable()
        p = (big_prime * x - 3) * (x - 7) * (x**2 + x + 1)
        roots = rational_roots(p)
        assert roots == sorted([Rational(3, big_prime), Rational(7)])

        q = 10 ** 9 + 7
        p2 = (q * x - 1) * (q * x + 2) * (x - 11)
        assert rational_roots(p2) == sorted(
            [Rational(1, q), Rational(-2, q), Rational(11)]
        )

    def test_extreme_magnitude_spread_recovered_exactly(self):
        # roots 1/big and big span 52 orders of magnitude; the certified
        # path must keep raising its working precision until both resolve
        big = 2 ** 64 * 3 ** 20
        x = variable()
        p = (big * x - 1) * (x - big) * (x**2 + x + 1)
        assert rational_roots(p) == sorted([Rational(1, big), Rational(big)])

    def test_fractional_coefficients(self):
        x = variable()
        p = (x - Rational(3, 7)) * (x + Rational(5, 2))
        assert rational_roots(p) == sorted([Rational(3, 7), Rational(-5, 2)])

    def test_large_coefficients_without_mpmath(self, monkeypatch):
        import mpmath

        def no_floats(*args, **kwargs):
            raise AssertionError("rational roots need no floating point")

        monkeypatch.setattr(mpmath, "polyroots", no_floats)
        self.test_large_coefficients_certified_path()
        self.test_extreme_magnitude_spread_recovered_exactly()

    def test_matches_divisor_reference(self):
        rng = random.Random(8)
        x = variable()
        checked = 0
        while checked < 100:
            p = Poly([rng.randint(1, 30)])
            for _ in range(rng.randint(1, 4)):
                root = Rational(rng.randint(-30, 30), rng.randint(1, 12))
                p = p * (x - root) ** rng.randint(1, 3)
            if rng.random() < 0.5:
                p = p * Poly([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)])
            ints, _ = p.integer_model()
            ends = (next(c for c in ints if c), ints[-1])
            if max(map(abs, ends)) > 10 ** 6:
                continue
            assert rational_roots(p) == _divisor_rational_roots(p)
            checked += 1

    def test_lead_divisible_by_every_small_prime(self):
        # no prime below 200 may serve: each divides the leading coefficient
        x = variable()
        p = (_PRIMORIAL * x - 3) * (x - 5) * (x**2 + x + 1)
        assert rational_roots(p) == sorted([Rational(3, _PRIMORIAL), Rational(5)])

    def test_roots_colliding_mod_every_small_prime(self):
        # 1 and 1 + M are one double root mod each prime below 200
        x = variable()
        p = (x - 1) ** 2 * (x - 1 - _PRIMORIAL) * (x**2 - 2)
        assert rational_roots(p) == [Rational(1), Rational(1), Rational(1 + _PRIMORIAL)]


class TestQuadIrrationalRoots:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroInput):
            quad_irrational_roots(Poly())

    def test_planted_pairs(self):
        x = variable()
        p = (x**2 - 2) * (x**2 - 3) * (2 * x - 1)
        roots = quad_irrational_roots(p)
        rationals = [r for r in roots if isinstance(r, Rational)]
        quads = [r for r in roots if isinstance(r, QuadExt)]
        assert rationals == [Rational(1, 2)]
        assert set(quads) == {
            QuadExt(0, 1, 2),
            QuadExt(0, -1, 2),
            QuadExt(0, 1, 3),
            QuadExt(0, -1, 3),
        }
        for r in roots:
            assert p(r) == 0

    def test_shifted_pair(self):
        x = variable()
        p = x**2 - 2 * x - 1  # roots 1 +- sqrt(2)
        roots = quad_irrational_roots(p)
        assert set(roots) == {QuadExt(1, 1, 2), QuadExt(1, -1, 2)}

    def test_pairs_with_large_leading_coefficients(self):
        # pair sums and products need more than 53 bits to reconstruct
        q1 = Poly([219429, -577341, 457873])
        q2 = Poly([540189, -1141047, 634291])
        roots = quad_irrational_roots(q1 * q2)
        assert len(roots) == 4
        assert all(isinstance(r, QuadExt) for r in roots)
        for r in roots:
            assert q1(r) == 0 or q2(r) == 0

    def test_refinement_failure_names_sizes_and_precision(self, monkeypatch):
        import mpmath

        def no_convergence(*args, **kwargs):
            raise mpmath.libmp.NoConvergence("forced")

        monkeypatch.setattr(mpmath, "polyroots", no_convergence)
        x = variable()
        # digits = 2*1 + 1 + 30 = 33 for lead 1 and Cauchy bound 3; the
        # fourth attempt works at 4*33 + 20 digits
        with pytest.raises(ReconstructionInconclusive,
                           match="degree 2 with 2-bit coefficients, last at 152 digits: forced"):
            quad_irrational_roots(x**2 - 2)

    def test_no_division_over_q(self, monkeypatch):
        # zero roots, a repeated rational root and a repeated irreducible
        # quadratic are all divided out of the integer model in Z[x]
        x = variable()
        p = x**2 * (x - 2) ** 3 * (3 * x + 1) * (x**2 + x + 1) ** 2 * (x**2 - 5)
        rationals = [Rational(-1, 3), Rational(0), Rational(0)] + [Rational(2)] * 3

        def no_divrem(self, other):
            raise AssertionError("Poly.divrem was called")

        monkeypatch.setattr(Poly, "divrem", no_divrem)
        assert rational_roots(p) == rationals
        roots = quad_irrational_roots(p)
        assert roots[:6] == rationals
        w = Rational(-1, 2)
        assert sorted(roots[6:], key=repr) == sorted(
            [QuadExt(w, Rational(1, 2), -3), QuadExt(w, Rational(-1, 2), -3)] * 2
            + [QuadExt(0, 1, 5), QuadExt(0, -1, 5)], key=repr)

    def test_cubic_irrational_factor_ignored(self):
        x = variable()
        p = (x**3 - 2) * (x - 5)
        roots = quad_irrational_roots(p)
        assert roots == [Rational(5)]


def _search_inputs(curves):
    """Every polynomial the involution search hands to quad_irrational_roots."""
    import hyperinv.symmetry as symmetry

    seen, real = [], symmetry.quad_irrational_roots

    def spy(p):
        seen.append(p)
        return real(p)

    symmetry.quad_irrational_roots = spy
    try:
        for c in curves:
            symmetry.detect_involutions(to_even_degree(c)[0])
    finally:
        symmetry.quad_irrational_roots = real
    return seen


def _random_products(rng, count, spreads):
    """Integer polynomials of degree 2..16, products of factors of degree 1..3.

    Each factor's constant term is scaled by up to 10^spread, so the roots
    span many magnitudes and the double-precision kernel often fails.  The
    degree is the lesser of two draws: high degrees stay in, but rarer, as
    the cold start costs most there.
    """
    out = []
    for _ in range(count):
        f, target, spread = Poly([1]), min(rng.randint(2, 16), rng.randint(2, 16)), rng.choice(spreads)
        while f.degree() < target:
            k = min(rng.choice([1, 2, 2, 3]), target - f.degree())
            c0 = (rng.randint(-9, 9) or 1) * 10 ** rng.randint(0, spread)
            f = f * Poly([c0] + [rng.randint(-9, 9) for _ in range(k - 1)] + [rng.randint(1, 9)])
        out.append(f)
    return out


def _close_root_products(rng, count):
    """(q X^2 - p)(q X^2 - p - e), e <= 3: root pairs about e/q apart, some times a quadratic."""
    out = []
    for i in range(count):
        q = rng.randint(10**5, 10**9)
        p = rng.randint(2, 9) * q + rng.randint(1, 5)
        f = Poly([-p, 0, q]) * Poly([-p - rng.randint(1, 3), 0, q])
        if i % 2:
            f = f * Poly([rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)])
        out.append(f)
    return out


class TestSeededRefinement:
    """_certified_roots starts mpmath from the kernel's roots: nothing may move.

    The cold start (kernel forced to fail, so mpmath starts from its own
    default points) is the reference; every answer must match it by repr.
    """

    @staticmethod
    def _answers(polys):
        return [repr(quad_irrational_roots(p)) for p in polys]

    def _check(self, monkeypatch, polys):
        seeded = self._answers(polys)

        def cold(*args):
            raise RuntimeError("kernel off")

        monkeypatch.setattr(poly_module, "durand_kerner", cold)
        assert self._answers(polys) == seeded

    def test_search_cofactor_shapes(self, monkeypatch):
        # the quintic and the D12 sextic moved by integer maps (coordchange's
        # inputs) and X^6 + 5X^3 + P^3 (bigcoeff's)
        rng = random.Random(4040)
        curves = []
        for base in ([0, -1, 0, 0, 0, 1], [1, 0, 0, 4, 0, 0, 1]):
            maps = []
            while len(maps) < 6:
                m = [rng.randint(-5, 5) for _ in range(4)]
                if m[0] * m[3] != m[1] * m[2]:
                    maps.append(MoebiusMap(*m))
            curves += [transform(new_curve(base), m)[0] for m in maps]
        curves += [new_curve([P**3, 0, 0, 5, 0, 0, 1]) for P in (1234, 98765, 10**9 + 7)]
        polys = _search_inputs(curves)
        assert max(p.degree() for p in polys) >= 6
        self._check(monkeypatch, polys)

    def test_random_products_and_magnitude_spreads(self, monkeypatch):
        polys = _random_products(random.Random(20261019), 300, (0, 0, 0, 12, 20))
        kernel, failures = poly_module.durand_kerner, []

        def counting(*args):
            try:
                return kernel(*args)
            except RuntimeError as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(poly_module, "durand_kerner", counting)
        self._check(monkeypatch, polys)
        assert len(failures) >= 10  # mpmath's own start is exercised too

    def test_close_root_pairs(self, monkeypatch):
        self._check(monkeypatch, _close_root_products(random.Random(99), 40))

    @pytest.mark.parametrize("failure", [None, RuntimeError, OverflowError])
    def test_kernel_roots_start_polyroots(self, monkeypatch, failure):
        import mpmath

        starts, real = [], mpmath.polyroots

        def spy(*args, **kwargs):
            starts.append(kwargs["roots_init"])
            return real(*args, **kwargs)

        def failing(*args):
            raise failure("kernel failed")

        monkeypatch.setattr(mpmath, "polyroots", spy)
        if failure:
            monkeypatch.setattr(poly_module, "durand_kerner", failing)
        x = variable()
        assert len(quad_irrational_roots((x**2 - 2) * (x**2 + x + 3))) == 4
        # a failed kernel leaves mpmath its own default start
        assert [s if s is None else len(s) for s in starts] == [None if failure else 4]


class TestNumericRoots:
    def test_ordering_and_residuals(self):
        x = variable()
        p = (x - 1) * (x + 1) * (x - 3) * (x**2 + 4)
        roots = numeric_roots(p)
        assert len(roots) == 5
        keys = [(abs(z), 0) for z in roots]
        assert keys == sorted(keys)
        for z in roots:
            assert abs(p.eval_complex(z)) < 1e-6

    def test_zero_roots_stripped_then_reported(self):
        p = Poly([0, 0, -1, 0, 0, 0, 1])  # X^2 (X^4 - 1)... actually X^6 - X^2
        roots = numeric_roots(p)
        zeros = [z for z in roots if z == 0]
        assert len(zeros) == 2

    def test_kernel_failure_is_non_convergence(self, monkeypatch):
        def stuck(coeffs, tol, max_iter):
            raise RuntimeError(f"no convergence after {max_iter} iterations")

        monkeypatch.setattr(poly_module, "durand_kerner", stuck)
        with pytest.raises(NonConvergence, match="no convergence"):
            numeric_roots(Poly([1, 0, 1]))

    def test_non_finite_residual_is_non_convergence(self, monkeypatch):
        # X^3 + 1 at 1e200 (1 + i) overflows to NaN, which is never above a tolerance
        far = complex(1e200, 1e200)
        monkeypatch.setattr(poly_module, "durand_kerner", lambda coeffs, tol, max_iter: [far] * 3)
        assert isnan(abs(Poly([1, 0, 0, 1]).eval_complex(far)))
        with pytest.raises(NonConvergence, match="nan not within tolerance"):
            numeric_roots(Poly([1, 0, 0, 1]))

    def test_constant_rejected(self):
        with pytest.raises(ZeroInput):
            numeric_roots(Poly([5]))
        with pytest.raises(ZeroInput):
            numeric_roots(Poly([]))
