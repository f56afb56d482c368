"""Exact scalar layer: rational coercion, square roots, quadratic extensions."""

from fractions import Fraction

import pytest

from hyperinv.errors import RadicandMismatch
from hyperinv.exact import (
    QuadExt,
    collapse,
    is_square,
    rat,
    scalar_to_complex,
    sqrt_exact,
    sqrt_in_field,
)
from hyperinv._kernel import Rational


class TestRat:
    def test_int_and_string_forms(self):
        assert rat(7) == 7
        assert rat("3/4") == Rational(3, 4)
        assert rat("-12") == -12
        assert rat(Rational(5, 6)) == Rational(5, 6)

    def test_fraction_duck_typing(self):
        assert rat(Fraction(22, 7)) == Rational(22, 7)
        assert isinstance(rat(Fraction(22, 7)), Rational)

    def test_rational_quadext_collapses(self):
        q = QuadExt(Rational(5, 2), 0, 2)
        assert rat(q) == Rational(5, 2)

    def test_irrational_quadext_rejected(self):
        with pytest.raises(ValueError):
            rat(QuadExt(1, 1, 2))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            rat(object())


class TestSqrtExact:
    def test_perfect_squares(self):
        assert sqrt_exact(49) == 7
        assert sqrt_exact(Rational(9, 16)) == Rational(3, 4)
        assert sqrt_exact(0) == 0

    def test_non_squares(self):
        assert sqrt_exact(2) is None
        assert sqrt_exact(Rational(1, 3)) is None

    def test_negative(self):
        assert sqrt_exact(-4) is None

    def test_huge_values_stay_exact(self):
        n = (10**40 + 3) ** 2
        assert sqrt_exact(n) == 10**40 + 3
        assert sqrt_exact(n + 1) is None

    def test_is_square(self):
        assert is_square(Rational(4, 9))
        assert not is_square(Rational(4, 7))


class TestQuadExt:
    def test_square_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 4)
        with pytest.raises(ValueError):
            QuadExt(1, 1, Rational(9, 25))

    def test_zero_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 0)

    def test_norm_and_conjugate(self):
        x = QuadExt(3, 2, 5)  # 3 + 2*sqrt(5)
        assert x.norm() == 9 - 4 * 5
        assert x.conj() == QuadExt(3, -2, 5)
        assert x * x.conj() == x.norm()

    def test_arithmetic(self):
        r2 = QuadExt(0, 1, 2)
        assert r2 * r2 == 2
        assert (1 + r2) * (1 - r2) == -1
        assert (1 + r2) ** 2 == QuadExt(3, 2, 2)
        assert (r2 + r2) / 2 == r2
        assert 1 / r2 == QuadExt(0, Rational(1, 2), 2)
        assert 2 / (1 + r2) == QuadExt(-2, 2, 2)

    def test_difference_collapses_to_rational(self):
        x = QuadExt(3, 2, 7)
        y = QuadExt(1, 2, 7)
        d = x - y
        assert isinstance(d, Rational) and d == 2

    def test_negative_power(self):
        x = QuadExt(1, 1, 2)
        assert x ** -2 == 1 / (x * x)
        assert x ** 0 == 1

    def test_radicand_mismatch(self):
        with pytest.raises(RadicandMismatch):
            QuadExt(0, 1, 2) + QuadExt(0, 1, 3)

    def test_same_field_under_another_radicand(self):
        # 1009 is past the square trial-division bound, so 2 * 1009^2 stays
        # as given, yet it names the field Q(sqrt 2)
        x, y = QuadExt(0, 1, 2), QuadExt(0, 1, 2 * 1009 ** 2)
        assert x + y == QuadExt(0, 1010, 2)
        assert x * y == 2018
        assert (y - x) - QuadExt(0, 1008, 2) == 0
        assert QuadExt(0, 1, -2) + QuadExt(0, 1, -2 * 1009 ** 2) == QuadExt(0, 1010, -2)
        with pytest.raises(RadicandMismatch):
            x + QuadExt(0, 1, -2 * 1009 ** 2)

    def test_rational_member_mixes_across_radicands(self):
        rationalish = QuadExt(5, 0, 2)
        assert rationalish + QuadExt(0, 1, 3) == QuadExt(5, 1, 3)

    def test_equality_and_hash_with_rational(self):
        assert QuadExt(Rational(7, 3), 0, 5) == Rational(7, 3)
        assert hash(QuadExt(Rational(7, 3), 0, 5)) == hash(Rational(7, 3))
        assert QuadExt(1, 1, 2) != QuadExt(1, -1, 2)

    def test_ordering_real_embedding(self):
        r2 = QuadExt(0, 1, 2)
        assert r2 > 1
        assert r2 < Rational(3, 2)
        assert 1 - r2 < 0
        assert QuadExt(-1, 1, 2) > 0   # sqrt(2) > 1
        assert QuadExt(2, -1, 2) > 0   # 2 > sqrt(2)
        assert QuadExt(1, -1, 2) < 0   # 1 < sqrt(2)

    def test_sign(self):
        assert QuadExt(0, 1, 2).sign() == 1
        assert QuadExt(0, -1, 2).sign() == -1
        assert QuadExt(3, -2, 2).sign() == 1   # 3 > 2*sqrt(2)
        assert QuadExt(-3, 2, 2).sign() == -1

    def test_sign_rejected_for_complex_radicand(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, -2).sign()

    def test_float_and_complex_conversion(self):
        assert float(QuadExt(1, 1, 2)) == pytest.approx(1 + 2 ** 0.5)
        z = complex(QuadExt(1, 2, -3))
        assert z == pytest.approx(complex(1, 2 * 3 ** 0.5))
        with pytest.raises(ValueError):
            float(QuadExt(1, 1, -2))

    def test_str(self):
        assert str(QuadExt(1, 2, 5)) == "1 + 2*sqrt(5)"
        assert str(QuadExt(Rational(1, 2), 0, 5)) == "1/2"


class TestCollapse:
    def test_collapse(self):
        assert collapse(QuadExt(4, 0, 3)) == 4
        assert isinstance(collapse(QuadExt(4, 0, 3)), Rational)
        x = QuadExt(4, 1, 3)
        assert collapse(x) is x
        assert collapse(Rational(2)) == 2


class TestSqrtInField:
    def test_rational_inputs(self):
        assert sqrt_in_field(Rational(25, 4)) == Rational(5, 2)
        assert sqrt_in_field(3) is None

    def test_classic_nested_root(self):
        # 3 + 2*sqrt(2) = (1 + sqrt(2))^2
        x = QuadExt(3, 2, 2)
        r = sqrt_in_field(x)
        assert r is not None and r * r == x

    def test_rational_square_inside_extension(self):
        assert sqrt_in_field(QuadExt(9, 0, 2)) == 3

    def test_no_root_in_field(self):
        assert sqrt_in_field(QuadExt(0, 1, 2)) is None  # sqrt(sqrt(2))
        assert sqrt_in_field(QuadExt(7, 1, 2)) is None

    def test_random_round_trips(self):
        import random

        rng = random.Random(3)
        for _ in range(40):
            p = Rational(rng.randint(-9, 9))
            q = Rational(rng.randint(-9, 9))
            if p == 0 or q == 0:
                # the square would collapse to a rational, losing the radicand
                continue
            sq = (p + QuadExt(0, q, 7)) ** 2
            r = sqrt_in_field(sq)
            assert r is not None and r * r == sq


class TestScalarToComplex:
    def test_values(self):
        assert scalar_to_complex(Rational(1, 2)) == 0.5 + 0j
        assert scalar_to_complex(QuadExt(0, 1, 4 * 2)) == pytest.approx(8 ** 0.5)
        z = scalar_to_complex(QuadExt(1, 1, -4 * 2))
        assert z == pytest.approx(complex(1, 8 ** 0.5))
