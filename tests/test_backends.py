"""Kernel backends: selection, solver contract, and parity checks.

The package ships two interchangeable kernels (pure Python and compiled).
These tests pin the selection rule, the root-iteration contract, exact
agreement of the two solvers, and drop-in equivalence of the compiled
rational scalar with fractions.Fraction.  Each kernel module is imported
directly, so both are tested in one process whichever one is active.
"""

import copy
import math
import numbers
import pickle
import random
from fractions import Fraction

import pytest

from hyperinv import exact, poly
from hyperinv._kernel import BACKEND, _pykernel, available_backends

try:
    from hyperinv._kernel import _cykernel
except ImportError:
    _cykernel = None

BACKENDS = available_backends()
KERNELS = {"python": _pykernel, "cython": _cykernel}

needs_cython = pytest.mark.skipif(
    "cython" not in BACKENDS, reason="compiled backend not built"
)


class TestSelection:
    def test_pure_backend_always_available_and_listed_first(self):
        assert BACKENDS[0] == "python"
        assert set(BACKENDS) <= {"python", "cython"}

    def test_active_backend_is_one_of_the_available(self):
        assert BACKEND in BACKENDS

    def test_compiled_kernel_used_when_importable(self):
        assert BACKEND == ("cython" if _cykernel is not None else "python")
        assert exact.Rational is KERNELS[BACKEND].Rational
        assert poly.durand_kerner is KERNELS[BACKEND].durand_kerner

    def test_each_kernel_exports_scalar_type_and_solver(self):
        for name in BACKENDS:
            kernel = KERNELS[name]
            assert callable(kernel.durand_kerner)
            assert kernel.Rational(3, 6) == Fraction(1, 2)


@pytest.mark.parametrize("name", BACKENDS)
class TestRootIteration:
    def test_rejects_non_monic_input(self, name):
        dk = KERNELS[name].durand_kerner
        with pytest.raises(ValueError, match="monic"):
            dk([2.0, 3.0])

    def test_constant_polynomial_has_no_roots(self, name):
        dk = KERNELS[name].durand_kerner
        assert dk([1.0]) == []
        assert dk([]) == []

    def test_linear_root_is_exact(self, name):
        dk = KERNELS[name].durand_kerner
        assert dk([3.5, 1.0]) == [-3.5]
        assert dk([complex(0, -2), 1.0]) == [2j]

    def test_cube_roots_of_unity(self, name):
        dk = KERNELS[name].durand_kerner
        roots = dk([-1.0, 0.0, 0.0, 1.0])
        assert len(roots) == 3
        for z in roots:
            assert abs(z**3 - 1) < 1e-8
        # one real root, one conjugate pair
        reals = [z for z in roots if abs(z.imag) < 1e-8]
        assert len(reals) == 1 and abs(reals[0] - 1) < 1e-8

    def test_iteration_cap_raises(self, name):
        dk = KERNELS[name].durand_kerner
        coeffs = [720.0, -1764.0, 1624.0, -735.0, 175.0, -21.0, 1.0]
        with pytest.raises(RuntimeError, match="no convergence after 1 iterations"):
            dk(coeffs, max_iter=1)


@needs_cython
class TestCrossBackendAgreement:
    """The compiled solver must reproduce the pure one bit for bit.

    repr() of a float is its shortest round-trip form, so comparing reprs
    also distinguishes -0.0 from 0.0.
    """

    def test_integer_root_ladder_matches_exactly(self):
        py_dk = _pykernel.durand_kerner
        cy_dk = _cykernel.durand_kerner
        # (X-1)(X-2)...(X-6), ascending coefficients
        coeffs = [720.0, -1764.0, 1624.0, -735.0, 175.0, -21.0, 1.0]
        expected = py_dk(list(coeffs))
        actual = cy_dk(list(coeffs))
        assert [repr(z) for z in actual] == [repr(z) for z in expected]

    def test_random_complex_corpus_matches_exactly(self):
        py_dk = _pykernel.durand_kerner
        cy_dk = _cykernel.durand_kerner
        rng = random.Random(20260825)
        agreed = 0
        for _ in range(40):
            n = rng.randrange(2, 9)
            coeffs = [
                complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)
            ]
            if coeffs[0] == 0:
                coeffs[0] = complex(1.0, 0.0)
            coeffs.append(1.0)
            try:
                expected = py_dk(list(coeffs))
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    cy_dk(list(coeffs))
                continue
            actual = cy_dk(list(coeffs))
            assert [repr(z) for z in actual] == [repr(z) for z in expected]
            agreed += 1
        assert agreed >= 30  # the corpus must mostly exercise the happy path

    def test_tolerance_and_cap_are_honoured_identically(self):
        py_dk = _pykernel.durand_kerner
        cy_dk = _cykernel.durand_kerner
        coeffs = [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0]  # X^5 - 1
        for tol, cap in [(1e-3, 200), (1e-12, 500)]:
            expected = py_dk(list(coeffs), tol=tol, max_iter=cap)
            actual = cy_dk(list(coeffs), tol=tol, max_iter=cap)
            assert [repr(z) for z in actual] == [repr(z) for z in expected]


@pytest.mark.parametrize("name", BACKENDS)
class TestRationalScalar:
    """Each backend's Rational must behave exactly like fractions.Fraction."""

    def test_construction_forms(self, name):
        R = KERNELS[name].Rational
        assert R(3, 6) == Fraction(1, 2)
        half = R(1, -2)
        assert (half.numerator, half.denominator) == (-1, 2)
        assert R() == 0
        assert R(7) == 7
        assert R("7/3") == Fraction(7, 3)
        assert R("2.5") == Fraction(5, 2)
        assert R(0.5) == Fraction(1, 2)
        assert R(Fraction(5, 8)) == Fraction(5, 8)
        assert R(R(5, 8)) == Fraction(5, 8)

    def test_rejected_inputs(self, name):
        R = KERNELS[name].Rational
        with pytest.raises(ZeroDivisionError):
            R(1, 0)
        with pytest.raises(TypeError):
            R(1, 2.0)

    def test_division_by_zero(self, name):
        R = KERNELS[name].Rational
        with pytest.raises(ZeroDivisionError):
            R(1, 2) / R(0)
        with pytest.raises(ZeroDivisionError):
            R(0) ** -1

    def test_interop_with_fraction_and_int(self, name):
        R = KERNELS[name].Rational
        assert R(1, 2) + Fraction(1, 3) == Fraction(5, 6)
        assert 1 - R(1, 4) == Fraction(3, 4)
        assert R(3, 2) * 4 == 6
        assert Fraction(1, 3) < R(1, 2)
        assert isinstance(R(1, 2), numbers.Rational)

    def test_float_and_complex_mixing(self, name):
        R = KERNELS[name].Rational
        assert R(1, 2) + 0.25 == 0.75
        assert R(1, 2) * (2 + 4j) == (1 + 2j)
        assert R(4) ** 0.5 == 2.0
        assert 2 ** R(3) == 8

    def test_pow_with_modulus_unsupported(self, name):
        R = KERNELS[name].Rational
        with pytest.raises(TypeError):
            pow(R(2), 3, 5)

    def test_nan_and_infinity_comparisons(self, name):
        R = KERNELS[name].Rational
        nan = float("nan")
        assert not (R(1, 2) < nan)
        assert not (R(1, 2) > nan)
        assert R(1, 2) != nan
        assert R(1, 2) < float("inf")
        assert R(1, 2) > float("-inf")
        assert R(1, 2) != float("inf")

    def test_rounding_and_conversions(self, name):
        R = KERNELS[name].Rational
        assert float(R(1, 4)) == 0.25
        assert int(R(7, 2)) == 3
        assert int(R(-7, 2)) == -3
        assert math.floor(R(-7, 2)) == -4
        assert math.ceil(R(-7, 2)) == -3
        assert round(R(5, 2)) == 2  # ties go to the even integer
        assert round(R(7, 2)) == 4
        assert round(R(2, 3), 2) == Fraction(67, 100)
        assert round(R(1234), -2) == Fraction(1200)
        assert str(R(5)) == "5"
        assert str(R(-5, 3)) == "-5/3"
        assert bool(R(0)) is False
        assert bool(R(1, 9)) is True

    def test_copy_pickle_and_hash(self, name):
        R = KERNELS[name].Rational
        x = R(22, 7)
        assert copy.copy(x) == x
        assert copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x
        assert hash(R(3, 1)) == hash(3)
        assert hash(R(-22, 7)) == hash(Fraction(-22, 7))
        assert hash(R(10**40, 3)) == hash(Fraction(10**40, 3))

    def test_random_operation_parity(self, name):
        R = KERNELS[name].Rational
        rng = random.Random(97)
        for _ in range(300):
            a_n, b_n = rng.randint(-60, 60), rng.randint(-60, 60)
            a_d, b_d = rng.randint(1, 40), rng.randint(1, 40)
            x, y = R(a_n, a_d), R(b_n, b_d)
            fx, fy = Fraction(a_n, a_d), Fraction(b_n, b_d)
            assert x + y == fx + fy
            assert x - y == fx - fy
            assert x * y == fx * fy
            assert (x < y) == (fx < fy)
            assert (x >= y) == (fx >= fy)
            assert (x == y) == (fx == fy)
            assert hash(x) == hash(fx)
            assert -x == -fx
            assert abs(y) == abs(fy)
            exponent = rng.randint(-3, 3)
            if fx != 0 or exponent >= 0:
                assert x**exponent == fx**exponent
            if fy != 0:
                assert x / y == fx / fy
                assert x // y == fx // fy
                assert x % y == fx % fy
                assert divmod(x, y) == divmod(fx, fy)
