"""The root-iteration kernel: its contract and the names the harness reads.

hyperinv._kernel holds the double-precision simultaneous root iteration
behind the numeric oracle and the seed of the certified refinement.
It also names the one pure-Python kernel, which perfbench's worker records
in its run metadata and whose solver perfbench's spans wrap as
hyperinv.poly.durand_kerner.
"""

import random

import pytest

import hyperinv
from hyperinv import _kernel, poly
from hyperinv._kernel import durand_kerner


def test_names_read_by_the_benchmark_harness():
    assert hyperinv.BACKEND == "python"
    assert _kernel.available_backends() == ["python"]
    assert callable(poly.durand_kerner)


class TestRootIteration:
    def test_rejects_non_monic_input(self):
        with pytest.raises(ValueError, match="monic"):
            durand_kerner([2.0, 3.0])

    def test_constant_polynomial_has_no_roots(self):
        assert durand_kerner([1.0]) == []
        assert durand_kerner([]) == []

    def test_linear_root_is_exact(self):
        assert durand_kerner([3.5, 1.0]) == [-3.5]
        assert durand_kerner([complex(0, -2), 1.0]) == [2j]

    def test_cube_roots_of_unity(self):
        roots = durand_kerner([-1.0, 0.0, 0.0, 1.0])
        assert len(roots) == 3
        for z in roots:
            assert abs(z**3 - 1) < 1e-8
        # one real root, one conjugate pair
        reals = [z for z in roots if abs(z.imag) < 1e-8]
        assert len(reals) == 1 and abs(reals[0] - 1) < 1e-8

    def test_iteration_cap_raises(self):
        coeffs = [720.0, -1764.0, 1624.0, -735.0, 175.0, -21.0, 1.0]
        with pytest.raises(RuntimeError, match="no convergence after 1 iterations"):
            durand_kerner(coeffs, max_iter=1)

    def test_overflowing_iterate_raises(self):
        # X^6 + 10^60 X^5 + 1 overflows within a few sweeps
        with pytest.raises(RuntimeError, match="not finite"):
            durand_kerner([1.0, 0.0, 0.0, 0.0, 0.0, 1e60, 1.0])

    def test_finiteness_check_leaves_finite_runs_unchanged(self, monkeypatch):
        rng = random.Random(7)
        cases = [[float(rng.randint(-9, 9)) for _ in range(n)] + [1.0] for n in range(2, 17)]
        cases += [[complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)] + [1.0]
                  for n in range(2, 17)]
        expected = [durand_kerner(c) for c in cases]
        monkeypatch.setattr(_kernel, "isfinite", lambda z: True)
        assert [durand_kerner(c) for c in cases] == expected
        # unchecked, a NaN step never exceeds the tolerance: NaN roots "converge"
        roots = durand_kerner([1.0, 0.0, 0.0, 0.0, 0.0, 1e60, 1.0])
        assert all(r != r for r in roots)
