"""Double-precision simultaneous root iteration.

It finds the numeric oracle's branch points, and it gives the certified
high-precision refinement in poly._certified_roots its starting points.

BACKEND and available_backends() name the one pure-Python kernel; the
benchmark harness reads both into its run metadata.
"""

from __future__ import annotations

from math import isfinite

BACKEND = "python"


def available_backends():
    """Names of the importable kernels: only the pure-Python one."""
    return ["python"]


def durand_kerner(coeffs, tol=1e-9, max_iter=200):
    """All complex roots of a monic polynomial by simultaneous iteration.

    coeffs -- ascending complex coefficients, last entry 1, nonzero constant
    term (strip zero roots first).  Raises RuntimeError at the iteration cap
    or as soon as an iterate overflows: a NaN step never exceeds the
    tolerance, so it would otherwise pass for convergence.
    """
    n = len(coeffs) - 1
    if n < 1:
        return []
    if coeffs[-1] != 1:
        raise ValueError("coefficients must be monic")
    if n == 1:
        return [-coeffs[0]]

    base = 0.4 + 0.9j
    roots = [base ** k for k in range(1, n + 1)]
    for _ in range(max_iter):
        biggest = 0.0
        for k in range(n):
            r = roots[k]
            # Horner evaluation of the monic polynomial at r.
            val = 1.0 + 0.0j
            for c in reversed(coeffs[:-1]):
                val = val * r + c
            den = 1.0 + 0.0j
            for j in range(n):
                if j != k:
                    den *= r - roots[j]
            if den == 0:
                roots[k] = r * (1.0 + 1e-10) + 1e-10
                biggest = float("inf")
                continue
            delta = val / den
            roots[k] = r - delta
            size = abs(roots[k])  # inf or NaN unless both parts are finite
            if not isfinite(size):
                raise RuntimeError(f"iterate {roots[k]} is not finite")
            step = abs(delta) / max(1.0, size)
            if step > biggest:
                biggest = step
        if biggest <= tol:
            return roots
    raise RuntimeError(f"no convergence after {max_iter} iterations")
