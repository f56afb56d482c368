"""Kernel backend selection.

Two interchangeable backends provide the innermost primitives: the exact
rational scalar and the numeric simultaneous root iteration.  The compiled
Cython backend is used when its extension module imports, the pure-Python
one otherwise.  Library code takes Rational from hyperinv.exact, not from
here.
"""

from __future__ import annotations

from ._pykernel import Rational, durand_kerner

BACKEND = "python"
try:
    from ._cykernel import Rational, durand_kerner  # noqa: F811
    BACKEND = "cython"
except ImportError:
    pass


def available_backends():
    """Names of the backends importable right now, pure one first."""
    return ["python", "cython"] if BACKEND == "cython" else ["python"]
