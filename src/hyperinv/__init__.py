"""Exact invariants and automorphism classification for hyperelliptic curves.

The package computes dihedral invariants of curves Y^2 = F(X) admitting an
extra involution, decides the automorphism group for genus 2 by exact locus
tests, builds rational models over the field of moduli, and cross-checks
everything with a floating-point branch-set oracle.
"""

from ._kernel import BACKEND
from .exact import QuadExt, Rational, rat, sqrt_exact
from .poly import Poly

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Rational",
    "QuadExt",
    "rat",
    "sqrt_exact",
    "Poly",
    "__version__",
]
