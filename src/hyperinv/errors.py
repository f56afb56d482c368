"""Exception types shared across the package.

Every failure the library can signal deliberately derives from
HyperinvError, so callers can tell deliberate outcomes apart from genuine
bugs.  Failures that leave the answer undecided (a search or numeric
procedure that could not certify its result) derive from Inconclusive.
The CLI maps the categories to exit codes: ExcludedLocusPoint exits 3,
Inconclusive exits 2, and any other HyperinvError exits 1.  Plain
division by zero raises the builtin ZeroDivisionError.
"""


class HyperinvError(Exception):
    """Base class for all deliberate library errors."""


class Inconclusive(HyperinvError):
    """The procedure could not decide the answer; the input may be valid."""


# --- exact scalars ---

class RadicandMismatch(HyperinvError):
    """Arithmetic mixed two quadratic-extension values over different radicands."""


# --- polynomial algebra ---

class BothZero(HyperinvError):
    """gcd of two zero polynomials is undefined."""


class ZeroInput(HyperinvError):
    """Resultant of a zero polynomial is undefined here."""


class NonConvergence(Inconclusive):
    """Numeric root iteration hit its iteration cap."""


class ReconstructionInconclusive(Inconclusive):
    """Numeric pairing failed to certify; caller must treat the search as incomplete."""


# --- Moebius maps ---

class SingularModel(HyperinvError):
    """Matrix with zero determinant, or a curve model that is not square-free."""


class IdentityMap(HyperinvError):
    """Operation undefined for the identity map."""


class DegreeTooSmall(HyperinvError):
    """Form degree below the polynomial degree, or genus below 2."""


# --- curves ---

class IllegalCollapse(HyperinvError):
    """A transform collapsed the branch divisor below tolerance for a curve."""


# --- involution search ---

class SearchInconclusive(Inconclusive):
    """Involution search could not certify completeness over degree <= 2 fields."""


class FixedBranchPoint(HyperinvError):
    """Even-model reduction needs an involution fixing no branch point."""


class OddTermResidue(HyperinvError):
    """Transformed polynomial kept odd-degree terms; internal consistency failure."""


# --- invariants and classification ---

class ZeroEndCoefficient(HyperinvError):
    """Even-model invariants need nonzero constant and leading coefficients."""


class ExcludedLocusPoint(HyperinvError):
    """Invariant point on a special locus where the classification is undefined."""


# --- rational models ---

class NotOnLocus(HyperinvError):
    """Rational model requested off the two-involution locus."""


class SingularOutput(HyperinvError):
    """Constructed model is not square-free."""


class ZeroLeading(HyperinvError):
    """Rational model needs a nonzero first invariant."""


# --- numeric oracle ---

class ToleranceAmbiguity(Inconclusive):
    """Distinct numeric candidates collided within tolerance; result unreliable."""


class UnknownSignature(HyperinvError):
    """Numeric group signature matches no known reduced-group order."""
