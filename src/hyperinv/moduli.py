"""Rational models over the field of moduli.

A point of the dihedral-invariant locus determines a curve with an extra
involution up to isomorphism.  When one of the two locus factors vanishes
the class admits an even model whose coefficients are, up to sign, the
invariants themselves; this module builds that model and verifies it by
recomputing the invariants from the result.

The reconstruction needs no root extraction, so a locus point with entries
in a field supplies a model over that same field.  In particular rational
invariants give a model with rational coefficients: the field of moduli is
a field of definition on the locus.
"""

from .curve import HyperellipticCurve
from .errors import NotOnLocus, SingularModel, SingularOutput, ZeroLeading
from .exact import rat
from .invariants import DihedralInvariants, _u_tuple, dihedral_from_even, locus_eval
from .poly import Poly, gcd
from .record import frozen_record


@frozen_record
class RationalModelResult:
    """Outcome of reconstructing a curve from its dihedral invariants.

    ``branch`` records which locus factor vanished ("minus" or "plus") and
    therefore which sign the reconstruction used.  ``verified`` is True when
    recomputing the invariants of the model returns the input point.
    """

    curve: HyperellipticCurve
    branch: str
    verified: bool


def _model_coeffs(inv: DihedralInvariants, branch: str):
    """Even-part coefficients (b_0, ..., b_{g+1}) of the reconstruction.

    Layout: b_0 = 2, b_1 = +/- u_g, b_i = u_{g+1-i} for 1 < i <= g, and
    b_{g+1} = u_1.  The plus branch flips the sign of b_1 only.
    """
    g = inv.genus
    b1 = inv[g - 1] if branch == "minus" else -inv[g - 1]
    body = [inv[g - i] for i in range(2, g + 1)]
    return tuple([rat(2), b1] + body + [inv[0]])


def rational_model(u) -> RationalModelResult:
    """Build an even model whose invariants are the given locus point.

    Preconditions: the leading invariant u_1 is nonzero (it becomes the
    leading coefficient) and one of the two locus factors vanishes.  Raises
    ZeroLeading, NotOnLocus, or SingularOutput when the reconstruction
    cannot produce a valid curve; SingularOutput reports the repeated
    factor gcd(F, F').
    """
    uu = _u_tuple(u)
    inv = DihedralInvariants(uu, len(uu))
    if inv[0] == 0:
        raise ZeroLeading("leading invariant u_1 is zero; no monic-degree model")
    minus, plus = locus_eval(inv)
    if minus == 0:
        branch = "minus"
    elif plus == 0:
        branch = "plus"
    else:
        raise NotOnLocus(
            f"point is on neither locus branch (factors {minus} and {plus})"
        )

    b = _model_coeffs(inv, branch)
    full = []
    for i, coeff in enumerate(b):
        full.append(coeff)
        if i < len(b) - 1:
            full.append(rat(0))
    F = Poly(full)
    try:
        curve = HyperellipticCurve(F)
    except SingularModel as exc:
        raise SingularOutput(
            f"reconstructed model is singular (repeated factor {gcd(F, F.derivative())})"
        ) from exc

    # recomputed from the curve's own even coefficients, not from b
    got = dihedral_from_even(tuple(curve.F.coeff(2 * i) for i in range(len(b))))
    expected = inv.u if branch == "minus" else inv.u[:-1] + (-inv.u[-1],)
    verified = got.u == expected
    return RationalModelResult(curve=curve, branch=branch, verified=verified)


def round_trip_check(u) -> bool:
    """Reconstruct a model from ``u`` and confirm it returns the same point.

    This is rational_model(u).verified: the invariants are recomputed from
    the reconstructed curve's even coefficients.  On the plus branch the
    recomputed last invariant comes back negated, which is accounted for.
    """
    return rational_model(u).verified
