"""Dihedral invariants, locus conditions, and the genus-2 group table.

The normal form X^(2g+2) + a_g X^(2g) + ... + a_1 X^2 + 1 of a curve with
an extra involution is unique only up to a dihedral coefficient action;
the u-tuple defined here is constant on those orbits and serves as the
moduli coordinate for the locus of such curves.  All evaluation is exact.
Apart from dihedral_from_even, the formulas are generic over the scalar
ring, so they run on Rational, QuadExt, and nested Poly inputs (the latter
for symbolic identities).  dihedral_from_even takes an even model over Q or
one quadratic field Q(sqrt(D)) and computes on its integer pairs over
Z[sqrt(D)], in the format that zz.py owns.
"""

from __future__ import annotations

from math import comb, factorial, perm
from typing import Optional, Tuple

from .errors import ExcludedLocusPoint, SearchInconclusive, ZeroEndCoefficient
from .exact import QuadExt, Rational, sort_key
from .moebius import MoebiusMap
from .poly import _coerce_coeff, det_bareiss
from .record import frozen_record
from . import zz


def _pow(x, k: int):
    # x ** 0 as the literal int 1 keeps nested-Poly scalars happy
    return 1 if k == 0 else x ** k


@frozen_record
class DihedralInvariants:
    """The tuple (u_1, ..., u_g) of dihedral invariants for a given genus."""

    u: Tuple
    genus: int

    def __post_init__(self):
        if len(self.u) != self.genus:
            raise ValueError("invariant tuple length must equal the genus")

    def __iter__(self):
        return iter(self.u)

    def __len__(self):
        return len(self.u)

    def __getitem__(self, i):
        return self.u[i]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.u)


@frozen_record
class GroupLabel:
    """Automorphism group name plus the reduced-group order when known.

    reduced_order is |G|/2: the central hyperelliptic involution always
    doubles the reduced order.  lift_flag refines labels for g >= 3, where
    only the Klein-subgroup statement is available: it records whether the
    reduced involutions lift to involutions or to an order-4 element.
    """

    name: str
    reduced_order: Optional[int] = None
    lift_flag: Optional[str] = None


def _u_tuple(u):
    if isinstance(u, DihedralInvariants):
        return tuple(u.u)
    return tuple(_coerce_coeff(x) for x in u)


def dihedral_from_normal(a) -> DihedralInvariants:
    """Invariants u_i = a_1^(g-i+1) a_i + a_g^(g-i+1) a_(g-i+1).

    `a` is the sequence (a_1, ..., a_g) of normal-form coefficients; its
    length fixes the genus.  No division occurs, so symbolic (Poly-valued)
    input is supported.
    """
    a = tuple(_coerce_coeff(x) for x in a)
    g = len(a)
    if g < 2:
        raise ValueError("need at least two coefficients (genus >= 2)")
    a1, ag = a[0], a[g - 1]
    u = []
    for i in range(1, g + 1):
        m = g - i + 1
        u.append(_pow(a1, m) * a[i - 1] + _pow(ag, m) * a[g - i])
    return DihedralInvariants(tuple(u), g)


def dihedral_from_even(b) -> DihedralInvariants:
    """Invariants straight from an even model Y^2 = sum b_i X^(2i).

    Equivalent to normalizing to b_0 = b_(g+1) = 1 first, but without the
    (2g+2)-th root that normalization would require:

        u_i = (b_1^m b_i b_(g+1)^(m-1) + b_g^m b_(g-i+1) b_0^(m-1)) / (b_(g+1)^m b_0^m)

    with m = g-i+1.  Requires b_0 and b_(g+1) nonzero.  The b_i lie in Q or
    in one field Q(sqrt(rad)); u_i has degree 0 in b, so b is cleared once to
    int pairs (zz.cleared) and each u_i is one quotient over Z[sqrt(rad)],
    divided through the norm of its denominator (zz.pair_quotient).
    """
    b = tuple(b)
    g = len(b) - 2
    if g < 2:
        raise ValueError("need at least four coefficients (genus >= 2)")
    rad, (ints, _) = zz.cleared(b)
    b0, b1, bg, btop = (ints[i] for i in (0, 1, g, g + 1))
    if b0 == (0, 0) or btop == (0, 0):
        raise ZeroEndCoefficient("even model must have nonzero end coefficients")
    b1_pow, bg_pow = zz.pair_powers(b1, g, rad), zz.pair_powers(bg, g, rad)
    top_pow, b0_pow = zz.pair_powers(btop, g, rad), zz.pair_powers(b0, g, rad)
    u = []
    for i in range(1, g + 1):
        m = g - i + 1
        first = zz.pair_mul(zz.pair_mul(b1_pow[m], ints[i], rad), top_pow[m - 1], rad)
        second = zz.pair_mul(zz.pair_mul(bg_pow[m], ints[g - i + 1], rad), b0_pow[m - 1], rad)
        num = first[0] + second[0], first[1] + second[1]
        den = zz.pair_mul(top_pow[m], b0_pow[m], rad)
        u.append(zz.to_field(*zz.pair_quotient(num, den, rad), rad))
    return DihedralInvariants(tuple(u), g)


def cover_residual(a, u: Optional[DihedralInvariants] = None):
    """Residual 2^(g+1) a_g^(2g+2) - 2^(g+1) u_1 a_g^(g+1) + u_g^(g+1).

    Identically zero when u = dihedral_from_normal(a); exposed so tests can
    confirm the identity on random input.
    """
    a = tuple(_coerce_coeff(x) for x in a)
    g = len(a)
    if u is None:
        u = dihedral_from_normal(a)
    uu = _u_tuple(u)
    ag = a[g - 1]
    c = 2 ** (g + 1)
    return c * _pow(ag, 2 * g + 2) - c * uu[0] * _pow(ag, g + 1) + _pow(uu[g - 1], g + 1)


def locus_eval(u):
    """Both factors (minus, plus) of the two-involution locus condition.

    minus = 2^(g-1) u_1^2 - u_g^(g+1), plus = 2^(g-1) u_1^2 + u_g^(g+1).
    A curve with an extra involution always has a vanishing factor: minus
    zero means both lifts of the reduced involution are involutions, plus
    zero means they lift to order-4 elements.
    """
    uu = _u_tuple(u)
    g = len(uu)
    base = (2 ** (g - 1)) * uu[0] * uu[0]
    top = _pow(uu[g - 1], g + 1)
    return base - top, base + top


def jacobian_det(a):
    """Exact determinant of the Jacobian matrix d(u_i)/d(a_j).

    The partials come from the product rule applied to the two monomials of
    each u_i; coinciding indices (e.g. j = 1 = i) simply contribute both
    terms.  Supports symbolic nested-Poly input for identity checks.
    """
    a = tuple(_coerce_coeff(x) for x in a)
    g = len(a)
    if g < 2:
        raise ValueError("need at least two coefficients (genus >= 2)")
    a1, ag = a[0], a[g - 1]
    zero = a1 * 0 + ag * 0
    rows = []
    for i in range(1, g + 1):
        m = g - i + 1
        row = []
        for j in range(1, g + 1):
            e = zero
            if j == 1:
                e = e + m * _pow(a1, m - 1) * a[i - 1]
            if j == i:
                e = e + _pow(a1, m)
            if j == g:
                e = e + m * _pow(ag, m - 1) * a[g - i]
            if j == g - i + 1:
                e = e + _pow(ag, m)
            row.append(e)
        rows.append(row)
    return det_bareiss(rows)


def swap_action(coeffs):
    """The coefficient reversal a_i -> a_(g+1-i)."""
    return tuple(coeffs[::-1])


def scale_action(b, t, s):
    """The rational scaling action b_i -> s * t^(2i) * b_i on even models."""
    t = _coerce_coeff(t)
    s = _coerce_coeff(s)
    if t == 0 or s == 0:
        raise ValueError("scaling parameters must be nonzero")
    return tuple(s * _pow(t, 2 * i) * _coerce_coeff(x) for i, x in enumerate(b))


def apply_dihedral_action(coeffs, element):
    """Apply a dihedral generator: "swap" or ("scale", t, s)."""
    if element == "swap":
        return swap_action(coeffs)
    if isinstance(element, (tuple, list)) and len(element) == 3 and element[0] == "scale":
        return scale_action(coeffs, element[1], element[2])
    raise ValueError('element must be "swap" or ("scale", t, s)')


# Genus-2 automorphism groups and their reduced orders |G|/2.
_GENUS2_ORDERS = {
    "Z2": 1,
    "V4": 2,
    "D8": 4,
    "D12": 6,
    "Z3⋊D8": 12,
    "GL2(3)": 24,
    "Z10": 5,
}


def _genus2_label(name: str) -> GroupLabel:
    return GroupLabel(name, _GENUS2_ORDERS[name])


def _no_certificate_label(curve, count: int) -> str:
    """Genus-2 group of a curve whose reduced involutions all avoid quadratic fields.

    count is their number over Q-bar.  A Galois-stable involution lies in
    PGL2(Q) (Hilbert 90) and would have been found, so V4 (count 1), D8
    (count 3, one of them distinguished) and Z3⋊D8 (count 7, one central)
    cannot occur.  Count 3 is then D12 and count 9 GL2(3).  Count 0 leaves
    Z10, the one moduli point I2 = I4 = I6 = 0 (Igusa 1960), and Z2.
    """
    if count == 0:
        return "Z10" if igusa_clebsch(curve)[:3] == (0, 0, 0) else "Z2"
    if count == 3:
        return "D12"
    if count == 9:
        return "GL2(3)"
    raise SearchInconclusive(
        f"genus 2: {count} reduced involutions over Q-bar, none over Q or a "
        "quadratic field, fit no automorphism group")


def classify_genus2(u) -> GroupLabel:
    """Automorphism group of a genus-2 curve with an extra involution.

    Checks, in order: the two special points with group Z3⋊D8; the GL2(3)
    point; the D12 curve u_2^2 - 220 u_2 - 16 u_1 + 4500 = 0 (excluding
    u_2 in {18, 50}, which fall through); the D8 curve 2 u_1^2 - u_2^3 = 0,
    where u_2 in {2, 18} has no smooth classification; otherwise V4.

    The special tuples (0,0), (6750,450), and (-250,50) also satisfy the
    D8 curve equation, which is why they are tested first.  Their sign
    partners (-6750,450) and (250,50) are distinct moduli points and plain
    D8 curves: the numeric oracle gives reduced order 4 for both.
    """
    uu = _u_tuple(u)
    if len(uu) != 2:
        raise ValueError("genus-2 classification needs exactly (u1, u2)")
    u1, u2 = uu
    if not (isinstance(u1, Rational) and isinstance(u2, Rational)):
        raise ValueError("genus-2 classification is defined for rational invariants")
    if (u1, u2) in ((0, 0), (6750, 450)):
        return _genus2_label("Z3⋊D8")
    if (u1, u2) == (-250, 50):
        return _genus2_label("GL2(3)")
    if u2 * u2 - 220 * u2 - 16 * u1 + 4500 == 0 and u2 not in (18, 50):
        return _genus2_label("D12")
    if 2 * u1 * u1 - u2 ** 3 == 0:
        if u2 in (2, 18):
            raise ExcludedLocusPoint(
                f"point (u1, u2) = ({u1}, {u2}) has no smooth classification"
            )
        return _genus2_label("D8")
    return _genus2_label("V4")


def _transvectant(f, g, k: int):
    """The k-th transvectant (f, g)_k of two binary forms.

    A form of degree d is (c, den) with c = [c_0, ..., c_d] ints and
    c_i / den the coefficient of x^i z^(d-i).  The result, of degree
    deg f + deg g - 2k, is
    (d_f - k)! (d_g - k)! / (d_f! d_g!) * sum_j (-1)^j C(k, j) f_(x^(k-j) z^j) g_(x^j z^(k-j)),
    with the factorials kept in its denominator.
    """
    (fc, fden), (gc, gden) = f, g
    m, n = len(fc) - 1, len(gc) - 1

    def partial(c, d, p, q):  # d^(p+q) / dx^p dz^q of sum c_i x^i z^(d-i)
        return [c[i] * perm(i, p) * perm(d - i, q) for i in range(p, d - q + 1)]

    out = [0] * (m + n - 2 * k + 1)
    for j in range(k + 1):
        sign = -comb(k, j) if j % 2 else comb(k, j)
        for i, c in enumerate(zz.mul(partial(fc, m, k - j, j), partial(gc, n, j, k - j))):
            out[i] += sign * c
    den = fden * gden * factorial(m) * factorial(n) // (factorial(m - k) * factorial(n - k))
    return out, den


def igusa_clebsch(curve) -> Tuple[int, int, int, int]:
    """Igusa-Clebsch invariants (I2, I4, I6, I10) of a genus-2 curve.

    Computed on F's integer model f, read as a binary sextic (a quintic has
    a zero x^6 coefficient), from the Clebsch invariants A, B, C, D:
    i = (f, f)_4, Delta = (i, i)_2, y1 = (f, i)_4, y2 = (i, y1)_2,
    y3 = (i, y2)_2, A = (f, f)_6, B = (i, i)_4, C = (i, Delta)_4 and
    D = (y3, y1)_2, combined as in Mestre (1991, Construction de courbes de
    genre 2 a partir de leurs modules).  They are integers, I2 =
    6a3^2 - 16a2a4 + 40a1a5 - 240a0a6 and I10 is the discriminant of f,
    so X^6 - X and X^5 - 1 both give (0, 0, 0, 3125).  A change of
    coordinates multiplies I_k by r^k for one r, so the weighted projective
    point (I2 : I4 : I6 : I10) depends only on the curve; Z10 is the point
    (0 : 0 : 0 : 1).
    """
    if curve.genus != 2:
        raise ValueError("Igusa-Clebsch invariants are defined at genus 2")
    ints, _ = curve.F.integer_model()
    f = (ints + [0] * (7 - len(ints)), 1)
    i = _transvectant(f, f, 4)
    delta = _transvectant(i, i, 2)
    y1 = _transvectant(f, i, 4)
    y3 = _transvectant(i, _transvectant(i, y1, 2), 2)
    A, B, C, D = (Rational(c[0], den) for c, den in (
        _transvectant(f, f, 6), _transvectant(i, i, 4),
        _transvectant(i, delta, 4), _transvectant(y3, y1, 2)))
    I10 = (-62208 * A**5 + 972000 * A**3 * B + 1620000 * A**2 * C
           - 3037500 * A * B**2 - 6075000 * B * C - 4556250 * D)
    return tuple(int(v) for v in (
        -120 * A, -720 * A**2 + 6750 * B, 8640 * A**3 - 108000 * A * B + 202500 * C, I10))


def canonicalize_invariants(u: DihedralInvariants) -> DihedralInvariants:
    """Resolve the u_g sign ambiguity of odd-genus plus-locus tuples.

    When the plus factor vanishes and g is odd, (u_1,...,u_g) and
    (u_1,...,-u_g) describe the same class; emit the one whose u_g has
    non-negative rational part.  All other tuples pass through unchanged.
    """
    if u.genus % 2 == 0:
        return u
    _, plus = locus_eval(u)
    if plus != 0:
        return u
    ug = u.u[-1]
    part = ug.a if isinstance(ug, QuadExt) else ug
    if part < 0:
        return DihedralInvariants(u.u[:-1] + (-ug,), u.genus)
    return u


@frozen_record
class Classification:
    """Full pipeline outcome: invariants (when they exist) plus the label.

    Iterating yields (invariants, label) so callers can unpack the pair.
    The remaining fields expose the evidence: every involution certificate
    found, the even model actually used, the locus factor values, and any
    candidate automorphism orders attached when no involution exists.  At
    genus 2 with no certificate, involutions_over_qbar is the number of
    reduced involutions over Q-bar, none of which lies over Q or a
    quadratic field; elsewhere it is None.
    """

    invariants: Optional[DihedralInvariants]
    label: GroupLabel
    flags: Tuple[str, ...] = ()
    locus: Optional[Tuple] = None
    certificates: Tuple = ()
    model_coeffs: Optional[Tuple] = None
    model_map: Optional[object] = None
    candidate_orders: Optional[Tuple[int, ...]] = None
    involutions_over_qbar: Optional[int] = None

    def __iter__(self):
        return iter((self.invariants, self.label))


def _field_class(cert) -> int:
    """Field of the fixed points: 0 rational, 1 real quadratic, 2 imaginary quadratic."""
    radicands = [p.d for p in cert.fixed_points if isinstance(p, QuadExt)]
    return 0 if not radicands else (1 if radicands[0] > 0 else 2)


def _certificate_key(cert, u: DihedralInvariants):
    # Field class of the fixed points, then the conjugation-invariant
    # u-tuple, and only then the map entries as a final deterministic
    # tie-break.  Each part is compared by value, never by how a radicand
    # is written, and costs polynomial time in the size of the certificate.
    return (_field_class(cert), tuple(map(sort_key, u.u)),
            tuple(map(sort_key, cert.map.entries())))


def invariants_of(curve) -> Classification:
    """Dihedral invariants and locus factors, without group labeling.

    Runs the pipeline up to the point where a group name would be assigned:
    even-degree model -> involution search -> even model from the selected
    certificate -> dihedral invariants -> locus factors.  The returned
    Classification has label None; curves with no detected involution get
    invariants None, a flag, and (for g >= 3) the candidate orders of
    larger cyclic reduced symmetries, or (for g = 2) the number of reduced
    involutions over Q-bar.
    """
    from .curve import to_even_degree
    from .symmetry import candidate_orders, detect_involutions, even_model

    even_curve, _ = to_even_degree(curve)
    g = curve.genus
    certs = detect_involutions(even_curve)
    flags = []

    if not certs:
        flags.append("no-involution-found")
        return Classification(
            None,
            None,
            tuple(flags),
            certificates=(),
            candidate_orders=candidate_orders(g).orders if g >= 3 else None,
            involutions_over_qbar=certs.involutions_over_qbar if g == 2 else None,
        )

    usable = [
        c for c in certs if not c.fixes_branch_points and c.fixed_points is not None
    ]
    if not usable:
        raise SearchInconclusive(
            "involutions exist but none is usable for an even model "
            f"(genus {g}, {len(certs)} certificates)"
        )

    # A curve handed over as an even model is classified through that
    # presentation's own involution X -> -X, so u reads straight off the
    # given coefficients.  Any other presentation uses a deterministic
    # choice that depends only on the isomorphism class: the least
    # _certificate_key, so a rational change of coordinates cannot move the
    # output.
    pool = usable
    F = curve.F
    if curve.even_degree and all(F.coeff(i) == 0 for i in range(1, F.degree(), 2)):
        neg = MoebiusMap(-1, 0, 0, 1)
        pool = [c for c in usable if c.map == neg] or usable

    def _outcome(cert):
        b, M = even_model(even_curve, cert)
        return cert, b, M, canonicalize_invariants(dihedral_from_even(b))

    # The field class leads _certificate_key, so only the least class can win.
    least = min(map(_field_class, pool))
    pool = [c for c in pool if _field_class(c) == least]
    cert, b, M, u = min(map(_outcome, pool), key=lambda o: _certificate_key(o[0], o[3]))

    if u.is_zero():
        flags.append("u-zero-degenerate")
    if not all(isinstance(x, Rational) for x in u.u):
        flags.append("irrational-invariants")
    minus, plus = locus_eval(u)

    return Classification(
        u,
        None,
        tuple(flags),
        locus=(minus, plus),
        certificates=tuple(certs),
        model_coeffs=tuple(b),
        model_map=M,
    )


def classify(curve) -> Classification:
    """End-to-end classification of a hyperelliptic curve over Q.

    Labels the invariants_of pipeline output: the genus-2 table when the
    invariants are rational, otherwise V4 with a lift flag read off the
    locus factors.  A genus-2 curve with no certificate is named by its
    number of reduced involutions over Q-bar (_no_certificate_label); at
    higher genus such a curve reports Z2 with candidate orders attached.
    """
    res = invariants_of(curve)
    g = curve.genus

    if res.invariants is None:
        if g == 2:
            label = _genus2_label(_no_certificate_label(curve, res.involutions_over_qbar))
        else:
            label = GroupLabel("Z2", 1)
        return Classification(
            None,
            label,
            res.flags,
            certificates=(),
            candidate_orders=res.candidate_orders,
            involutions_over_qbar=res.involutions_over_qbar,
        )

    u = res.invariants
    minus, plus = res.locus
    if g == 2 and all(isinstance(x, Rational) for x in u.u):
        label = classify_genus2(u)
    else:
        # Off both locus factors the curve has a single reduced involution
        # and no lift refinement is available; the flag stays unset.
        if minus == 0:
            lift = "involution-lift"
        elif plus == 0:
            lift = "order4-lift"
        else:
            lift = None
        label = GroupLabel("V4", 2, lift_flag=lift)

    return Classification(
        u,
        label,
        res.flags,
        locus=res.locus,
        certificates=res.certificates,
        model_coeffs=res.model_coeffs,
        model_map=res.model_map,
    )
