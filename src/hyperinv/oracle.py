"""Floating-point cross-check of the reduced symmetry group.

The reduced symmetries of Y^2 = F(X) are the fractional linear maps that
permute the branch points (the roots of F, plus infinity when the degree
is odd).  A fractional linear map is pinned down by three points, so every
symmetry appears among the maps sending one fixed triple of branch points
to some ordered triple of branch points.  This module enumerates those
candidates numerically, keeps the ones that permute the branch set within
tolerance, and then works with the induced permutations, which are exact
objects: closure, inverses, and element orders are checked combinatorially
rather than in floating point.

The result is independent of the exact machinery and serves as an oracle
for it: group orders and element orders can be compared against labels
derived from invariants without sharing any code path.
"""

import math
from itertools import permutations
from typing import Tuple

from .errors import ToleranceAmbiguity, UnknownSignature
from .exact import Rational
from .invariants import _GENUS2_ORDERS, GroupLabel
from .moebius import INFINITY
from .poly import numeric_roots
from .record import frozen_record
from . import zz

_GENUS2_LABELS = {n: name for name, n in _GENUS2_ORDERS.items()}


@frozen_record
class NumericGroup:
    """Reduced symmetry group recovered from branch-point permutations.

    ``elements`` holds one permutation per group element, acting on the
    branch points in their deterministic sorted order.  ``element_orders``
    is the sorted multiset of element orders.
    """

    elements: Tuple[Tuple[int, ...], ...]
    order: int
    element_orders: Tuple[int, ...]


def _lift(z):
    """Stereographic lift to the unit sphere, infinity at (0, 0, 1).

    The Euclidean distance between two lifts is the chordal distance.
    """
    if z is INFINITY:
        return (0.0, 0.0, 1.0)
    x, y = z.real, z.imag
    r2 = x * x + y * y
    s = 1.0 + r2
    return (2.0 * x / s, 2.0 * y / s, (r2 - 1.0) / s)


def _to_zero_one_inf(z1, z2, z3):
    """Matrix of the map sending (z1, z2, z3) to (0, 1, infinity)."""
    if z1 is INFINITY:
        return (0j, z2 - z3, 1 + 0j, -z3)
    if z2 is INFINITY:
        return (1 + 0j, -z1, 1 + 0j, -z3)
    if z3 is INFINITY:
        return (1 + 0j, -z1, 0j, z2 - z1)
    return (z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


def _triple_map(src, dst):
    """Matrix of the map sending a source triple to the target triple.

    ``src`` is the source triple's map to (0, 1, infinity), as returned by
    _to_zero_one_inf, so that it is computed once for all targets.
    """
    a, b, c, d = src
    p, q, r, s = _to_zero_one_inf(*dst)
    m = (s * a - q * c, s * b - q * d, p * c - r * a, p * d - r * b)
    scale = max(map(abs, m))
    return (m[0] / scale, m[1] / scale, m[2] / scale, m[3] / scale)


def _apply(m, z):
    a, b, c, d = m
    if z is INFINITY:
        if abs(c) < 1e-14:
            return INFINITY
        return a / c
    num = a * z + b
    den = c * z + d
    if abs(den) <= 1e-14 * (1.0 + abs(num)):
        return INFINITY
    return num / den


def _match_permutation(m, branch, lifts, tol):
    """Permutation induced on ``branch`` by ``m``, or None if it is not one.

    ``lifts`` are the branch points lifted by _lift.  The map sends
    branch[0:3] onto its target triple by construction, so the free points
    branch[3:] are matched first: a map that is no symmetry fails on its
    first image, after n distances.  Raises ToleranceAmbiguity when an
    image point sits within tol of two different branch points, since
    accepting either would be arbitrary.
    """
    n = len(branch)
    tol2 = tol * tol
    perm = [0] * n
    for i in (*range(3, n), 0, 1, 2):
        w = _apply(m, branch[i])
        x, y, z = _lift(w)
        hits = [j for j, (p, q, r) in enumerate(lifts)
                if (x - p) * (x - p) + (y - q) * (y - q) + (z - r) * (z - r) <= tol2]
        if not hits:
            return None
        if len(hits) > 1:
            raise ToleranceAmbiguity(
                f"image point {w} matches two branch points within {tol}"
            )
        perm[i] = hits[0]
    if len(set(perm)) != n:
        return None
    return tuple(perm)


def _perm_order(perm) -> int:
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        order = order * length // math.gcd(order, length)
    return order


def _dyadic(z):
    """Integers (a, b, k) with z = (a + bi) / 2^k: every float is dyadic."""
    (ar, er), (ai, ei) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    k = max(er, ei).bit_length() - 1
    return ar * (1 << k) // er, ai * (1 << k) // ei, k


def _exact_magnitude(ints, content, a, b, k):
    """|content · f((a + bi) / 2^k)| for the int coefficients of f.

    A homogeneous Horner over the Gaussian integers (zz.homogeneous at
    u = a + bi, v = 2^k) gives 2^(k·deg) times the value exactly.  Each
    part is then rounded once by int true division, which is correctly
    rounded, as Fraction.__float__ is.
    """
    deg = len(ints) - 1
    re, im = zz.homogeneous(ints, (), (a, b), (1 << k, 0), deg, -1)
    num, den = content.numerator, content.denominator << (k * deg)
    return math.hypot(num * re / den, num * im / den)


def _check_root_accuracy(F, roots, tol):
    """Reject root lists whose Newton correction exceeds the tolerance.

    The correction must be computed against the exact coefficients: a
    converged iterate is a near-exact root of the float-rounded polynomial,
    so a floating re-evaluation cannot see the gap to the true roots.
    F and F' are evaluated on F's integer model, at each root taken exactly.
    """
    if not all(isinstance(c, Rational) for c in F.coeffs):
        return  # exact re-evaluation is only defined for rational models
    ints, content = F.integer_model()
    dints = zz.derivative(ints)
    for z in roots:
        a, b, k = _dyadic(z)
        fmag = _exact_magnitude(ints, content, a, b, k)
        gmag = _exact_magnitude(dints, content, a, b, k)
        if gmag == 0.0 or fmag > tol * gmag:
            raise ToleranceAmbiguity(
                "branch points are not resolved at this tolerance"
            )


def reduced_group(curve, tol: float = 1e-9) -> NumericGroup:
    """Numerically recover the group of branch-set symmetries.

    ``tol`` bounds the chordal distance allowed when matching image points
    to branch points; it must lie in (0, 1e-4] so that matches stay well
    below typical branch-point separations.  Raises ToleranceAmbiguity when
    the branch points themselves are not resolved at this tolerance, when a
    match is ambiguous, or when the accepted permutations fail to form a
    group (a sign the tolerance clipped or admitted a spurious symmetry).
    """
    if not 0.0 < tol <= 1e-4:
        raise ValueError("tol must lie in (0, 1e-4]")
    branch = list(numeric_roots(curve.F))
    _check_root_accuracy(curve.F, branch, tol)
    if curve.infinite_branch:
        branch.append(INFINITY)
    n = len(branch)
    lifts = [_lift(z) for z in branch]
    sep2 = (10.0 * tol) ** 2
    for i, (x, y, z) in enumerate(lifts):
        for p, q, r in lifts[i + 1:]:
            if (x - p) * (x - p) + (y - q) * (y - q) + (z - r) * (z - r) <= sep2:
                raise ToleranceAmbiguity(
                    "branch points are not resolved at this tolerance"
                )

    src = _to_zero_one_inf(*branch[:3])
    perms = set()
    for dst in permutations(branch, 3):
        m = _triple_map(src, dst)
        perm = _match_permutation(m, branch, lifts, tol)
        if perm is not None:
            perms.add(perm)

    identity = tuple(range(n))
    if identity not in perms:
        raise ToleranceAmbiguity("identity symmetry not recovered")
    for p in perms:
        if tuple(p.index(i) for i in range(n)) not in perms:
            raise ToleranceAmbiguity("permutation set is not closed under inverse")
        for q in perms:
            if tuple(p[q[i]] for i in range(n)) not in perms:
                raise ToleranceAmbiguity(
                    "permutation set is not closed under composition"
                )

    elements = tuple(sorted(perms))
    orders = tuple(sorted(_perm_order(p) for p in elements))
    return NumericGroup(elements=elements, order=len(elements), element_orders=orders)


def has_klein_subgroup(group: NumericGroup) -> bool:
    """True when two distinct commuting involutions exist in the group."""
    invs = [p for p in group.elements if _perm_order(p) == 2]
    for i, p in enumerate(invs):
        for q in invs[i + 1:]:
            pq = tuple(p[q[k]] for k in range(len(p)))
            qp = tuple(q[p[k]] for k in range(len(p)))
            if pq == qp:
                return True
    return False


def label_from_signature(genus: int, group: NumericGroup) -> GroupLabel:
    """Name the full symmetry group from the reduced group's signature.

    For genus 2 the reduced order determines the full group.  For other
    genera only unambiguous cases are named: the trivial reduced group
    (hyperelliptic involution only) and odd-order cyclic reduced groups,
    whose extension by the central involution splits.  Everything else
    raises UnknownSignature.
    """
    n = group.order
    if n == 1:
        return GroupLabel("Z2", reduced_order=1)
    if genus == 2:
        if n in _GENUS2_LABELS:
            return GroupLabel(_GENUS2_LABELS[n], reduced_order=n)
        raise UnknownSignature(f"no genus-2 group of reduced order {n}")
    if n % 2 == 1 and max(group.element_orders) == n:
        return GroupLabel(f"Z2N({n})", reduced_order=n)
    raise UnknownSignature(
        f"reduced order {n} is not named outside genus 2"
    )
