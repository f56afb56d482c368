"""Integer arithmetic over Z and Z[sqrt(rad)]: int lists and int pairs.

A polynomial is a dense ascending int list with no trailing zeros (an
integer model when primitive with a positive lead).  A value x + y*sqrt(rad)
is the int pair (x, y), rad = 0 meaning Q.  Values of Q or one Q(sqrt(rad))
enter through cleared, as pairs over a common denominator (Cohen 1993,
section 4.2), and leave through to_field.
"""

from math import gcd as igcd, isqrt, lcm

from .exact import QuadExt, Rational, _make, rat


def strip(f):
    while f and not f[-1]:
        f.pop()
    return f


def add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return strip(out)


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        if c:
            for j, d in enumerate(g):
                out[i + j] += c * d
    return out


def evaluate(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def homogeneous(cx, cy, u, v, n, rad):
    """sum_i (cx[i] + cy[i]*sqrt(rad)) * u^i * v^(n-i) as an int pair (x, y).

    u and v are int pairs x + y*sqrt(rad); cx and cy are int lists of
    length at most n + 1, missing entries read as 0 (cy may be empty).
    One Horner pass in u from i = n down carries the powers of v, so a
    form of degree below n gets its factor v^(n - deg) with no extra step.
    """
    (ux, uy), (vx, vy) = u, v
    x = y = 0
    px, py = 1, 0  # v^(n - i)
    for i in range(n, -1, -1):
        x, y = x * ux + rad * y * uy, x * uy + y * ux
        c = cx[i] if i < len(cx) else 0
        d = cy[i] if i < len(cy) else 0
        if c or d:
            x, y = x + c * px + rad * d * py, y + c * py + d * px
        if i:
            px, py = px * vx + rad * py * vy, px * vy + py * vx
    return x, y


def digits(v, xi):
    """The symmetric xi-adic digits of v, lowest first, each in (-xi/2, xi/2].

    Needs xi >= 3: in base 2 a negative v has no such digits.
    """
    half, out = xi // 2, []
    while v:
        c = v % xi
        if c > half:
            c -= xi
        out.append(c)
        v = (v - c) // xi
    return out


def primitive(f):
    """f over its content, leading coefficient made positive."""
    if not f:
        return f
    g = igcd(*f)
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]


def quo(f, h):
    """f / h for a primitive h dividing f in Z[x] (equivalently in Q[x]), else None."""
    rem, dh, lc = list(f), len(h) - 1, h[-1]
    q = [0] * (len(f) - dh)
    for k in range(len(rem) - 1 - dh, -1, -1):
        if rem[k + dh]:
            q[k], r = divmod(rem[k + dh], lc)
            if r:
                return None
            for i in range(dh):
                rem[k + i] -= q[k] * h[i]
    return None if any(rem[:dh]) else q


def peel(f, h):
    """(k, f / h^k) for the largest k with h^k dividing f; h primitive, nonconstant."""
    k = 0
    while (q := quo(f, h)) is not None:
        k, f = k + 1, q
    return k, f


def prs_gcd(f, g):
    """gcd of primitive f, g by the primitive remainder sequence."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        r, dg = list(f), len(g) - 1
        while len(r) > dg:  # pseudo-division by g, up to a positive factor
            c, s = r[-1], len(r) - 1 - dg
            r = [g[-1] * v for v in r]
            for i, gi in enumerate(g):
                r[s + i] -= c * gi
            strip(r)
        f, g = g, primitive(r)
    return f


_HEU_TRIES = 6


def heu_gcd(f, g):
    """GCDHEU (Char, Geddes & Gonnet 1989) on primitive f, g of degree >= 1.

    Interpolates h from the symmetric xi-adic digits of igcd(f(xi), g(xi))
    and returns its primitive part P when P divides f and g; None when every
    evaluation point fails.  Such a P is the gcd: if gcd = P*r, then r(xi)
    divides the content of h, which is at most xi/2.  A nonconstant r has
    only roots shared by f and g, of modulus below T + 2 by Cauchy's bound
    with T = min(|f|/|lc f|, |g|/|lc g|), so |r(xi)| > xi - T - 2 >= xi/2
    since xi >= 2T + 4.
    """
    fn, gn = max(map(abs, f)), max(map(abs, g))
    low = min(fn, gn)
    xi = max(min(low, 99 * isqrt(low)), 2 * min(fn // abs(f[-1]), gn // abs(g[-1]))) + 4
    for _ in range(_HEU_TRIES):
        fv, gv = evaluate(f, xi), evaluate(g, xi)
        if fv and gv:
            h = primitive(digits(igcd(fv, gv), xi))
            if quo(f, h) is not None and quo(g, h) is not None:
                return h
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def gcd(f, g):
    """gcd of integer models (primitive, positive leads), not both zero."""
    if not f or not g:
        return f or g
    if len(f) == 1 or len(g) == 1:
        return [1]
    return heu_gcd(f, g) or prs_gcd(f, g)


def square_free(f):
    """Square-free part of the integer model f, degree >= 1, as an integer model."""
    g = gcd(f, primitive([i * c for i, c in enumerate(f)][1:]))
    return f if len(g) == 1 else quo(f, g)


def cleared(*groups):
    """(rad, (pairs, L), ...) with group[i] = (x + y*sqrt(rad))/L, (x, y) = pairs[i].

    rad is the radicand of the first irrational value (0 if none), L each
    group's least common denominator.  A value of another field raises
    RadicandMismatch; another radicand of the same field (2 and 2*1009^2)
    is rewritten over rad.
    """
    ref = next((v for vs in groups for v in vs if isinstance(v, QuadExt)), None)
    out = [0 if ref is None else int(ref.d)]
    for vs in groups:
        parts = [ref._coerce(v) if isinstance(v, QuadExt) else (rat(v), 0) for v in vs]
        # Star arguments here and in moebius._integer_pullback are lists: unpacking a
        # generator into lcm or gcd raised peak RSS by about 1 MB over a few thousand calls.
        L = lcm(*[q.denominator for xy in parts for q in xy])
        out.append(([(x.numerator * (L // x.denominator), y.numerator * (L // y.denominator))
                     for x, y in parts], L))
    return tuple(out)


def to_field(x, y, den, rad):
    """The exact scalar (x + y*sqrt(rad))/den: a Rational when y or rad is 0."""
    if not rad:
        return Rational(x, den)
    return _make(Rational(x, den), Rational(y, den), Rational(rad))


def pair_mul(u, v, rad):
    """Product of x + y*sqrt(rad) values given as int pairs (x, y)."""
    (ux, uy), (vx, vy) = u, v
    return ux * vx + rad * uy * vy, ux * vy + uy * vx


def pair_powers(x, k, rad):
    """[x^0, x^1, ..., x^k] for an int pair x over Z[sqrt(rad)]."""
    out = [(1, 0)]
    for _ in range(k):
        out.append(pair_mul(out[-1], x, rad))
    return out


def pair_quotient(n, q, rad):
    """(x, y, den) with n/q = (x + y*sqrt(rad))/den for int pairs n, q != 0."""
    (nx, ny), (qx, qy) = n, q
    return nx * qx - rad * ny * qy, ny * qx - nx * qy, qx * qx - rad * qy * qy


def norm_form(U, V, rad):
    """The int list U^2 - rad*V^2: (U + sqrt(rad)*V) times its conjugate."""
    return add(mul(U, U), [-rad * v for v in mul(V, V)])
