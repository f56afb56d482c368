"""The int-pair layer of zz.py against QuadExt arithmetic, and its Kronecker reader."""

from hypothesis import given, settings, strategies as st

from hyperinv import zz
from hyperinv.exact import QuadExt, Rational
from hyperinv.poly import Poly

_PROPERTY = settings(max_examples=60, deadline=5000, derandomize=True, database=None)

# Q, Q(sqrt 2), Q(sqrt -1), Q(sqrt -3), and Q(sqrt 2) spelled with 2*1009^2,
# a square factor past exact.py's trial bound, so its radicand stays as written
FIELDS = (0, 2, -1, -3, 2 * 1009 ** 2)

small = st.integers(-10 ** 6, 10 ** 6)
pairs = st.tuples(small, small)


def value(xy, rad, den=1):
    """(x + y*sqrt(rad))/den built through the public constructors."""
    x, y = xy
    return Rational(x, den) if rad == 0 else QuadExt(Rational(x, den), Rational(y, den), rad)


def group(rad):
    """Up to six values of the field of rad, each over its own denominator."""
    element = st.builds(lambda xy, den: value(xy, rad, den), pairs, st.integers(1, 10 ** 4))
    return st.lists(element, min_size=1, max_size=6)


@_PROPERTY
@given(st.data())
def test_cleared_round_trips_through_to_field(data):
    rad = data.draw(st.sampled_from(FIELDS))
    vals, more = data.draw(group(rad)), data.draw(group(rad))
    if rad == 2 * 1009 ** 2:
        more.append(value((1, 1009), 2))  # the same field, spelled with radicand 2
    got_rad, (xs, L), (ys, M) = zz.cleared(vals, more)
    assert got_rad == next((int(v.d) for v in vals + more if isinstance(v, QuadExt)), 0)
    assert [zz.to_field(*xy, L, got_rad) for xy in xs] == vals
    assert [zz.to_field(*xy, M, got_rad) for xy in ys] == more
    assert all(type(x) is int and type(y) is int for x, y in xs + ys)


@_PROPERTY
@given(st.sampled_from(FIELDS), pairs, pairs)
def test_pair_mul_is_field_product(rad, u, v):
    u, v = (u if rad else (u[0], 0)), (v if rad else (v[0], 0))
    assert zz.to_field(*zz.pair_mul(u, v, rad), 1, rad) == value(u, rad) * value(v, rad)


@_PROPERTY
@given(st.sampled_from(FIELDS), pairs, st.integers(0, 8))
def test_pair_powers_are_field_powers(rad, x, k):
    x = x if rad else (x[0], 0)
    got = [zz.to_field(*p, 1, rad) for p in zz.pair_powers(x, k, rad)]
    assert got == [value(x, rad) ** i for i in range(k + 1)]


@_PROPERTY
@given(st.sampled_from(FIELDS), pairs, st.tuples(small, small).filter(any))
def test_pair_quotient_is_field_quotient(rad, n, q):
    n, q = (n if rad else (n[0], 0)), (q if rad else (q[0] or 1, 0))
    assert zz.to_field(*zz.pair_quotient(n, q, rad), rad) == value(n, rad) / value(q, rad)


@_PROPERTY
@given(st.sampled_from(FIELDS), st.lists(pairs, min_size=1, max_size=5))
def test_norm_form_is_product_with_conjugate(rad, coeffs):
    U = [x for x, _ in coeffs]
    V = [y for _, y in coeffs] if rad else []
    fix = Poly([value(xy, rad) for xy in zip(U, V or [0] * len(U))])
    conj = Poly([c.conj() if isinstance(c, QuadExt) else c for c in fix.coeffs])
    assert Poly(zz.norm_form(zz.strip(U), zz.strip(V), rad)) == fix * conj


@_PROPERTY
@given(st.lists(st.integers(-2 ** 130, 2 ** 130), max_size=8), st.integers(-1, 70))
def test_unpack_inverts_pack(f, extra):
    # entries are clamped into the digit range (-2^(k-1), 2^(k-1)], ends included
    f = zz.strip(f)
    k = max(1, max(map(abs, f), default=0).bit_length() + extra)
    f = [min(c, 1 << (k - 1)) if c > 0 else max(c, 1 - (1 << (k - 1))) for c in f]
    assert zz.unpack(zz.pack(f, k), k) == zz.strip(f)
    assert zz.pack(f, k) == zz.evaluate(f, 1 << k)


@_PROPERTY
@given(st.integers(-2 ** 300, 2 ** 300), st.integers(2, 90))
def test_unpack_reads_the_symmetric_digits(v, k):
    assert zz.unpack(v, k) == zz.digits(v, 1 << k)
