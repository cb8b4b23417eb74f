"""Points of the projective line and exact Moebius transformations.

A :class:`PPoint` is a field element or the point at infinity.  A
:class:`Mobius` is an invertible 2x2 matrix over the field, compared
projectively (up to a nonzero scalar).  Maps are built, composed and
applied on integer matrices over ``FieldContext.integers``: the order-p
matrix :func:`order_p_matrix`, the action :func:`image`, and the one
canonical scale, :func:`integer_map`.  The classification of a map into
identity / parabolic / elliptic / loxodromic reads the Newton polygon of
its characteristic polynomial: the two eigenvalue valuations are distinct
exactly when 2 v(trace) < v(det), and then the translation length on the
axis between the fixed points is v(det) - 2 v(trace).

Everything is immutable; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import DegeneratePairError
from .valfield import FieldContext, FieldKind


@dataclass(frozen=True)
class PPoint:
    """A point of P^1(K): a canonical field element, or infinity (value None)."""

    value: object | None = None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __repr__(self):
        return "PPoint(inf)" if self.value is None else f"PPoint({self.value!r})"


INFINITY = PPoint(None)


def finite(ctx: FieldContext, x) -> PPoint:
    """The finite point with value x (rationals are accepted and converted)."""
    if isinstance(x, (int, Fraction)):
        return PPoint(ctx.from_fraction(x))
    return PPoint(x)


def point_str(ctx: FieldContext, pt: PPoint) -> str:
    return "inf" if pt.is_infinity else ctx.to_str(pt.value)


class MapKind(Enum):
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    LOXODROMIC = "loxodromic"


@dataclass(frozen=True)
class ElementClass:
    kind: MapKind
    translation_length: Fraction = Fraction(0)


@dataclass(frozen=True)
class Mobius:
    """z -> (az + b)/(cz + d) with ad - bc != 0, entries in canonical scale."""

    ctx: FieldContext
    a: object
    b: object
    c: object
    d: object

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self):
        f = self.ctx
        return f.sub(f.mul(self.a, self.d), f.mul(self.b, self.c))

    def trace(self):
        return self.ctx.add(self.a, self.d)

    def is_scalar(self) -> bool:
        f = self.ctx
        return f.is_zero(self.b) and f.is_zero(self.c) and self.a == self.d

    def __repr__(self):
        f = self.ctx
        return (
            f"Mobius[[{f.to_str(self.a)}, {f.to_str(self.b)}], "
            f"[{f.to_str(self.c)}, {f.to_str(self.d)}]]"
        )


def mobius(ctx: FieldContext, a, b, c, d) -> Mobius:
    """Build a Moebius map, in canonical scale: the entries, lowered over
    one common denominator, go through :func:`integer_map`."""
    ent = [x if not isinstance(x, (int, Fraction)) else ctx.from_fraction(x) for x in (a, b, c, d)]
    m, den, _ = ctx.lower(ent)
    if ctx.integers.cross(m[0], m[3], m[1], m[2]) == ctx.integers.zero:
        raise ValueError("matrix is singular")
    return integer_map(ctx, m, den)


def integer_map(ctx: FieldContext, m: tuple, s: int) -> Mobius:
    """The map of M = m / s (m an integer matrix (a, b, c, d) in
    ``ctx.integers``, s > 0) in M's canonical scale.  Over Q this is m over
    its content, first nonzero entry positive; over Q(zeta_p) the least
    integral multiple of M, m / gcd(s, content(m))."""
    ring = ctx.integers
    k = ring.content(m)
    if ctx.kind is FieldKind.RATIONAL:
        m = ring.divide(m, k if next(x for x in m if x) > 0 else -k)
        return Mobius(ctx, *map(Fraction, m))
    m = ring.divide(m, gcd(s, k))
    return Mobius(ctx, *(tuple(map(Fraction, x)) for x in m))


def identity(ctx: FieldContext) -> Mobius:
    one, zero = ctx.one(), ctx.zero()
    return Mobius(ctx, one, zero, zero, one)


def image(ctx: FieldContext, m: tuple, num, den: int) -> PPoint:
    """The image of num / den (num in ``ctx.integers``; infinity is 1 / 0)
    under the integer matrix m: (a num + b den) / (c num + d den), one
    :meth:`~.valfield.FieldContext.quotient`; a pole maps to infinity."""
    ring = ctx.integers
    a, b, c, d = m
    minus_den = ring.times(ring.one, -den)
    value = ctx.quotient(ring.cross(a, num, b, minus_den), ring.cross(c, num, d, minus_den))
    return INFINITY if value is None else PPoint(value)


def apply(m: Mobius, pt: PPoint) -> PPoint:
    """The fractional-linear action; total on P^1 (poles map to infinity),
    by :func:`image` on the lowered map and point."""
    f = m.ctx
    ent, _, _ = f.lower(m.entries())
    (num,), den, _ = ([f.integers.one], 0, 0) if pt.is_infinity else f.lower([pt.value])
    return image(f, ent, num, den)


def compose(m1: Mobius, m2: Mobius) -> Mobius:
    """Matrix product m1 * m2 (apply m2 first), renormalised: one ``matmul``
    of the lowered matrices, then :func:`integer_map`."""
    f = m1.ctx
    (e1, s1, _), (e2, s2, _) = f.lower(m1.entries()), f.lower(m2.entries())
    return integer_map(f, f.integers.matmul(e1, e2), s1 * s2)


def inverse(m: Mobius) -> Mobius:
    """The adjugate of the lowered matrix, renormalised."""
    f, ring = m.ctx, m.ctx.integers
    (a, b, c, d), s, _ = f.lower(m.entries())
    return integer_map(f, (d, ring.sub(ring.zero, b), ring.sub(ring.zero, c), a), s)


def proj_eq(m1: Mobius, m2: Mobius) -> bool:
    """Projective equality, decided by cross-multiplication of the lowered
    entries."""
    f = m1.ctx
    (e1, _, _), (e2, _, _) = f.lower(m1.entries()), f.lower(m2.entries())
    cross, zero = f.integers.cross, f.integers.zero
    return all(cross(e1[i], e2[j], e1[j], e2[i]) == zero for i in range(4) for j in range(i + 1, 4))


def is_loxodromic(v_tr, v_det) -> bool:
    """The Newton polygon rule for a matrix that is neither scalar nor
    parabolic: its eigenvalues have distinct valuations, so the map is
    loxodromic, exactly when 2 v(tr) < v(det).

    The valuations may be ``Val`` objects, or both counted in steps of
    the value group (see :meth:`~.valfield.FieldContext.integral_valuation`).
    A parabolic matrix (tr^2 = 4 det) has 2 v(tr) = 2 v(2) + v(det) >=
    v(det), so the rule never calls one loxodromic.
    """
    return 2 * v_tr < v_det


def classify(ctx: FieldContext, m: Mobius) -> ElementClass:
    """Identity / parabolic / elliptic / loxodromic, by eigenvalue valuations.

    A scalar matrix is the identity.  Otherwise the characteristic
    polynomial has a double root exactly when tr^2 = 4 det (parabolic),
    and :func:`is_loxodromic` tells loxodromic from elliptic; the
    translation length is then v(det) - 2 v(tr).  Each test is unchanged
    when the matrix is scaled, so any representative serves.
    """
    if m.is_scalar():
        return ElementClass(MapKind.IDENTITY)
    tr, det = m.trace(), m.det()
    if ctx.mul(tr, tr) == ctx.mul(ctx.from_fraction(4), det):
        return ElementClass(MapKind.PARABOLIC)
    v_tr, v_det = ctx.valuation(tr), ctx.valuation(det)
    if is_loxodromic(v_tr, v_det):
        return ElementClass(MapKind.LOXODROMIC, (v_det - 2 * v_tr).fraction)
    return ElementClass(MapKind.ELLIPTIC)


def order_p_matrix(ctx: FieldContext, ints: list, den: int, n: int) -> tuple:
    """(den^k M, den^k) for the matrix M of the n-th power of the order-p map
    fixing the k = 2 points x = A / den, y = B / den with ints = [A, B], or
    (k = 1, ints = [A]) x and infinity; A and B are in ``ctx.integers``.

    With z = zeta_p, M is [[x - z^n y, (z^n - 1) x y], [1 - z^n, z^n x - y]]
    or [[z^n, (1 - z^n) x], [0, 1]]; z^n A is ``rotate(A, n)``.  det M is
    z^n (x - y)^2 or z^n, never 0 for distinct points.
    """
    if n % ctx.p == 0:
        raise ValueError("exponent must be nonzero modulo p")
    ring = ctx.integers
    rotate, sub, times, one, a = ring.rotate, ring.sub, ring.times, ring.one, ints[0]
    if len(ints) == 1:
        return (times(rotate(one, n), den), sub(a, rotate(a, n)), ring.zero, times(one, den)), den
    b = ints[1]
    ab = ring.mul(a, b)
    return (
        times(sub(a, rotate(b, n)), den),
        sub(rotate(ab, n), ab),
        times(sub(one, rotate(one, n)), den * den),
        times(sub(rotate(a, n), b), den),
    ), den * den


def order_p_fixing(ctx: FieldContext, a: PPoint, b: PPoint, n: int) -> Mobius:
    """The n-th power of an order-p map fixing a and b: the points lowered
    over one common denominator, :func:`order_p_matrix` in canonical scale.

    The orientation is normalised so the multiplier (the derivative) at a
    is zeta_p^n; in the coordinate sending (a, b) to (0, infinity) the map
    is multiplication by zeta_p^n, which is the orientation the folding
    test certifies.  If a point of the pair is infinite it must be passed
    as b.
    """
    if a == b:
        raise DegeneratePairError("order-p map needs two distinct fixed points")
    if a.is_infinity:
        raise ValueError("infinity must be passed as the second fixed point")
    ints, den, _ = ctx.lower([pt.value for pt in (a, b) if not pt.is_infinity])
    return integer_map(ctx, *order_p_matrix(ctx, ints, den, n))
