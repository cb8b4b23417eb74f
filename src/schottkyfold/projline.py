"""Points of the projective line and exact Moebius transformations.

A :class:`PPoint` is a field element or the point at infinity.  A
:class:`Mobius` is an invertible 2x2 matrix, compared projectively (up to
a nonzero scalar), with entries in ``FieldContext.integers`` in the one
canonical scale, :func:`integer_map`.  Maps are built by the order-p
matrix :func:`order_p_matrix`, multiplied by the ring's ``matmul`` and
applied by :func:`image`; only points are lowered.  The classification of
a map into identity / parabolic / elliptic / loxodromic reads the Newton
polygon of its characteristic polynomial: the two eigenvalue valuations
are distinct exactly when 2 v(trace) < v(det), and then the translation
length on the axis between the fixed points is v(det) - 2 v(trace).

Nothing is mutated; operations are pure functions.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .valfield import FieldContext, FieldKind

# bound once, as in valfield: integer_map tests the flavour at every fold
# map and compose, and a member looked up through its Enum class costs
# several times a module global
_RATIONAL = FieldKind.RATIONAL


class PPoint(NamedTuple):
    """A point of P^1(K): a canonical field element, or infinity (value None)."""

    value: object | None = None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __repr__(self):
        return "PPoint(inf)" if self.value is None else f"PPoint({self.value!r})"


INFINITY = PPoint(None)


def finite(ctx: FieldContext, x) -> PPoint:
    """The finite point with value x, an int or Fraction or, over Q(zeta_p),
    p - 1 of them (a tuple or list, low degree first): the one place a value
    becomes a point, so anything else is refused here, a float above all."""
    if type(x) is Fraction:  # the common case: one exact value
        return PPoint(ctx.from_fraction(x))
    listed = ctx.kind is not _RATIONAL and isinstance(x, (tuple, list))
    for q in x if listed else (x,):
        if not isinstance(q, (int, Fraction)):
            what = "a float" if isinstance(q, float) else f"a {type(q).__name__}"
            raise TypeError(f"point {x!r} holds {what}; give exact ints or Fractions")
    if not listed:
        return PPoint(ctx.from_fraction(x))
    if len(x) != ctx.degree:
        raise ValueError(f"point {x!r} needs {ctx.degree} coefficients, not {len(x)}")
    return PPoint(tuple(q if type(q) is Fraction else Fraction(q) for q in x))


def point_str(ctx: FieldContext, pt: PPoint) -> str:
    return "inf" if pt.value is None else ctx.to_str(pt.value)


class MapKind(Enum):
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    LOXODROMIC = "loxodromic"


class ElementClass(NamedTuple):
    kind: MapKind
    translation_length: Fraction = Fraction(0)


class Mobius(NamedTuple):
    """z -> (az + b)/(cz + d) with ad - bc != 0: four elements of
    ``ctx.integers`` (``int``, or lists of p - 1 integer coefficients) in
    the canonical scale of :func:`integer_map`; ``det`` and ``trace`` too.

    Over Q(zeta_p) the entries are lists, so such a map is not hashable.
    """

    ctx: FieldContext
    a: object
    b: object
    c: object
    d: object

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self):
        return self.ctx.integers.cross(self.a, self.d, self.b, self.c)

    def trace(self):
        return self.ctx.integers.add(self.a, self.d)

    def __repr__(self):
        return "Mobius[[{}, {}], [{}, {}]]".format(*map(self.ctx.to_str, self.entries()))


def integer_map(ctx: FieldContext, m: tuple, s: int) -> Mobius:
    """The map of M = m / s (m an integer matrix (a, b, c, d) in
    ``ctx.integers``, s > 0) in M's canonical scale, which is integral.  Over
    Q this is m over its content, first nonzero entry positive (the first
    row of an invertible matrix is not zero, so that entry is a, or b when a
    is 0); over Q(zeta_p) the least integral multiple of M, m / gcd(s,
    content(m))."""
    ring = ctx.integers
    k = ring.content(m)
    if ctx.kind is _RATIONAL:
        return Mobius(ctx, *ring.divide(m, k if (m[0] or m[1]) > 0 else -k))
    return Mobius(ctx, *ring.divide(m, gcd(s, k)))


def image(ctx: FieldContext, m: tuple, nums, den: int) -> list[PPoint]:
    """The images of the points num / den, num in ``nums`` (each in
    ``ctx.integers``; infinity is 1 / 0), under the integer matrix m: (a num
    + b den) / (c num + d den), one :meth:`~.valfield.FieldContext.quotient`
    each, with -den formed once for all; a pole maps to infinity."""
    ring, quotient = ctx.integers, ctx.quotient
    cross, (a, b, c, d) = ring.cross, m
    minus_den = ring.times(ring.one, -den)
    out = []
    for num in nums:
        value = quotient(cross(a, num, b, minus_den), cross(c, num, d, minus_den))
        out.append(INFINITY if value is None else PPoint(value))
    return out


# kept for the benchmark's tracer (perfbench/spans.py); the library maps
# points by image
def apply(m: Mobius, pt: PPoint) -> PPoint:
    """The fractional-linear action; total on P^1 (poles map to infinity),
    by :func:`image` on the map's entries and the lowered point."""
    f = m.ctx
    nums, den = ([f.integers.one], 0) if pt.is_infinity else f.lower([pt.value])
    return image(f, m.entries(), nums, den)[0]


def compose(m1: Mobius, m2: Mobius) -> Mobius:
    """Matrix product m1 * m2 (apply m2 first), renormalised: one ``matmul``,
    then :func:`integer_map`."""
    f = m1.ctx
    return integer_map(f, f.integers.matmul(m1.entries(), m2.entries()), 1)


def is_loxodromic(v_tr, v_det) -> bool:
    """The Newton polygon rule for a matrix that is neither scalar nor
    parabolic: its eigenvalues have distinct valuations, so the map is
    loxodromic, exactly when 2 v(tr) < v(det).

    Both valuations are counted in steps of the value group (see
    :meth:`~.valfield.FieldContext.integral_valuation`).
    A parabolic matrix (tr^2 = 4 det) has 2 v(tr) = 2 v(2) + v(det) >=
    v(det), so the rule never calls one loxodromic.
    """
    return 2 * v_tr < v_det


# kept for the benchmark's tracer (perfbench/spans.py); the audit applies
# the same rule inline
def classify(ctx: FieldContext, m: Mobius) -> ElementClass:
    """Identity / parabolic / elliptic / loxodromic, by eigenvalue valuations.

    Everything is read off the integer entries.  A scalar matrix (b = c =
    0, a = d) is the identity.  Otherwise the characteristic polynomial
    has a double root exactly when tr^2 = 4 det (parabolic); tr = 0 is
    elliptic; and :func:`is_loxodromic` tells loxodromic from elliptic on
    the valuations of tr and det counted in steps of the value group, the
    translation length then being (e v(det) - 2 e v(tr)) / e.  Each test
    is unchanged when the matrix is scaled, so any representative serves.
    """
    ring = ctx.integers
    if m.b == ring.zero and m.c == ring.zero and m.a == m.d:
        return ElementClass(MapKind.IDENTITY)
    tr, det = m.trace(), m.det()
    if ring.mul(tr, tr) == ring.times(det, 4):
        return ElementClass(MapKind.PARABOLIC)
    if tr == ring.zero:
        return ElementClass(MapKind.ELLIPTIC)
    v_tr, v_det = ctx.integral_valuation(tr), ctx.integral_valuation(det)
    if is_loxodromic(v_tr, v_det):
        return ElementClass(MapKind.LOXODROMIC, Fraction(v_det - 2 * v_tr, ctx.ramification))
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

