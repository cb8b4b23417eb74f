"""Points of the projective line and exact Moebius transformations.

A :class:`PPoint` is a field element or the point at infinity.  A
:class:`Mobius` is an invertible 2x2 matrix over the field, compared
projectively (up to a nonzero scalar).  The classification of a map into
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
from math import gcd, lcm

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
    """Build a Moebius map, normalising the matrix to a canonical scale.

    Rational matrices are cleared of denominators, divided by the content
    of the integer entries, and sign-normalised so the first nonzero entry
    is positive.  Cyclotomic matrices only have rational denominators
    cleared.
    """
    ent = [x if not isinstance(x, (int, Fraction)) else ctx.from_fraction(x) for x in (a, b, c, d)]
    det = ctx.sub(ctx.mul(ent[0], ent[3]), ctx.mul(ent[1], ent[2]))
    if ctx.is_zero(det):
        raise ValueError("matrix is singular")
    if ctx.kind is FieldKind.RATIONAL:
        den = lcm(*[x.denominator for x in ent])
        nums = [x.numerator * (den // x.denominator) for x in ent]
        content = gcd(*nums)
        nums = [n // content for n in nums]
        lead = next(n for n in nums if n != 0)
        if lead < 0:
            nums = [-n for n in nums]
        ent = [Fraction(n) for n in nums]
    else:
        den = lcm(*[c.denominator for x in ent for c in x])
        ent = [tuple(c * den for c in x) for x in ent]
    return Mobius(ctx, *ent)


def identity(ctx: FieldContext) -> Mobius:
    one, zero = ctx.one(), ctx.zero()
    return Mobius(ctx, one, zero, zero, one)


def apply(m: Mobius, pt: PPoint) -> PPoint:
    """The fractional-linear action; total on P^1 (poles map to infinity)."""
    f = m.ctx
    if pt.is_infinity:
        if f.is_zero(m.c):
            return INFINITY
        return PPoint(f.div(m.a, m.c))
    z = pt.value
    den = f.add(f.mul(m.c, z), m.d)
    if f.is_zero(den):
        return INFINITY
    num = f.add(f.mul(m.a, z), m.b)
    return PPoint(f.div(num, den))


def compose(m1: Mobius, m2: Mobius) -> Mobius:
    """Matrix product m1 * m2 (apply m2 first), renormalised."""
    f = m1.ctx
    a = f.add(f.mul(m1.a, m2.a), f.mul(m1.b, m2.c))
    b = f.add(f.mul(m1.a, m2.b), f.mul(m1.b, m2.d))
    c = f.add(f.mul(m1.c, m2.a), f.mul(m1.d, m2.c))
    d = f.add(f.mul(m1.c, m2.b), f.mul(m1.d, m2.d))
    return mobius(f, a, b, c, d)


def inverse(m: Mobius) -> Mobius:
    f = m.ctx
    return mobius(f, m.d, f.neg(m.b), f.neg(m.c), m.a)


def proj_eq(m1: Mobius, m2: Mobius) -> bool:
    """Projective equality, decided by cross-multiplication of entries."""
    f = m1.ctx
    e1, e2 = m1.entries(), m2.entries()
    for i in range(4):
        for j in range(i + 1, 4):
            if f.mul(e1[i], e2[j]) != f.mul(e1[j], e2[i]):
                return False
    return True


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


def order_p_fixing(ctx: FieldContext, a: PPoint, b: PPoint, n: int) -> Mobius:
    """The n-th power of an order-p map fixing a and b.

    The orientation is normalised so the multiplier (the derivative) at a
    is zeta_p^n; in the coordinate sending (a, b) to (0, infinity) the map
    is multiplication by zeta_p^n, which is the orientation the folding
    test certifies.  For finite a, b the matrix is
    [[a - z^n b, (z^n - 1) a b], [1 - z^n, z^n a - b]] with z = zeta_p;
    for b = infinity the map is z -> (1 - zeta^n) a + zeta^n z.  If a
    point of the pair is infinite it must be passed as b.
    """
    if n % ctx.p == 0:
        raise ValueError("exponent must be nonzero modulo p")
    if a == b:
        raise DegeneratePairError("order-p map needs two distinct fixed points")
    if a.is_infinity:
        raise ValueError("infinity must be passed as the second fixed point")
    zn = ctx.zeta_power(n)
    one = ctx.one()
    av = a.value
    if b.is_infinity:
        return mobius(ctx, zn, ctx.mul(ctx.sub(one, zn), av), ctx.zero(), one)
    bv = b.value
    return mobius(
        ctx,
        ctx.sub(av, ctx.mul(zn, bv)),
        ctx.mul(ctx.sub(zn, one), ctx.mul(av, bv)),
        ctx.sub(one, zn),
        ctx.sub(ctx.mul(zn, av), bv),
    )
