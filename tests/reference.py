"""Value-route disc geometry: an independent check of the skeleton.

The program reads discs off the cluster skeleton as (center index, radius)
pairs.  These functions recompute discs and distances from the field
values, so tests can check paper claims by a second route: pair discs and
hull vertices are minimal discs, d~_j(i) sits at distance rho from axis j,
a fold shrinks distinguished distances, and a folded generator is a
conjugate.  ``skeleton_disc`` and ``pair_disc`` turn the skeleton's index
pairs into ``Disc`` values for the comparison.
"""

from __future__ import annotations

from fractions import Fraction

from schottkyfold.hull import Disc
from schottkyfold.projline import PPoint, apply, compose, inverse, order_p_fixing, proj_eq


def disc(ctx, center, radius) -> Disc:
    if isinstance(center, (int, Fraction)):
        center = ctx.from_fraction(center)
    return Disc(ctx, center, Fraction(radius))


def same(d1: Disc, d2: Disc) -> bool:
    sep = d1.ctx.valuation(d1.ctx.sub(d2.center, d1.center))
    return d1.radius == d2.radius and sep >= d1.radius


def join(d1: Disc, d2: Disc) -> Disc:
    """The smallest closed disc containing both inputs."""
    ctx = d1.ctx
    r = min(d1.radius, d2.radius)
    sep = ctx.valuation(ctx.sub(d1.center, d2.center))
    if not sep.is_infinite:
        r = min(r, sep.fraction)
    return Disc(ctx, d1.center, r)


def delta(d1: Disc, d2: Disc) -> Fraction:
    """The tree metric d(D) + d(D') - 2 d(D join D') on discs."""
    return d1.radius + d2.radius - 2 * join(d1, d2).radius


def min_disc(ctx, values) -> Disc:
    """The smallest disc containing every given finite value."""
    values = list(values)
    center = values[0]
    radius = None
    for x in values[1:]:
        v = ctx.valuation(ctx.sub(x, center))
        if not v.is_infinite and (radius is None or v.fraction < radius):
            radius = v.fraction
    if radius is None:
        # singleton (possibly repeated); radius is unconstrained upward, use 0
        radius = Fraction(0)
    return Disc(ctx, center, radius)


def skeleton_disc(pcfg, target):
    """A skeleton disc (center index, radius) as a Disc; None stays None."""
    if target is None:
        return None
    center, radius = target
    return Disc(pcfg.ctx, pcfg.skeleton().values[center], radius)


def pair_disc(pcfg, i: int) -> Disc:
    """The skeleton's minimal disc of pair i (of all finite points for the
    pair at infinity)."""
    return skeleton_disc(pcfg, pcfg.skeleton().pair_discs[i])


def point_to_axis(d: Disc, pair, ctx) -> Fraction:
    """Distance from a disc point to the axis spanned by a pair."""
    fins = [pt.value for pt in pair if not pt.is_infinity]
    entry_radii = []
    for x in fins:
        v = ctx.valuation(ctx.sub(x, d.center))
        entry_radii.append(d.radius if v >= d.radius else v.fraction)
    entry = max(entry_radii)
    dist = d.radius - entry
    if len(fins) == 2:
        top = min_disc(ctx, fins)
        if entry < top.radius:
            # the path enters above the top of the axis and must come down
            dist += top.radius - entry
    return dist


def transported_vertex_disc(ctx, values, members, m) -> Disc:
    """Image of a cluster vertex, recomputed from transported member points."""
    imgs = [apply(m, PPoint(values[k])) for k in sorted(members)]
    if any(pt.is_infinity for pt in imgs):
        raise ValueError("a transported point landed at infinity")
    return min_disc(ctx, [pt.value for pt in imgs])


def verify_fold_conjugation(step) -> bool:
    """Each folded pair's order-p map must be the conjugate of the original
    by the fold map (true vacuously for an empty fold set).

    Folded pairs are finite, and for finite image pairs the orientation of
    the fixed points is preserved, so the conjugate equals the image pair's
    map at the same exponent.  Should an image point land at infinity, the
    representation loses the orientation and any generator power is
    accepted.
    """
    ctx = step.before.ctx
    m = step.map
    m_inv = inverse(m)
    for l in sorted(step.indices):
        a, b = step.before.pairs[l]
        if a.is_infinity:
            a, b = b, a
        s_l = order_p_fixing(ctx, a, b, 1)
        conjugate = compose(compose(m, s_l), m_inv)
        a2, b2 = apply(m, a), apply(m, b)
        swapped = a2.is_infinity
        if swapped:
            a2, b2 = b2, a2
        if not (swapped or b2.is_infinity):
            if not proj_eq(order_p_fixing(ctx, a2, b2, 1), conjugate):
                return False
            continue
        if not any(
            proj_eq(order_p_fixing(ctx, a2, b2, k), conjugate)
            for k in range(1, ctx.p)
        ):
            return False
    return True
