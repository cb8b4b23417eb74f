"""Ultrametric discs and the reduced convex hull of a paired configuration.

Closed discs {z : v(z - c) >= r} stand in for the non-classical points of
the analytic projective line.  The tree metric is

    delta(D, D') = d(D) + d(D') - 2 d(D join D'),

with d the logarithmic radius and the join the smallest disc containing
both.  The reduced convex hull of a paired configuration is the finite
metric forest left after removing the segment interiors that split the
points into two odd halves; its vertices are the minimal discs of clusters
of size >= 2, its edges connect even clusters to their parents, and the
*distinguished* vertices are those lying on a pair axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clusters import PairedConfiguration, canonical_pairs, check_separated
from .errors import NotPairedError, PairingError
from .projline import Mobius, PPoint, apply
from .valfield import FieldContext, format_fraction


@dataclass(frozen=True)
class Disc:
    """Closed disc {z : v(z - center) >= radius}; any member can be the center."""

    ctx: FieldContext
    center: object
    radius: Fraction

    def contains_value(self, x) -> bool:
        return self.ctx.valuation(self.ctx.sub(x, self.center)) >= self.radius

    def same(self, other: "Disc") -> bool:
        return self.radius == other.radius and self.contains_value(other.center)

    def key(self) -> str:
        return f"D({self.ctx.to_str(self.center)};{format_fraction(self.radius)})"

    def __repr__(self):
        return self.key()


def disc(ctx: FieldContext, center, radius) -> Disc:
    if isinstance(center, (int, Fraction)):
        center = ctx.from_fraction(center)
    return Disc(ctx, center, Fraction(radius))


def join(d1: Disc, d2: Disc) -> Disc:
    """The smallest closed disc containing both inputs."""
    ctx = d1.ctx
    r = min(d1.radius, d2.radius)
    sep = ctx.valuation(ctx.sub(d1.center, d2.center))
    if not sep.is_infinite:
        r = min(r, sep.fraction)
    return Disc(ctx, d1.center, r)


def delta(d1: Disc, d2: Disc) -> Fraction:
    """The tree metric on discs."""
    j = join(d1, d2)
    return d1.radius + d2.radius - 2 * j.radius


def min_disc(ctx: FieldContext, values) -> Disc:
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


def pair_disc(pcfg: PairedConfiguration, i: int) -> Disc:
    """Minimal disc of pair i; for the pair at infinity, of all finite points."""
    sk = pcfg.skeleton()
    center, radius = sk.pair_discs[i]
    return Disc(pcfg.ctx, sk.values[center], radius)


def point_to_axis(d: Disc, pair: tuple[PPoint, PPoint], ctx: FieldContext) -> Fraction:
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


# --------------------------------------------------------------------------
# Skeleton forest
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SkeletonVertex:
    id: int
    disc: Disc
    distinguished: bool
    pair_index: int | None
    component: int
    cluster: frozenset[int]  # member indices into the finite values


@dataclass(frozen=True)
class SkeletonTree:
    vertices: tuple[SkeletonVertex, ...]
    edges: tuple[tuple[int, int, Fraction], ...]

    def valency(self, vid: int) -> int:
        return sum(1 for u, v, _ in self.edges if vid in (u, v))

    def distinguished(self) -> tuple[SkeletonVertex, ...]:
        return tuple(v for v in self.vertices if v.distinguished)

    def component_count(self) -> int:
        return len({v.component for v in self.vertices})

    def vertex_for_pair(self, i: int) -> SkeletonVertex:
        for v in self.vertices:
            if v.pair_index == i and v.distinguished:
                return v
        raise KeyError(f"no distinguished vertex on axis {i}")


def reduced_convex_hull(pcfg: PairedConfiguration) -> SkeletonTree:
    """The reduced convex hull as a finite metric forest.

    Vertices are the minimal discs of clusters of size >= 2 of the finite
    points; an edge joins each even cluster to its parent cluster.  When
    infinity is absent the vertex of the minimal disc of the whole set is
    removed (together with its incident segments), splitting the top level.

    The pairs must be the canonical pairing of distinct points, and
    separated: the rules of ``clusters.canonical_pairs`` and
    ``clusters.check_separated``, applied to the skeleton the configuration
    already holds (a ``pair_up`` result always passes).  Otherwise
    NotPairedError is raised.
    """
    ctx = pcfg.ctx
    points = pcfg.points()
    if len(set(points)) != len(points):
        raise NotPairedError("the points are not distinct")
    sk = pcfg.skeleton()
    has_inf = any(pt.is_infinity for pt in points)
    try:
        canonical = {frozenset(pair) for pair in canonical_pairs(sk, has_inf)}
        if canonical != pcfg.pairing():
            raise NotPairedError("pairs are not the canonical pairing of the points")
        check_separated(pcfg)
    except PairingError as exc:
        raise NotPairedError(str(exc)) from exc

    vmat, clusters = sk.vmat, sk.clusters
    # tree positions of the vertex clusters; without infinity the root goes
    kept = sorted(
        (
            k
            for k, c in enumerate(clusters)
            if len(c.members) >= 2 and (has_inf or sk.parent[k] is not None)
        ),
        key=lambda k: (-len(clusters[k].members), sorted(clusters[k].members)),
    )
    ids = {k: vid for vid, k in enumerate(kept)}
    # minimal discs: the first member as center, the cluster depth as radius
    discs = {
        k: (next(iter(clusters[k].members)), clusters[k].depth.fraction) for k in kept
    }

    edges = []
    for k in kept:
        par = sk.parent[k]
        if len(clusters[k].members) % 2 == 0 and par in ids:
            edges.append((ids[k], ids[par], discs[k][1] - discs[par][1]))

    # union-find over kept edges
    parent_uf = list(range(len(kept)))

    def find(x):
        while parent_uf[x] != x:
            parent_uf[x] = parent_uf[parent_uf[x]]
            x = parent_uf[x]
        return x

    for a, b, _ in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent_uf[ra] = rb

    def on_axis(center, radius, i) -> bool:
        """Whether the disc point lies on the axis of pair i."""
        inside = [vmat[m][center] >= radius for m in sk.pair_members[i]]
        if any(pt.is_infinity for pt in pcfg.pairs[i]):
            return any(inside)
        pc, pr = sk.pair_discs[i]
        if inside[0] != inside[1]:
            return radius >= pr and vmat[center][pc] >= pr
        return inside[0] and radius == pr and vmat[pc][center] >= radius

    comp_label: dict[int, int] = {}
    vertices = []
    for vid, k in enumerate(kept):
        comp = comp_label.setdefault(find(vid), len(comp_label))
        center, radius = discs[k]
        pidx = next(
            (i for i in range(len(pcfg.pairs)) if on_axis(center, radius, i)), None
        )
        vertices.append(
            SkeletonVertex(
                id=vid,
                disc=Disc(ctx, sk.values[center], radius),
                distinguished=pidx is not None,
                pair_index=pidx,
                component=comp,
                cluster=clusters[k].members,
            )
        )
    return SkeletonTree(tuple(vertices), tuple(edges))


def is_trivially_optimal(tree: SkeletonTree) -> bool:
    """True when every distinguished vertex is a tail of its component.

    When the residue characteristic differs from p this certifies that no
    folding applies, so the configuration is optimal.  In residue
    characteristic p the fixed tubes have positive radius and may collide
    at a branch vertex even when every distinguished vertex is a tail, so
    the predicate is only a heuristic there; the driver never relies on it.
    """
    return all(tree.valency(v.id) <= 1 for v in tree.distinguished())


def split_by_components(
    pcfg: PairedConfiguration, tree: SkeletonTree
) -> list[PairedConfiguration]:
    """One sub-configuration per component: the pairs whose axis meets it.

    A pair may appear in several components (its axis can pass through
    vertices of more than one).
    """
    out = []
    for comp in sorted({v.component for v in tree.vertices}):
        indices = sorted(
            {
                v.pair_index
                for v in tree.vertices
                if v.component == comp and v.pair_index is not None
            }
        )
        pairs = [pcfg.pairs[i] for i in indices]
        pairs.sort(key=lambda pr: 1 if pr[1].is_infinity else 0)
        out.append(PairedConfiguration(pcfg.ctx, tuple(pairs)))
    return out


def to_dot(tree: SkeletonTree) -> str:
    """Deterministic Graphviz DOT text for a skeleton forest."""
    lines = ["graph skeleton {", "  node [shape=circle fontsize=10];"]
    for v in tree.vertices:
        label = v.disc.key()
        attrs = ""
        if v.distinguished:
            label = f"v{v.pair_index}\\n{label}"
            attrs = " style=filled fillcolor=lightblue"
        lines.append(f'  n{v.id} [label="{label}"{attrs}];')
    for u, v, length in tree.edges:
        lines.append(f'  n{u} -- n{v} [label="{format_fraction(length)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def disc_image(m: Mobius, d: Disc) -> Disc:
    """Image of a disc under a Moebius map whose pole lies outside the disc.

    For pole-free discs the map scales distances by a constant, so the image
    is the disc around the image of the center with radius shifted by
    v(det) - 2 v(c z0 + d).
    """
    ctx = m.ctx
    den = ctx.add(ctx.mul(m.c, d.center), m.d)
    if ctx.is_zero(den):
        raise ValueError("pole of the map is the disc center")
    # pole inside the disc means the image is a disc complement
    if not ctx.is_zero(m.c):
        pole = ctx.neg(ctx.div(m.d, m.c))
        if d.contains_value(pole):
            raise ValueError("pole of the map lies inside the disc")
    shift = ctx.valuation(m.det()) - 2 * ctx.valuation(den)
    center = apply(m, PPoint(d.center))
    return Disc(ctx, center.value, d.radius + shift.fraction)


def transported_vertex_disc(ctx, values, members, m: Mobius) -> Disc:
    """Image of a cluster vertex, recomputed from transported member points."""
    imgs = [apply(m, PPoint(values[k])) for k in sorted(members)]
    if any(pt.is_infinity for pt in imgs):
        raise ValueError("a transported point landed at infinity")
    return min_disc(ctx, [pt.value for pt in imgs])
