"""The reduced convex hull of a paired configuration, as a metric forest.

The hull reads the skeleton the configuration already holds
(``clusters.Skeleton``): cluster depths from the step matrix, the flat
cluster tree and the pair discs, all in steps of the value group (1/e) Z;
it makes a ``Cluster`` record only for each vertex it keeps.  It owns
no disc metric of its own; an edge's length is the difference of the
logarithmic radii of its two cluster discs.  Radii and lengths become
``Fraction``s (steps / e) only in the ``Disc`` labels and the edges.
Positions are those of the skeleton, so ``SkeletonVertex.cluster`` indexes
``pcfg.skeleton().values``.  Vertices are listed, and each disc centred, in
pair order: a position's rank among the points listed pair by pair.  The
forest is what is left after removing the segment interiors that split the
points into two odd halves; its vertices are the minimal discs of clusters
of size >= 2, its edges connect even clusters to their parents, and the
*distinguished* vertices are those lying on a pair axis.  ``to_dot``
renders it as Graphviz text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .clusters import PairedConfiguration, canonical_pairs, check_separated
from .errors import NotPairedError, PairingError, RepeatedPointsError
from .valfield import FieldContext, format_fraction


class Disc(NamedTuple):
    """Closed disc {z : v(z - center) >= radius}, the label of a hull vertex."""

    ctx: FieldContext
    center: object
    radius: Fraction

    def key(self) -> str:
        return f"D({self.ctx.to_str(self.center)};{format_fraction(self.radius)})"

    def __repr__(self):
        return self.key()


class SkeletonVertex(NamedTuple):
    id: int
    disc: Disc
    distinguished: bool
    pair_index: int | None
    component: int
    cluster: frozenset[int]  # member positions into the skeleton's values


class SkeletonTree(NamedTuple):
    vertices: tuple[SkeletonVertex, ...]
    edges: tuple[tuple[int, int, Fraction], ...]

    # the three readings below are kept for demo 04, which shows the
    # forest's shape with them

    def valency(self, vid: int) -> int:
        return sum(1 for u, v, _ in self.edges if vid in (u, v))

    def distinguished(self) -> tuple[SkeletonVertex, ...]:
        return tuple(v for v in self.vertices if v.distinguished)

    def component_count(self) -> int:
        return len({v.component for v in self.vertices})


def reduced_convex_hull(pcfg: PairedConfiguration) -> SkeletonTree:
    """The reduced convex hull as a finite metric forest.

    Vertices are the minimal discs of clusters of size >= 2 of the finite
    points; an edge joins each even cluster to its parent cluster.  When
    infinity is absent the vertex of the minimal disc of the whole set is
    removed (together with its incident segments), splitting the top level.

    The pairs must be the canonical pairing of distinct points, and
    separated: the rules of ``clusters.canonical_pairs`` and
    ``clusters.check_separated``, applied to the skeleton the configuration
    already holds, paired with its own pairs (``canonical_pairs`` reads only
    the tree).  A ``pair_up`` result has passed both on that skeleton
    and is not checked again; otherwise NotPairedError is raised.
    """
    ctx = pcfg.ctx
    try:
        sk = pcfg.skeleton()
    except RepeatedPointsError:
        raise NotPairedError("the points are not distinct") from None
    has_inf = any(len(members) < 2 for members in sk.pair_points)
    if not pcfg._checked:
        try:
            # both list each pair's positions in ascending order
            canonical = canonical_pairs(sk, has_inf)
            if sorted(canonical) != sorted(sk.pair_points):
                raise NotPairedError(
                    "pairs are not the canonical pairing of the points"
                )
            check_separated(pcfg)
        except PairingError as exc:
            raise NotPairedError(str(exc)) from exc

    e, sizes, depths, parent = ctx.ramification, sk.sizes, sk.depths, sk.parent
    order = [x for pts in sk.pair_points for x in pts]
    rank = [0] * len(order)
    for r, x in enumerate(order):
        rank[x] = r
    # the vertex clusters' members, and each one's least pair-order rank;
    # without infinity the root goes.  Two clusters of one size are
    # disjoint, so the least rank orders them
    members, least = {}, {}
    for k, size in enumerate(sizes):
        if size >= 2 and (has_inf or parent[k] is not None):
            members[k] = sk.cluster(k).members
            least[k] = min(rank[x] for x in members[k])
    kept = sorted(least, key=lambda k: (-sizes[k], least[k]))
    ids = {k: vid for vid, k in enumerate(kept)}
    # minimal discs: the cluster depth as radius, and as center the member
    # of lowest rank
    discs = {k: (order[least[k]], depths[k]) for k in kept}

    # kept lists each cluster after its parent, so an even cluster joins its
    # kept parent's component and any other vertex starts the next one
    edges, components, count = [], [], 0
    for k in kept:
        par = parent[k]
        if sizes[k] % 2 == 0 and par in ids:
            length = Fraction(discs[k][1] - discs[par][1], e)
            edges.append((ids[k], ids[par], length))
            components.append(components[ids[par]])
        else:
            components.append(count)
            count += 1

    # the least pair whose axis holds each cluster's disc: a finite pair's
    # axis runs from each point's leaf up to their join, the chain's clusters
    # at least as deep as the pair's radius; the pair at infinity's, whose
    # radius is the root's depth, up the whole chain
    axis: dict[int, int] = {}
    for i, (pts, (_, r)) in enumerate(zip(sk.pair_points, sk.pair_discs)):
        for x in pts:
            k = sk.leaf[x]
            while k is not None and depths[k] >= r:
                axis.setdefault(k, i)
                k = parent[k]

    vertices = []
    for vid, k in enumerate(kept):
        center, radius = discs[k]
        pidx = axis.get(k)
        vertices.append(
            SkeletonVertex(
                id=vid,
                disc=Disc(ctx, sk.values[center], Fraction(radius, e)),
                distinguished=pidx is not None,
                pair_index=pidx,
                component=components[vid],
                cluster=members[k],
            )
        )
    return SkeletonTree(tuple(vertices), tuple(edges))


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
