"""The reduced convex hull of a paired configuration, as a metric forest.

The hull reads the skeleton the configuration already holds
(``clusters.Skeleton``): cluster depths from the step matrix, the flat
cluster tree and the pair discs, all in steps of the value group (1/e) Z.
It owns no disc metric of its own; an edge's length is the difference of
the logarithmic radii of its two cluster discs.  Radii and lengths become
``Fraction``s (steps / e) only in the ``Disc`` labels and the edges; over
an unramified field (e = 1) a step count is the ``Fraction``'s integer,
with no gcd taken.
Vertices are listed, and each disc centred, in pair order: a position's
rank among the skeleton's finite points listed pair by pair, read off
each cluster's slice of the flat tree's ``order``.  The forest is what is
left after removing the segment interiors that split the points into two
odd halves; its vertices are the minimal discs of clusters of size >= 2,
its edges connect even clusters to their parents, and the *distinguished*
vertices are those lying on a pair axis: their ``pair_index``, the least
such pair, is not None.  ``to_dot`` renders it as Graphviz text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .clusters import PairedConfiguration
from .errors import InvalidInputError
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
    pair_index: int | None
    component: int


class SkeletonTree(NamedTuple):
    vertices: tuple[SkeletonVertex, ...]
    edges: tuple[tuple[int, int, Fraction], ...]


def reduced_convex_hull(pcfg: PairedConfiguration) -> SkeletonTree:
    """The reduced convex hull as a finite metric forest.

    Vertices are the minimal discs of clusters of size >= 2 of the finite
    points; an edge joins each even cluster to its parent cluster.  When
    infinity is absent the vertex of the minimal disc of the whole set is
    removed (together with its incident segments), splitting the top level.

    It takes a ``pair_up`` result and reads the skeleton it holds, whose
    pairs are the canonical pairing of distinct points, and separated; they
    are not checked again.  A record made by hand holds no skeleton, and is
    refused (InvalidInputError).
    """
    ctx, sk = pcfg.ctx, pcfg.skeleton
    if sk is None:
        raise InvalidInputError(
            "the hull takes a pair_up result; this paired configuration holds no skeleton"
        )
    e, sizes, depths, parent, first = ctx.ramification, sk.sizes, sk.depths, sk.parent, sk.first
    exact = Fraction if e == 1 else lambda steps: Fraction(steps, e)
    order = [x for pts in sk.pair_points for x in pts]
    rank = [0] * len(order)
    for r, x in enumerate(order):
        rank[x] = r
    # the vertex clusters, each with its members' least pair-order rank,
    # read off the tree's slice of them.  Without infinity, that is with an
    # even number of finite points, the root (cluster 0) goes.  Two clusters
    # of one size are disjoint, so (-size, least rank) orders them, each
    # after its parent
    kept = []
    for k in range(0 if len(order) % 2 else 1, len(sizes)):
        if sizes[k] >= 2:
            members = sk.order[first[k] : first[k] + sizes[k]]
            kept.append((-sizes[k], min(map(rank.__getitem__, members)), k))
    kept.sort()

    # the least pair whose axis holds each cluster's disc: a finite pair's
    # axis runs from each point's leaf up to their join, the chain's clusters
    # at least as deep as the pair's radius; the pair at infinity's, whose
    # radius is the root's depth, up the whole chain.  Each walk starts above
    # the leaf, which is never a vertex
    axis: list = [None] * len(sizes)
    for i, (pts, (_, r)) in enumerate(zip(sk.pair_points, sk.pair_discs)):
        for x in pts:
            k = parent[sk.leaf[x]]
            while k is not None and depths[k] >= r:
                if axis[k] is None:
                    axis[k] = i
                k = parent[k]

    # each vertex is the minimal disc: the cluster depth as radius, and as
    # center the member of lowest rank.  An even cluster joins its kept
    # parent's component, listed before it, and any other vertex starts the
    # next one
    vertices, edges, ids, count = [], [], {}, 0
    for vid, (_, least, k) in enumerate(kept):
        ids[k] = vid
        up = parent[k]
        par = ids.get(up)
        if sizes[k] % 2 == 0 and par is not None:
            edges.append((vid, par, exact(depths[k] - depths[up])))
            component = vertices[par].component
        else:
            component, count = count, count + 1
        disc = Disc(ctx, sk.values[order[least]], exact(depths[k]))
        vertices.append(SkeletonVertex(vid, disc, axis[k], component))
    return SkeletonTree(tuple(vertices), tuple(edges))


def to_dot(tree: SkeletonTree) -> str:
    """Deterministic Graphviz DOT text for a skeleton forest."""
    lines = ["graph skeleton {", "  node [shape=circle fontsize=10];"]
    for v in tree.vertices:
        if v.pair_index is None:
            lines.append(f'  n{v.id} [label="{v.disc.key()}"];')
        else:
            lines.append(f'  n{v.id} [label="v{v.pair_index}\\n{v.disc.key()}"'
                         " style=filled fillcolor=lightblue];")
    for u, v, length in tree.edges:
        lines.append(f'  n{u} -- n{v} [label="{format_fraction(length)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
