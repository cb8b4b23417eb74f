"""Cluster data of point configurations and the canonical pairing test.

A *cluster* of a finite configuration is the intersection of its finite
points with an ultrametric disc; its *depth* is the minimal pairwise
valuation of differences (+infinity for singletons).  Clusters form a
laminar family, computed here as a recursive partition.

Inside a ``Skeleton`` every valuation is an ``int`` counting steps of the
value group (1/e) Z, e = ``FieldContext.ramification``: the step matrix,
cluster depths, disc radii and distances.  +infinity, found only on the
matrix diagonal and as a singleton's depth, is ``valfield.INF_STEPS``,
which compares above every int.  The values are lowered once per build to
integral numerators over one common denominator, so no entry needs field
arithmetic.  ``Val`` and ``Fraction`` appear only at the edges: the depths
``cluster_data`` returns and the margin of ``NotSeparatedError``.

A configuration is *clustered in rho-separated pairs* when two rules hold.
``canonical_pairs``: two points are equivalent when they lie in exactly the
same even-cardinality clusters (the point at infinity lies in none), and
every class has size two.  ``check_separated``: the axes spanned by the
pairs stay more than 2 rho apart, where rho = v(p)/(p-1) is the separation
radius of the field.  Both read a ``Skeleton``: ``pair_up`` applies them to
the one it builds, and the hull to the one a paired configuration holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import NotClusteredInPairsError, NotSeparatedError
from .projline import INFINITY, PPoint, point_str
from .valfield import INF_STEPS, FieldContext, Val


@dataclass(frozen=True)
class Configuration:
    """An ordered multiset of points of P^1(K)."""

    ctx: FieldContext
    points: tuple[PPoint, ...]

    @property
    def size(self) -> int:
        return len(self.points)

    def has_infinity(self) -> bool:
        return any(pt.is_infinity for pt in self.points)

    def finite_values(self) -> tuple:
        """Distinct finite point values, in first-occurrence order."""
        return tuple(
            dict.fromkeys(pt.value for pt in self.points if not pt.is_infinity)
        )

    def __repr__(self):
        inner = ", ".join(point_str(self.ctx, pt) for pt in self.points)
        return f"Configuration({{{inner}}})"


def configuration(ctx: FieldContext, values) -> Configuration:
    """Build a configuration from rationals / field elements / "inf" / None."""
    pts = []
    for v in values:
        if v is None or v == "inf" or (isinstance(v, PPoint) and v.is_infinity):
            pts.append(INFINITY)
        elif isinstance(v, PPoint):
            pts.append(v)
        elif isinstance(v, (int, Fraction)):
            pts.append(PPoint(ctx.from_fraction(v)))
        else:
            pts.append(PPoint(v))
    return Configuration(ctx, tuple(pts))


@dataclass(frozen=True)
class Cluster:
    """A cluster given by member indices into ``Configuration.finite_values``.

    ``depth`` is a ``Val``; in a ``Skeleton`` it counts steps of the value
    group."""

    members: frozenset[int]
    depth: Val | int


def _lowered_steps(ctx: FieldContext, values) -> tuple[tuple, int, tuple]:
    """(numerators A_x over a common denominator L, e v(L), step matrix).

    The step matrix holds e v(x_a - x_b) = e v(A_a - A_b) - e v(L) for
    every two of the values, and INF_STEPS on the diagonal.
    """
    ints, den_steps = ctx.lower(values)
    n = len(ints)
    sub, valuation = ctx.integers.sub, ctx.integral_valuation
    rows = [[INF_STEPS] * n for _ in range(n)]
    for a in range(n):
        row, x = rows[a], ints[a]
        for b in range(a + 1, n):
            row[b] = rows[b][a] = valuation(sub(x, ints[b])) - den_steps
    return tuple(ints), den_steps, tuple(tuple(row) for row in rows)


def cluster_data(cfg: Configuration, smat=None) -> tuple[Cluster, ...]:
    """Every cluster of the finite points, with depths as ``Val``s.

    The full finite set is always a cluster and every point is a singleton
    cluster of depth +infinity.  Members index into ``finite_values()``
    (multiplicities collapse).  Clusters come in pre-order: each one is
    followed at once by the clusters strictly inside it.  ``smat``, when
    given, is the step matrix of ``finite_values()``, and the depths are
    then left in its steps, as a ``Skeleton`` keeps them.
    """
    in_steps = smat is not None
    if not in_steps:
        smat = _lowered_steps(cfg.ctx, cfg.finite_values())[2]
    n = len(smat)

    out: list[Cluster] = []

    def recurse(idx: list[int]):
        if len(idx) == 1:
            out.append(Cluster(frozenset(idx), INF_STEPS))
            return
        depth = min(smat[i][j] for i in idx for j in idx if i < j)
        out.append(Cluster(frozenset(idx), depth))
        # children: equivalence classes of "valuation strictly above depth"
        remaining = list(idx)
        while remaining:
            seed = remaining.pop(0)
            block = [seed]
            rest = []
            for k in remaining:
                if smat[seed][k] > depth:
                    block.append(k)
                else:
                    rest.append(k)
            remaining = rest
            recurse(block)

    if n:
        recurse(list(range(n)))
    if in_steps:
        return tuple(out)
    to_val = cfg.ctx.val_of_steps
    return tuple(Cluster(c.members, to_val(c.depth)) for c in out)


class Skeleton(NamedTuple):
    """The cluster skeleton of a configuration: built once, then only read.

    ``values`` are the distinct finite values and ``index_of`` maps each
    back to its position.  ``ints`` are the values' integral numerators over
    one common denominator L, and ``den_steps`` is e v(L).  ``smat`` is the
    step matrix: e v(x_a - x_b), an ``int`` counting steps of the value
    group (1/e) Z, with ``INF_STEPS`` on the diagonal.  ``clusters`` is the
    laminar cluster tree in pre-order, with depths in steps (a singleton's
    is ``INF_STEPS``), ``parent[k]`` the position of the smallest cluster
    strictly containing cluster k (None for the root) and ``leaf[x]`` the
    position of the singleton cluster {x}.  A skeleton of a paired
    configuration also holds each pair's finite member indices and its
    minimal disc as (center index, radius in steps); the disc of the pair
    at infinity is that of all finite values.
    """

    values: tuple
    index_of: dict
    ints: tuple
    den_steps: int
    smat: tuple[tuple[int, ...], ...]
    clusters: tuple[Cluster, ...]
    parent: tuple[Optional[int], ...]
    leaf: tuple[int, ...]
    pair_members: tuple[frozenset[int], ...] = ()
    pair_discs: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def build(cfg: Configuration) -> "Skeleton":
        """One step matrix and one ``cluster_data`` call."""
        values = cfg.finite_values()
        ints, den_steps, smat = _lowered_steps(cfg.ctx, values)
        clusters = cluster_data(cfg, smat)
        return Skeleton._assemble(values, ints, den_steps, smat, clusters)

    @staticmethod
    def _assemble(
        values, ints, den_steps, smat, clusters, pair_members=(), pair_discs=()
    ):
        parent: list[Optional[int]] = []
        leaf = [0] * len(values)
        stack: list[int] = []
        for k, c in enumerate(clusters):
            while stack and not c.members < clusters[stack[-1]].members:
                stack.pop()
            parent.append(stack[-1] if stack else None)
            stack.append(k)
            if len(c.members) == 1:
                (x,) = c.members
                leaf[x] = k
        return Skeleton(
            values,
            {v: k for k, v in enumerate(values)},
            ints,
            den_steps,
            smat,
            clusters,
            tuple(parent),
            tuple(leaf),
            pair_members,
            pair_discs,
        )

    def for_pairs(self, pairs) -> "Skeleton":
        """This skeleton relabelled into the order of the pairs' finite
        points, with each pair's member indices and minimal disc.  No
        valuation is computed."""
        points = [pt for pair in pairs for pt in pair if not pt.is_infinity]
        order = tuple(dict.fromkeys(pt.value for pt in points))
        old = [self.index_of[v] for v in order]
        new_of = {o: k for k, o in enumerate(old)}
        smat = tuple(tuple(self.smat[a][b] for b in old) for a in old)
        # Each member set is built from an ascending list, as cluster_data
        # builds it: the hull centres a cluster's disc at the set's first
        # member in iteration order, and that order depends on insertion.
        clusters = tuple(
            Cluster(frozenset(sorted(new_of[k] for k in c.members)), c.depth)
            for c in self.clusters
        )
        index = {v: k for k, v in enumerate(order)}
        members, discs = [], []
        for pair in pairs:
            idx = [index[pt.value] for pt in pair if not pt.is_infinity]
            members.append(frozenset(idx))
            if len(idx) < len(pair):
                idx = list(range(len(order)))
            discs.append(_smallest_disc(smat, idx))
        ints = tuple(self.ints[o] for o in old)
        return Skeleton._assemble(
            order, ints, self.den_steps, smat, clusters, tuple(members), tuple(discs)
        )

    def chain(self, members: frozenset[int]):
        """The clusters containing the given indices, smallest first."""
        k = self.leaf[next(iter(members))]
        while k is not None:
            c = self.clusters[k]
            if members <= c.members:
                yield c
            k = self.parent[k]

    def minimal_odd(self, members: frozenset[int]) -> Optional[frozenset[int]]:
        """The smallest odd cluster containing the given indices, if any."""
        for c in self.chain(members):
            if len(c.members) % 2 == 1:
                return c.members
        return None

    def join(self, c1: int, r1: int, c2: int, r2: int) -> int:
        """Radius of the smallest disc containing the discs (c1, r1), (c2, r2)."""
        return min(r1, r2, self.smat[c1][c2])

    def axis_distance(self, i: int, j: int) -> int:
        """Tree distance between the axes spanned by pairs i and j, in steps.

        With u the maximal valuation of a cross difference and d_k the depth
        of pair k, the distance is max(0, d_i - u) + max(0, d_j - u); the
        depth term of a pair containing infinity is dropped (its axis runs
        upward without bound).
        """
        smat = self.smat
        fin_i, fin_j = self.pair_members[i], self.pair_members[j]
        u = max(smat[x][y] for x in fin_i for y in fin_j)
        if u is INF_STEPS:
            raise ValueError("axes share a point")
        total = 0
        for fin in (fin_i, fin_j):
            if len(fin) == 2:
                a, b = fin
                total += max(0, smat[a][b] - u)
        return total


def _smallest_disc(smat, idx) -> tuple[int, int]:
    """(center, radius) of the smallest disc around the indexed values: the
    first is the center; a single value gets radius 0."""
    center = idx[0]
    return center, min((smat[x][center] for x in idx if x != center), default=0)


@dataclass(frozen=True)
class PairedConfiguration:
    """2g+2 distinct points partitioned into g+1 indexed pairs.

    The pair containing infinity (when present) always has the last index,
    with infinity as its second member.  The cluster skeleton is built on
    first use and kept; ``pair_up`` hands over the one it built.
    """

    ctx: FieldContext
    pairs: tuple[tuple[PPoint, PPoint], ...]
    _skeleton: Optional[Skeleton] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def g(self) -> int:
        return len(self.pairs) - 1

    def points(self) -> tuple[PPoint, ...]:
        return tuple(pt for pair in self.pairs for pt in pair)

    def configuration(self) -> Configuration:
        return Configuration(self.ctx, self.points())

    def skeleton(self) -> Skeleton:
        """The skeleton, indexed like ``configuration().finite_values()``.

        Deterministic, so two threads building it at once store equal views.
        """
        if self._skeleton is None:
            self._attach(Skeleton.build(self.configuration()))
        return self._skeleton

    def _attach(self, sk: Skeleton) -> None:
        """Keep a skeleton of these points, relabelled into pair order."""
        object.__setattr__(self, "_skeleton", sk.for_pairs(self.pairs))

    def pairing(self) -> set[frozenset[PPoint]]:
        """The pairs as unordered point sets, compared by exact value."""
        return {frozenset(pair) for pair in self.pairs}

    def __repr__(self):
        inner = ", ".join(
            "{%s, %s}" % (point_str(self.ctx, a), point_str(self.ctx, b))
            for a, b in self.pairs
        )
        return f"PairedConfiguration({inner})"


def canonical_pairs(
    sk: Skeleton, has_infinity: bool
) -> tuple[tuple[PPoint, PPoint], ...]:
    """The canonical pairing of the skeleton's values (and infinity, when
    present), or NotClusteredInPairsError.

    Points are equivalent when they lie in exactly the same even-cardinality
    clusters (infinity lies in none); every class must have size two.
    Finite pairs come first, by depth of the minimal pair disc descending,
    ties broken by value index (first occurrence in the input, for a
    skeleton built from it); the pair containing infinity comes last, with
    infinity as its second member.
    """
    even = [c.members for c in sk.clusters if len(c.members) % 2 == 0]
    classes: dict[frozenset[int], list] = {}
    for x in range(len(sk.values)):
        profile = frozenset(k for k, members in enumerate(even) if x in members)
        classes.setdefault(profile, []).append(x)
    if has_infinity:
        classes.setdefault(frozenset(), []).append(None)
    if any(len(members) != 2 for members in classes.values()):
        raise NotClusteredInPairsError(
            "even-cluster equivalence classes do not all have size 2"
        )
    finite = sorted(
        (ab for ab in classes.values() if None not in ab),
        key=lambda ab: (-sk.smat[ab[0]][ab[1]], ab[0]),
    )
    return tuple(
        tuple(INFINITY if x is None else PPoint(sk.values[x]) for x in ab)
        for ab in finite + [ab for ab in classes.values() if None in ab]
    )


def check_separated(pcfg: PairedConfiguration) -> None:
    """NotSeparatedError unless every two pair axes stay more than 2 rho
    apart; read off the configuration's skeleton."""
    view, n = pcfg.skeleton(), len(pcfg.pairs)
    margin = min(
        (view.axis_distance(i, j) for i in range(n) for j in range(i + 1, n)),
        default=None,
    )
    if margin is not None and margin <= 2 * pcfg.ctx.rho_steps:
        raise NotSeparatedError(Fraction(margin, pcfg.ctx.ramification))


def pair_up(cfg: Configuration) -> PairedConfiguration:
    """Partition into the canonical pairs (``canonical_pairs``), or raise
    NotClusteredInPairsError / NotSeparatedError (``check_separated``).

    Repeated points raise ValueError.  The returned configuration keeps the
    one skeleton built here.
    """
    if len(set(cfg.points)) != cfg.size:
        raise ValueError("pair_up requires distinct points")
    sk = Skeleton.build(cfg)
    pcfg = PairedConfiguration(cfg.ctx, canonical_pairs(sk, cfg.has_infinity()))
    pcfg._attach(sk)
    check_separated(pcfg)
    return pcfg


def repetition_report(cfg: Configuration) -> tuple[int, Configuration]:
    """(number of distinct values repeated with multiplicity >= 2, underlying set)."""
    counts: dict[PPoint, int] = {}
    for pt in cfg.points:
        counts[pt] = counts.get(pt, 0) + 1
    repeated = sum(1 for c in counts.values() if c >= 2)
    return repeated, Configuration(cfg.ctx, tuple(counts))
