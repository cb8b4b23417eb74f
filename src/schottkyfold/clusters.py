"""Cluster data of point configurations and the canonical pairing test.

A *cluster* of a finite configuration is the intersection of its finite
points with an ultrametric disc; its *depth* is the minimal pairwise
valuation of differences (+infinity for singletons).  Clusters form a
laminar family, computed by the one tree builder, ``cluster_data``, as a
partition that values only the differences the strong triangle
inequality leaves open.  It returns the ``Skeleton``, which keeps the tree
as flat pre-order tuples: each cluster is an index, with its size, depth,
parent and the start of its members' span in one ordering of the points.
The fold pass and the hull read only those; no cluster is made a record.

Inside a ``Skeleton`` every valuation is an ``int`` counting steps of the
value group (1/e) Z, e = ``FieldContext.ramification``: the step matrix,
cluster depths, disc radii and distances.  +infinity, found only on the
matrix diagonal and as a singleton's depth, is ``valfield.INF_STEPS``,
which compares above every int.  The values are lowered once per build to
integral numerators over one common denominator, so no entry needs field
arithmetic.  A ``Fraction`` appears only at the edge, converted from steps
and never computed with: the margin in the message of a ``PairingError``
that names ``PairingFailure.NOT_SEPARATED``.
``configuration`` makes each finite point through ``projline.finite``,
which refuses floats.  Points are named by their input position among the
finite points, never hashed and never permuted: a repeated value has a
repeated numerator, found as a zero difference while the tree is built.
It is the one place that decides that two points are equal: its
``RepeatedPointsError`` names the repeats by position, and the fold loop
reads them.

A configuration is *clustered in rho-separated pairs* when two rules hold.
``canonical_pairs``: two points are equivalent when they lie in exactly the
same even-cardinality clusters (the point at infinity lies in none), that
is, when the smallest of them is the same, and every class has size two.
``check_separated``: the axes spanned by the pairs stay more than 2 rho
apart, where rho = v(p)/(p-1) is the separation radius of the field.  Both
read positions in a ``Skeleton``.  ``pair_up`` alone decides them, once per
pass, on the tree it builds in input order: it keeps the pairs as pairs of
input positions and hands the skeleton over in the ``PairedConfiguration``
it returns, which the fold pass and the hull read and do not check again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import PairingError, PairingFailure, RepeatedPointsError
from .projline import INFINITY, PPoint, finite, point_str
from .valfield import INF_STEPS, FieldContext, int_valuation


class Configuration(NamedTuple):
    """An ordered multiset of points of P^1(K)."""

    ctx: FieldContext
    points: tuple[PPoint, ...]

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
        else:
            pts.append(finite(ctx, v))
    return Configuration(ctx, tuple(pts))


def cluster_data(cfg: Configuration) -> Skeleton:
    """The skeleton of the configuration's finite points, with no pairs:
    the step matrix and the cluster tree, built together.

    The full finite set is always a cluster and every point is a singleton
    cluster of depth +infinity.  Members are positions among the finite
    points, in input order.  Clusters come in pre-order: each one is
    followed at once by the clusters strictly inside it.  The tree is kept
    as flat tuples (see ``Skeleton``), and no cluster is made a record.  A
    second infinity or two equal values is a repeated point: a
    RepeatedPointsError whose ``classes`` group the indices into
    ``cfg.points`` by the numerators already lowered, with the tree left
    unfinished.

    The values are lowered once (with no valuation of the denominator L
    when L = 1), and only the differences that the strong triangle
    inequality leaves open are valued.  The root's first point is valued
    against every other point.  Inside a cluster of depth d whose first
    point x has its full row, the members above d from x form x's child.
    The first point y of each later child is valued only against the
    members not yet placed, and each is put in y's child or left for the
    next in the same loop; every other entry of y's row is x's, but d
    towards x's child, for v(y - z) = min(v(y - x), v(x - z)) whenever the
    two differ.  So each row is built once, when its point first leads a
    cluster, and made a tuple once, at the end.  A cluster of two needs no
    loop: its depth is x's entry for y, and its two singletons follow it at
    once.  Equal values never fall into different children, so their zero
    difference is met while one of them is valued: a repeated point
    (RepeatedPointsError).  The tree is grown from a stack, not by
    recursion, so no depth of nesting meets the interpreter's recursion
    limit.  Each cluster is kept as one (parent, first, size, depth) record
    while the tree grows, and the records become the four tuples at the
    end.
    """
    values = tuple([pt.value for pt in cfg.points if pt.value is not None])
    ctx = cfg.ctx
    ints, den = ctx.lower(values)
    if len(values) + 1 < len(cfg.points):
        raise _repeated(cfg, ints)
    den_steps = 0 if den == 1 else ctx.ramification * int_valuation(den, ctx.ell)
    n = len(ints)
    sub, zero = ctx.integers.sub, ctx.integers.zero
    valuation = ctx.integral_valuation
    rows: list = [None] * n
    tree: list[tuple] = []  # (parent, first, size, depth) of each cluster
    order: list[int] = []
    leaf = [0] * n

    # clusters in pre-order, from a stack of (members, parent position);
    # each cluster's first point has its full row.  A cluster's singletons
    # come right after it (popped, or placed by a cluster of two), so its
    # members are the next ones in order.
    stack: list = []
    if n:
        row, lead = [INF_STEPS] * n, ints[0]
        for b in range(1, n):
            d = sub(lead, ints[b])
            if d == zero:
                raise _repeated(cfg, ints)
            row[b] = valuation(d) - den_steps
        rows[0] = row
        stack.append((list(range(n)), None))
    while stack:
        idx, up = stack.pop()
        k, at, x, size = len(tree), len(order), idx[0], len(idx)
        if size == 1:
            leaf[x] = k
            tree.append((up, at, 1, INF_STEPS))
            order.append(x)
            continue
        top = rows[x]
        if size == 2:
            # two singletons follow at once; y's row is x's, but the depth towards x
            y = idx[1]
            depth = top[y]
            row = rows[y] = top.copy()
            row[x], row[y] = depth, INF_STEPS
            tree += [(up, at, 2, depth), (k, at, 1, INF_STEPS), (k, at + 1, 1, INF_STEPS)]
            leaf[x], leaf[y] = k + 1, k + 2
            order += idx
            continue
        others = idx[1:]
        depth = min(map(top.__getitem__, others))
        tree.append((up, at, size, depth))
        # children: equivalence classes of "valuation strictly above depth".
        # x's child is split off x's row; each later child's first point a
        # is valued against the members not yet placed, which splits it off
        # in the same loop
        block, rest = [x], []
        for b in others:
            (block if top[b] > depth else rest).append(b)
        children = [block]
        while rest:
            a, others = rest[0], rest[1:]
            row = rows[a] = top.copy()
            for b in children[0]:
                row[b] = depth
            row[a] = INF_STEPS
            block, rest, lead = [a], [], ints[a]
            for b in others:
                d = sub(lead, ints[b])
                if d == zero:
                    raise _repeated(cfg, ints)
                steps = row[b] = valuation(d) - den_steps
                (block if steps > depth else rest).append(b)
            children.append(block)
        for block in reversed(children):
            stack.append((block, k))
    parent, first, sizes, depths = zip(*tree) if tree else ((),) * 4
    return Skeleton(
        values, tuple(ints), den, den_steps, tuple(map(tuple, rows)), sizes, depths,
        parent, first, tuple(order), tuple(leaf),
    )


def _repeated(cfg: Configuration, ints: list) -> RepeatedPointsError:
    """The refusal of a configuration that repeats a point, naming its
    classes: the indices into ``cfg.points`` of each value met more than
    once, grouped by equal numerators ``ints`` over the one denominator,
    with infinity under None.  A class is made at its first index, so the
    classes come in that order."""
    leads: list = []
    classes: list[list[int]] = []
    lowered = iter(ints)
    for k, pt in enumerate(cfg.points):
        a = None if pt.value is None else next(lowered)
        if a not in leads:
            leads.append(a)
            classes.append([])
        classes[leads.index(a)].append(k)
    return RepeatedPointsError(
        "the points are not distinct", tuple([tuple(c) for c in classes if len(c) > 1])
    )


class Skeleton(NamedTuple):
    """The cluster skeleton of a configuration: built once, then only read.

    Points are named by position, never looked up by value: a position is
    the place of a finite point among the configuration's finite points,
    in input order.  ``pair_points[l]`` holds the positions of pair l's
    finite points, ascending (one for a pair with infinity).  ``values``
    are the finite values and ``ints`` their integral numerators over one
    common denominator L = ``den`` (the fold step reads its points here),
    and ``den_steps`` is e v(L).  ``smat`` is the full step matrix: e v(x_a
    - x_b), an ``int`` counting steps of the value group (1/e) Z, with
    ``INF_STEPS`` on the diagonal; :func:`cluster_data` writes most
    entries without a valuation, as the depth of the cluster that
    separates the two points.

    The laminar cluster tree is kept flat, in pre-order: cluster k is an
    index into the tuples ``sizes`` (its number of members), ``depths``
    (in steps; a singleton's is ``INF_STEPS``), ``parent`` (the index of
    the smallest cluster strictly containing it, None for the root) and
    ``first``.  ``order`` lists the positions in the order the tree's
    pre-order meets their singletons, so cluster k's members are
    ``order[first[k] : first[k] + sizes[k]]``.  ``leaf[x]`` is the index of
    the singleton {x}, so x's index in ``order`` is ``first[leaf[x]]``, and
    x lies in cluster k iff first[k] <= first[leaf[x]] < first[k] +
    sizes[k].  The fold pass and the hull read only these tuples.

    ``pair_discs[l]`` is pair l's minimal disc as (center position, radius
    in steps); the disc of the pair at infinity is that of all finite
    values, centred at the first point of pair 0.  ``pair_odd[l]`` is the
    index of the smallest odd cluster containing a finite pair l (None for
    the pair at infinity, or where there is none), and
    ``pair_odd_depths[l]`` the depths of all the odd clusters containing
    it, smallest cluster (deepest) first; () for the pair at infinity.  The
    fold pass reads its target rule off these depths and the step matrix
    (``folding.targets``).  ``pair_gaps`` holds the distance in steps
    between the axes of every two pairs k < l, in the order (0, 1), (0,
    2), ..., (1, 2), ...: with u the largest entry between their points and
    r their disc radii, max(0, r_k - u) + max(0, r_l - u).  The term of the
    pair at infinity, whose axis runs upward without bound, is 0: its
    radius is the root's depth.  ``check_separated`` reads their least, and
    the fold loop's termination measure is their sum.  The pair fields are
    empty until :meth:`paired` adds them for the pairs its caller names.
    """

    values: tuple
    ints: tuple
    den: int
    den_steps: int
    smat: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    depths: tuple[int, ...]
    parent: tuple[Optional[int], ...]
    first: tuple[int, ...]
    order: tuple[int, ...]
    leaf: tuple[int, ...]
    pair_points: tuple[tuple[int, ...], ...] = ()
    pair_discs: tuple[tuple[int, int], ...] = ()
    pair_odd: tuple[Optional[int], ...] = ()
    pair_odd_depths: tuple[tuple[int, ...], ...] = ()
    pair_gaps: tuple[int, ...] = ()

    def paired(self, pairs: tuple[tuple[int, ...], ...]) -> "Skeleton":
        """The skeleton with the pairs ``pairs`` (tuples of positions) and what
        is read off them: each pair's minimal disc, each finite pair's odd
        clusters from one walk of its chain (:meth:`chain`), the smallest one
        and the depths of all, and then every axis gap, from the two
        step-matrix rows of each pair, looked up once.  It is one new
        skeleton, made in one call from this one's tree fields and the pair
        fields."""
        sizes, depths, smat = self.sizes, self.depths, self.smat
        # the disc of the pair at infinity is that of all finite values
        top = depths[0] if len(self.values) > 1 else 0
        # each pair's two rows (its one point's twice at infinity), its
        # positions and its radius
        discs, ends, odd, odd_depths = [], [], [], []
        for pts in pairs:
            a = pts[0]
            row_a = smat[a]
            if len(pts) == 2:
                b = pts[1]
                r = row_a[b]
                discs.append((a, r))
                walk = []
                for k in self.chain(pts):
                    if sizes[k] % 2:
                        walk.append(k)
                odd.append(walk[0] if walk else None)
                odd_depths.append(tuple(map(depths.__getitem__, walk)))
                ends.append((row_a, smat[b], a, b, r))
            else:
                discs.append((pairs[0][0], top))
                odd.append(None)
                odd_depths.append(())
                ends.append((row_a, row_a, a, a, top))
        gaps = []
        for k, (row_a, row_b, _, _, r_k) in enumerate(ends):
            for _, _, y, z, r_l in ends[k + 1:]:
                # u is the largest of three entries, by two compares; no
                # row_b[z]: where it alone is largest, r_k = row_a[z] and
                # r_l = row_b[y]
                u = row_a[y]
                if row_a[z] > u:
                    u = row_a[z]
                if row_b[y] > u:
                    u = row_b[y]
                gaps.append((r_k - u if r_k > u else 0) + (r_l - u if r_l > u else 0))
        # the eleven fields of the tree, then the five of the pairs
        return Skeleton._make(
            self[:11] + (pairs, tuple(discs), tuple(odd), tuple(odd_depths), tuple(gaps))
        )

    def chain(self, members: tuple[int, ...]) -> list[int]:
        """The indices of the clusters containing the given positions,
        smallest first, as a list walked in one plain loop."""
        # walking up from the first member's leaf, only the last can be
        # missing, and once a cluster holds it so do all above
        first, sizes, parent, leaf = self.first, self.sizes, self.parent, self.leaf
        k, at = leaf[members[0]], first[leaf[members[-1]]]
        while not first[k] <= at < first[k] + sizes[k]:
            k = parent[k]
        walk = []
        while k is not None:
            walk.append(k)
            k = parent[k]
        return walk


class PairedConfiguration(NamedTuple):
    """2g+2 distinct points partitioned into g+1 indexed pairs.

    The pair containing infinity (when present) always has the last index,
    with infinity as its second member.  ``skeleton`` is the one ``pair_up``
    built on its input and paired with its canonical pairs, the pairs that
    passed ``canonical_pairs`` and ``check_separated``.  A record made by
    hand has none: the audit, which reads only ``ctx`` and ``pairs``, needs
    none, and the fold pass and the hull take a ``pair_up`` result.
    """

    ctx: FieldContext
    pairs: tuple[tuple[PPoint, PPoint], ...]
    skeleton: Optional[Skeleton] = None

    @property
    def g(self) -> int:
        return len(self.pairs) - 1

    def points(self) -> tuple[PPoint, ...]:
        return tuple(pt for pair in self.pairs for pt in pair)

    def configuration(self) -> Configuration:
        return Configuration(self.ctx, self.points())

    def __repr__(self):
        inner = ", ".join(
            "{%s, %s}" % (point_str(self.ctx, a), point_str(self.ctx, b))
            for a, b in self.pairs
        )
        return f"PairedConfiguration({inner})"


def even_keys(sk: Skeleton) -> list[Optional[int]]:
    """Each position's key for :func:`canonical_pairs`: the smallest even
    cluster on its leaf's chain, walking up from the leaf's parent (the
    leaf, a singleton, is odd), or None."""
    keys, sizes, parent = [], sk.sizes, sk.parent
    for k in sk.leaf:
        k = parent[k]
        while k is not None and sizes[k] % 2:
            k = parent[k]
        keys.append(k)
    return keys


def canonical_pairs(sk: Skeleton, has_infinity: bool) -> tuple[tuple[int, ...], ...]:
    """The canonical pairing of the positions of a skeleton (and infinity,
    when present), or a PairingError naming NOT_CLUSTERED_IN_PAIRS.

    Points are equivalent when they lie in exactly the same even-cardinality
    clusters (infinity lies in none); every class must have size two.  The
    even clusters through a point form a chain, so two points share all of
    them exactly when they share the smallest: :func:`even_keys`, with
    infinity under None.  Each pair lists its positions in ascending order.
    Finite pairs come first, by depth of the minimal pair disc descending,
    ties broken by position (first occurrence in the input, for a tree
    built in input order); the pair containing infinity comes last and
    lists its finite point only.

    The classes are paired in one loop over the keys: a position waits
    under its key until the second member comes, and the key then holds -1,
    so a third member is refused at once.  After the loop, the pairs found
    (infinity's being the one position left waiting under None) must
    account for every point.
    """
    keys, waiting, smat, finite = even_keys(sk), {}, sk.smat, []
    for x, key in enumerate(keys):
        a = waiting.setdefault(key, x)
        if a < 0:
            break  # a third member
        if a != x:
            waiting[key] = -1
            finite.append((-smat[a][x], a, x))
    else:
        last = ((waiting[None],),) if has_infinity and waiting.get(None, -1) >= 0 else ()
        if 2 * (len(finite) + len(last)) == len(keys) + has_infinity:
            finite.sort()
            return tuple([(a, b) for _, a, b in finite]) + last
    raise PairingError(PairingFailure.NOT_CLUSTERED_IN_PAIRS,
                       "even-cluster equivalence classes do not all have size 2")


def check_separated(pcfg: PairedConfiguration) -> None:
    """A PairingError naming NOT_SEPARATED unless every two pair axes stay
    more than 2 rho apart; its message gives the least of the skeleton's
    ``pair_gaps`` as the margin."""
    gaps = pcfg.skeleton.pair_gaps
    if gaps and min(gaps) <= 2 * pcfg.ctx.rho_steps:
        margin = Fraction(min(gaps), pcfg.ctx.ramification)
        raise PairingError(PairingFailure.NOT_SEPARATED,
                           f"separation margin {margin} is not > twice the radius")


def pair_up(cfg: Configuration) -> PairedConfiguration:
    """Partition into the canonical pairs (``canonical_pairs``), or raise a
    PairingError from it or from ``check_separated``, whose ``failure``
    names the rule that broke.

    Repeated points raise RepeatedPointsError, a ValueError, before either
    rule runs.  The returned configuration keeps the one skeleton built
    here, on ``cfg`` in input order.  Its pairs hold ``cfg``'s own points:
    a skeleton position indexes the finite ones, and infinity is present
    when there are fewer of them than points.
    """
    sk = cluster_data(cfg)
    held = [pt for pt in cfg.points if pt.value is not None]
    has_inf = len(held) < len(cfg.points)
    sk = sk.paired(canonical_pairs(sk, has_inf))
    # the pair at infinity, last, lists its finite point only
    pairs = [(held[pts[0]], held[pts[1]] if len(pts) == 2 else INFINITY) for pts in sk.pair_points]
    pcfg = PairedConfiguration(cfg.ctx, tuple(pairs), sk)
    check_separated(pcfg)
    return pcfg

