"""Value-route disc geometry: an independent check of the skeleton.

The program reads discs off the cluster skeleton as (center index, radius)
pairs.  These functions recompute discs and distances from the field
values, so tests can check paper claims by a second route: pair discs and
hull vertices are minimal discs, d~_j(i) sits at distance rho from axis j,
a fold shrinks distinguished distances, and a folded generator is a
conjugate.  ``skeleton_disc`` and ``pair_disc`` turn the skeleton's index
pairs into ``Disc`` values for the comparison.  ``paired_by_hand`` gives a
pairing made by hand the skeleton ``pair_up`` would hand over, with no
pairing rule checked.

``repetition_by_value``, ``repeat_classes_by_value`` and
``repeat_verdict_by_value`` find repeated points by hashing them, the
value route: the references for ``clusters.repetition_report``, the
``classes`` of ``RepeatedPointsError`` and ``run_algorithm``'s repeat
path, which read the positions ``cluster_data`` finds equal.

``fold_exponent`` is the fold test on field cross ratios, by division and
``FieldContext.valuation``: the reference for the integer scan of
``folding.find_fold_exponent``.  ``target_by_chain``,
``pushed_back_by_chain`` and ``select_by_chain`` are the fold pass's
target rules by walking cluster chains found by membership,
``branch_by_valuation`` its branch and ``axis_gaps_by_valuation`` the
axis gaps of every two pairs (the separation margin is their least) by
field valuations: the references for the closed forms the program reads
off step-matrix rows.  ``pairwise_depth``,
``smallest_superset`` and ``even_profile`` are the cluster tree's
definitions: the least valuation over every two members, the parent as
the smallest strict superset, and a point's even clusters by membership;
``clusters_in_preorder`` lists every cluster, found as a ball of field
valuations, in the pre-order the skeleton keeps its flat tree in.

``order_p_fixing_by_fractions`` and ``apply_by_fractions`` are the order-p
map and the Moebius action by field arithmetic on ``Fraction``s, with the
canonical scale of ``mobius_by_fractions``: the reference for the integer
constructor ``projline.order_p_matrix`` and the integer action
``projline.image``.  ``classify_by_fractions`` classifies a map from its
trace and determinant as field elements, with the valuations of the second
half: the reference for ``projline.classify`` on integers.  A map's
integer entries become field elements through ``element``, and
``identity`` and ``inverse`` build maps the same way.

Elements are added, subtracted and compared with zero by ``field_add``,
``field_sub`` and ``field_is_zero`` (with ``field_zero`` and
``field_one``), on ``Fraction``s and on coefficient tuples, next to the
products and quotients of ``field_mul`` and ``field_div``: the reference
adds, multiplies and divides elements without the field context, which
only builds and values them.

The second half is cyclotomic field arithmetic by polynomial division over
Q, an independent check of the field layer's integer kernels: products and
inverses reduce modulo the cyclotomic polynomial by long division and
extended Euclid, and valuations come from the norm, a resultant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, permutations, product
from math import gcd, lcm

from schottkyfold.clusters import Configuration, PairedConfiguration, cluster_data
from schottkyfold.errors import PairingFailure
from schottkyfold.folding import FoldWitness, NotGood, Redundant
from schottkyfold.hull import Disc
from schottkyfold.oracle import GroupWord, word_matrix
from schottkyfold.projline import (INFINITY, ElementClass, MapKind, Mobius, PPoint, apply,
                                   compose, proj_eq)
from schottkyfold.valfield import INF_STEPS, FieldKind, Val, int_valuation


def at_least(v: Val, r) -> bool:
    """v >= r for a valuation v, which may be infinite, and a rational r."""
    return v.is_infinite or v.fraction >= r


def above(v: Val, r) -> bool:
    """v > r for a valuation v, which may be infinite, and a rational r."""
    return v.is_infinite or v.fraction > r


def disc(ctx, center, radius) -> Disc:
    if isinstance(center, (int, Fraction)):
        center = ctx.from_fraction(center)
    return Disc(ctx, center, Fraction(radius))


def same(d1: Disc, d2: Disc) -> bool:
    sep = d1.ctx.valuation(field_sub(d1.ctx, d2.center, d1.center))
    return d1.radius == d2.radius and at_least(sep, d1.radius)


def join(d1: Disc, d2: Disc) -> Disc:
    """The smallest closed disc containing both inputs."""
    ctx = d1.ctx
    r = min(d1.radius, d2.radius)
    sep = ctx.valuation(field_sub(ctx, d1.center, d2.center))
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
        v = ctx.valuation(field_sub(ctx, x, center))
        if not v.is_infinite and (radius is None or v.fraction < radius):
            radius = v.fraction
    if radius is None:
        # singleton (possibly repeated); radius is unconstrained upward, use 0
        radius = Fraction(0)
    return Disc(ctx, center, radius)


def paired_by_hand(ctx, pairs) -> PairedConfiguration:
    """The pairs as a ``PairedConfiguration`` holding a skeleton, which
    checks no pairing rule: the skeleton is built on the points listed pair
    by pair, its finite points numbered in that order, and paired with the
    pairs as given.  RepeatedPointsError if the points are not distinct."""
    pcfg = PairedConfiguration(ctx, pairs)
    k = count()
    positions = tuple(tuple(next(k) for pt in p if not pt.is_infinity) for p in pairs)
    return pcfg._replace(skeleton=cluster_data(pcfg.configuration()).paired(positions))


def repetition_by_value(cfg) -> tuple[int, Configuration]:
    """(the number of values met more than once, the underlying set), from
    a dict keyed by the points, which keeps each value's first occurrence
    in order."""
    counts: dict = {}
    for pt in cfg.points:
        counts[pt] = counts.get(pt, 0) + 1
    return sum(c >= 2 for c in counts.values()), Configuration(cfg.ctx, tuple(counts))


def repeat_classes_by_value(cfg) -> tuple[tuple[int, ...], ...]:
    """For each value met more than once, infinity included, its indices
    into ``cfg.points``, ascending; the classes in order of first index."""
    at: dict = {}
    for k, pt in enumerate(cfg.points):
        at.setdefault(pt, []).append(k)
    return tuple(tuple(ks) for ks in at.values() if len(ks) > 1)


def repeat_verdict_by_value(cfg, trace):
    """``run_algorithm``'s verdict on a set with a repeated point, reached
    after the folds of ``trace`` (a tuple), with every point hashed.  After
    a fold the set lists inherited pair k at (2k, 2k + 1): two distinct
    pairs, as sets of points, that share a point give NotGood
    (SHARED_FIXED_POINT).  Otherwise an even number of repeated values is
    Redundant, with the underlying set, and an odd one NotGood
    (NOT_CLUSTERED_IN_PAIRS)."""
    if trace:
        pairs = {frozenset(cfg.points[k : k + 2]) for k in range(0, cfg.size, 2)}
        if sum(map(len, pairs)) > len(frozenset().union(*pairs)):
            return NotGood(PairingFailure.SHARED_FIXED_POINT, trace)
    repeated, underlying = repetition_by_value(cfg)
    if repeated % 2 == 0:
        return Redundant(underlying, trace)
    return NotGood(PairingFailure.NOT_CLUSTERED_IN_PAIRS, trace)


def skeleton_disc(pcfg, target):
    """A skeleton disc (center index, radius in steps of (1/e) Z) as a
    Disc; None stays None."""
    if target is None:
        return None
    center, radius = target
    radius = Fraction(radius, pcfg.ctx.ramification)
    return Disc(pcfg.ctx, pcfg.skeleton.values[center], radius)


def pair_disc(pcfg, i: int) -> Disc:
    """The skeleton's minimal disc of pair i (of all finite points for the
    pair at infinity)."""
    return skeleton_disc(pcfg, pcfg.skeleton.pair_discs[i])


def point_to_axis(d: Disc, pair, ctx) -> Fraction:
    """Distance from a disc point to the axis spanned by a pair."""
    fins = [pt.value for pt in pair if not pt.is_infinity]
    entry_radii = []
    for x in fins:
        v = ctx.valuation(field_sub(ctx, x, d.center))
        entry_radii.append(d.radius if at_least(v, d.radius) else v.fraction)
    entry = max(entry_radii)
    dist = d.radius - entry
    if len(fins) == 2:
        top = min_disc(ctx, fins)
        if entry < top.radius:
            # the path enters above the top of the axis and must come down
            dist += top.radius - entry
    return dist


def axis_foot(ctx, end: PPoint, pair) -> Disc:
    """Where the path from ``end``, a point off the pair, meets the pair's
    axis: the vertex where the paths between the three ends meet, which is
    the deepest of the least discs holding two of their finite values."""
    fins = [pt.value for pt in (end, *pair) if not pt.is_infinity]
    return max((min_disc(ctx, two) for two in combinations(fins, 2)), key=lambda d: d.radius)


@lru_cache(maxsize=64)
def axis_geometry(ctx, pairs) -> tuple[dict, dict]:
    """The distances between pair axes more than 2 rho apart, from discs.
    The path from A_i meets A_j at one foot, that of either end of pair i.
    ``gap[i, j]`` is D_ij, the ``delta`` between the foot of A_i on A_j and
    that of A_j on A_i (0 when i = j), and ``run[prev, cur, next]`` the
    ``delta`` between the feet of A_prev and A_next on A_cur.  Remembered,
    as every word on one S^min reads the same few."""
    n = len(pairs)
    feet = {(i, j): axis_foot(ctx, pairs[i][0], pairs[j]) for i, j in permutations(range(n), 2)}
    gap = {(i, i): Fraction(0) for i in range(n)}
    gap.update({(i, j): delta(feet[i, j], feet[j, i]) for i, j in feet})
    run = {(i, j, k): delta(feet[i, j], feet[k, l]) for (i, j), (k, l) in product(feet, feet) if j == l}
    return gap, run


def translation_length_by_axes(pcfg, word) -> Fraction:
    """The translation length of a Gamma-word on a Good S^min, in closed form
    from the pair axes A_l (ROADMAP item 3), with no matrix: the word's index
    sequence i_1 ... i_k has k >= 2 and no two cyclic neighbours equal, and
    its exponents play no part.  Syllable m, with prev, cur and next its
    index and its cyclic neighbours', adds (D_cur,next - 2 rho) + in_m
    (``axis_geometry``): where the feet of A_prev and A_next on A_cur
    differ, in_m is the run between them plus 2 rho; where they coincide,
    it is 2 rho - 2 min(rho, s), s = (D_prev,cur + D_cur,next -
    D_prev,next) / 2 the length the two paths share before A_cur."""
    rho = pcfg.ctx.rho
    gap, run = axis_geometry(pcfg.ctx, pcfg.pairs)
    index = [i for i, _ in word.syllables]
    total = Fraction(0)
    for m, cur in enumerate(index):
        prev, nxt = index[m - 1], index[(m + 1) % len(index)]
        between = run[prev, cur, nxt]
        if between:
            inner = between + 2 * rho
        else:
            shared = (gap[prev, cur] + gap[cur, nxt] - gap[prev, nxt]) / 2
            inner = 2 * rho - 2 * min(rho, shared)
        total += gap[cur, nxt] - 2 * rho + inner
    return total


def cross_ratios(pcfg, j: int, k: int) -> list:
    """r_x = (c_x - a_j) / (c_x - b_j) for each finite point c_x of pair k,
    against pair j = (a_j, b_j), by field division (just c_x - a_j when b_j
    is infinity)."""
    ctx = pcfg.ctx
    a_j, b_j = pcfg.pairs[j]
    out = []
    for pt in pcfg.pairs[k]:
        if pt.is_infinity:
            continue
        num = field_sub(ctx, pt.value, a_j.value)
        out.append(num if b_j.is_infinity else field_div(ctx, num, field_sub(ctx, pt.value, b_j.value)))
    return out


def fold_exponent(pcfg, i: int, j: int, I):
    """The fold test on field cross ratios: the (n, witness) that
    ``folding.find_fold_exponent`` gives, or None, computed with field
    division and ``FieldContext.valuation``.

    r_x is the cross ratio of a finite representative c_x against pair j
    (:func:`cross_ratios`); the test v(r_l - zeta^n r_i) > v(r_l) + rho
    must hold for every choice of finite representatives, scanned in
    ascending n, then l.  Every candidate is valued: none is dropped by
    the strong triangle inequality.
    """
    ctx = pcfg.ctx
    reps_i = cross_ratios(pcfg, j, i)
    reps = {l: cross_ratios(pcfg, j, l) for l in range(pcfg.g + 1) if l != j and l not in I}
    for n in range(1, ctx.p):
        zeta_n = ctx.zeta_power(n)
        for l, reps_l in reps.items():
            sides = [
                (
                    ctx.valuation(field_sub(ctx, r_l, field_mul(ctx, zeta_n, r_i))),
                    ctx.valuation(r_l).fraction + ctx.rho,
                )
                for r_i in reps_i
                for r_l in reps_l
            ]
            if sides and all(above(lhs, rhs) for lhs, rhs in sides):
                lhs, rhs = sides[0]
                return n, FoldWitness(l, lhs, Val(rhs))
    return None


def pairwise_depth(ctx, values, members):
    """A cluster's depth in steps of (1/e) Z: the least e v(x_a - x_b) over
    every two members, by ``FieldContext.valuation`` (None for a
    singleton)."""
    members = sorted(members)
    return min(
        (
            ctx.ramification * ctx.valuation(field_sub(ctx, values[a], values[b])).fraction
            for k, a in enumerate(members)
            for b in members[k + 1:]
        ),
        default=None,
    )


def smallest_superset(clusters, k):
    """The position of the smallest cluster strictly containing cluster k,
    found by member-set inclusion; None for the root."""
    members = clusters[k].members
    supersets = [q for q, c in enumerate(clusters) if members < c.members]
    return min(supersets, key=lambda q: len(clusters[q].members), default=None)


def clusters_in_preorder(ctx, values) -> list:
    """Every cluster of the distinct finite values as (members, depth in
    steps), by field valuations alone: the balls {y : v(y - x) >= v(z - x)}
    of every two members x, z, each with the least e v(y - z) over two of
    its members as depth (``INF_STEPS`` for a singleton).  Listed in
    pre-order, each cluster followed by the clusters inside it, children in
    the order of their least member."""
    n = len(values)
    steps = [
        [INF_STEPS if x == y else field_steps(ctx, values[x], values[y]) for y in range(n)]
        for x in range(n)
    ]
    balls = {
        frozenset(y for y in range(n) if row[y] >= row[z]) for row in steps for z in range(n)
    }
    out, stack = [], [frozenset(range(n))] if n else []
    while stack:
        members = stack.pop()
        depth = min((steps[x][y] for x in members for y in members if x != y), default=INF_STEPS)
        out.append((members, depth))
        inside = [c for c in balls if c < members]
        children = [c for c in inside if not any(c < d for d in inside)]
        stack += sorted(children, key=min, reverse=True)
    return out


def even_profile(clusters, x) -> tuple[int, ...]:
    """The positions of the even-cardinality clusters with x among their
    members, ascending."""
    return tuple(
        k for k, c in enumerate(clusters) if len(c.members) % 2 == 0 and x in c.members
    )


def chain_by_membership(sk, members) -> list:
    """The clusters of a skeleton holding every given position, smallest
    first, found by member-set inclusion."""
    held = [c for c in sk.clusters if set(members) <= c.members]
    return sorted(held, key=lambda c: len(c.members))


def minimal_odd(sk, members):
    """The members of the smallest odd cluster holding the given positions,
    or None."""
    return next((c.members for c in chain_by_membership(sk, members) if len(c.members) % 2), None)


@lru_cache(maxsize=1 << 16)
def field_steps(ctx, x, y) -> int:
    """e v(x - y) for distinct field elements, by ``FieldContext.valuation``
    (remembered, as the rule comparisons ask for the same few often)."""
    return int(ctx.ramification * ctx.valuation(field_sub(ctx, x, y)).fraction)


def target_by_chain(pcfg, i: int, j: int):
    """d_j(i), the target in entry j of ``folding.targets(pcfg, i)``, by its
    definition, walking pair i's cluster chain: the minimal disc of pair j
    where the minimal odd clusters through pairs i and j coincide; else,
    where some odd cluster through pair i holds exactly one point of pair
    j, the largest disc around pair i's centre that holds one point k of
    pair j and no other; else None."""
    sk, ctx = pcfg.skeleton, pcfg.ctx
    mem_i, mem_j = sk.pair_points[i], sk.pair_points[j]
    if len(mem_i) < 2:
        return None
    odd_i = minimal_odd(sk, mem_i)
    if odd_i is not None and len(mem_j) == 2 and odd_i == minimal_odd(sk, mem_j):
        return sk.pair_discs[j]
    if not any(
        len(c.members) % 2 == 1 and sum(x in c.members for x in mem_j) == 1
        for c in chain_by_membership(sk, mem_i)
    ):
        return None
    center, r_i = sk.pair_discs[i]
    dist = {k: field_steps(ctx, sk.values[k], sk.values[center]) for k in mem_j}
    best = None
    for k in mem_j:
        radius = min(r_i, dist[k])
        if all(dist[o] < radius for o in mem_j if o != k):
            if best is None or radius > best:
                best = radius
    return None if best is None else (center, best)


def pushed_back_by_chain(pcfg, i: int, j: int):
    """The push-back by rho of entry j of ``folding.targets(pcfg, i)``, on
    :func:`target_by_chain`."""
    base = target_by_chain(pcfg, i, j)
    if base is None:
        return None
    sk, rho = pcfg.skeleton, pcfg.ctx.rho_steps
    (center, radius), (c_i, r_i) = base, sk.pair_discs[i]
    jn = min(r_i, radius, sk.smat[c_i][center])
    if radius - jn > rho:
        return center, radius - rho
    return c_i, 2 * jn - radius + rho


def select_by_chain(pcfg, i: int):
    """``folding.select_target`` on :func:`pushed_back_by_chain`: of the
    targets properly holding pair i's disc, one of largest radius, the
    smallest j among ties."""
    sk = pcfg.skeleton
    c_i, r_i = sk.pair_discs[i]
    found = []
    for j in range(pcfg.g + 1):
        dt = None if j == i else pushed_back_by_chain(pcfg, i, j)
        if dt is not None and r_i > dt[1] and sk.smat[c_i][dt[0]] >= dt[1]:
            found.append((j, dt))
    return max(found, key=lambda jt: (jt[1][1], -jt[0]), default=None)


def branch_by_valuation(pcfg, i: int, target) -> frozenset[int]:
    """``folding.compute_I`` by field valuations: the finite pairs both of
    whose points lie strictly above the target's radius from pair i's first
    point."""
    sk, ctx = pcfg.skeleton, pcfg.ctx
    anchor = sk.values[sk.pair_points[i][0]]
    return frozenset(
        l
        for l, pts in enumerate(sk.pair_points)
        if len(pts) == 2
        and all(x == anchor or field_steps(ctx, x, anchor) > target[1] for x in (sk.values[m] for m in pts))
    )


def axis_gaps_by_valuation(pcfg) -> tuple[int, ...]:
    """The distance between the axes of every two pairs k < l, in steps and
    in the order (0, 1), (0, 2), ..., (1, 2), ..., valuing every cross
    difference of the two pairs in the field: with u the largest cross
    valuation and d_k the depth of a finite pair k, the axes lie
    max(0, d_k - u) + max(0, d_l - u) apart.  Their least is the separation
    margin."""
    sk, ctx = pcfg.skeleton, pcfg.ctx
    finite = [[sk.values[x] for x in pts] for pts in sk.pair_points]
    gaps = []
    for k, fin_i in enumerate(finite):
        for fin_j in finite[k + 1:]:
            u = max(field_steps(ctx, x, y) for x in fin_i for y in fin_j)
            gaps.append(sum(max(0, field_steps(ctx, *fin) - u) for fin in (fin_i, fin_j) if len(fin) == 2))
    return tuple(gaps)


def field_zero(ctx):
    """0: a ``Fraction`` over Q, p - 1 zero coefficients otherwise."""
    return Fraction(0) if ctx.kind is FieldKind.RATIONAL else (Fraction(0),) * ctx.degree


def field_one(ctx):
    """1: the constant coefficient 1 in the cyclotomic flavours."""
    if ctx.kind is FieldKind.RATIONAL:
        return Fraction(1)
    return (Fraction(1),) + (Fraction(0),) * (ctx.degree - 1)


def field_is_zero(ctx, x) -> bool:
    return x == field_zero(ctx)


def field_add(ctx, x, y):
    """x + y, coefficient by coefficient in the cyclotomic flavours."""
    return x + y if ctx.kind is FieldKind.RATIONAL else tuple(a + b for a, b in zip(x, y))


def field_sub(ctx, x, y):
    """x - y, coefficient by coefficient in the cyclotomic flavours."""
    return x - y if ctx.kind is FieldKind.RATIONAL else tuple(a - b for a, b in zip(x, y))


def field_mul(ctx, x, y):
    """x y, by polynomial division over Q in the cyclotomic flavours."""
    return x * y if ctx.kind is FieldKind.RATIONAL else cyclo_mul(ctx, x, y)


def field_div(ctx, x, y):
    """x / y, by extended Euclid in the cyclotomic flavours."""
    return x / y if ctx.kind is FieldKind.RATIONAL else cyclo_mul(ctx, x, cyclo_inv(ctx, y))


def zeta_power_by_definition(ctx, n: int):
    """zeta_p^n: -1 to the n over Q; otherwise the n-th basis vector, with
    x^(p-1) = -(1 + x + ... + x^(p-2)) and x^0 = 1."""
    n %= ctx.p
    if ctx.kind is FieldKind.RATIONAL:
        return Fraction(-1) ** n
    if n == ctx.p - 1:
        return (Fraction(-1),) * ctx.degree
    return tuple(Fraction(int(k == n)) for k in range(ctx.degree))


def element(ctx, x):
    """An integral entry of a map (an ``int``, or a list of p - 1 integer
    coefficients) as a field element."""
    return Fraction(x) if ctx.kind is FieldKind.RATIONAL else tuple(map(Fraction, x))


def mobius_by_fractions(ctx, a, b, c, d) -> Mobius:
    """The canonical scale of field entries, as integers: over Q
    denominators cleared, the content divided out and the first nonzero
    entry made positive; over Q(zeta_p) only the rational denominators
    cleared."""
    ent = [ctx.from_fraction(x) if isinstance(x, (int, Fraction)) else x for x in (a, b, c, d)]
    if ctx.kind is FieldKind.RATIONAL:
        den = lcm(*[x.denominator for x in ent])
        nums = [x.numerator * (den // x.denominator) for x in ent]
        k = gcd(*nums)
        nums = [n // k for n in nums]
        if next(n for n in nums if n) < 0:
            nums = [-n for n in nums]
        return Mobius(ctx, *nums)
    den = lcm(*[q.denominator for x in ent for q in x])
    return Mobius(ctx, *([(q * den).numerator for q in x] for x in ent))


def identity(ctx) -> Mobius:
    """The identity map, in canonical scale."""
    return mobius_by_fractions(ctx, 1, 0, 0, 1)


def inverse(m: Mobius) -> Mobius:
    """The inverse map: the adjugate (d, -b, -c, a), in canonical scale."""
    ctx = m.ctx
    a, b, c, d = (element(ctx, x) for x in m.entries())
    zero = field_zero(ctx)
    return mobius_by_fractions(ctx, d, field_sub(ctx, zero, b), field_sub(ctx, zero, c), a)


def order_p_fixing(ctx, a, b, n: int) -> Mobius:
    """The n-th power of the order-p map fixing a and b, by the program's
    route: ``word_matrix`` of one syllable on a record of the one pair."""
    return word_matrix(PairedConfiguration(ctx, ((a, b),)), GroupWord(((0, n),)))


def order_p_fixing_by_fractions(ctx, a, b, n: int) -> Mobius:
    """The n-th power of the order-p map fixing a and b (b may be
    infinity), by field arithmetic: [[a - z^n b, (z^n - 1) a b], [1 - z^n,
    z^n a - b]] with z = zeta_p, or z -> (1 - z^n) a + z^n z."""
    zn, one, av = zeta_power_by_definition(ctx, n), field_one(ctx), a.value
    if b.is_infinity:
        return mobius_by_fractions(ctx, zn, field_mul(ctx, field_sub(ctx, one, zn), av), 0, one)
    bv = b.value
    return mobius_by_fractions(
        ctx,
        field_sub(ctx, av, field_mul(ctx, zn, bv)),
        field_mul(ctx, field_sub(ctx, zn, one), field_mul(ctx, av, bv)),
        field_sub(ctx, one, zn),
        field_sub(ctx, field_mul(ctx, zn, av), bv),
    )


def compose_by_fractions(m1: Mobius, m2: Mobius) -> Mobius:
    """The matrix product m1 m2 by field arithmetic, in canonical scale."""
    ctx = m1.ctx
    a1, b1, c1, d1 = (element(ctx, x) for x in m1.entries())
    a2, b2, c2, d2 = (element(ctx, x) for x in m2.entries())

    def dot(x, y, u, v):
        return field_add(ctx, field_mul(ctx, x, y), field_mul(ctx, u, v))

    return mobius_by_fractions(
        ctx,
        dot(a1, a2, b1, c2),
        dot(a1, b2, b1, d2),
        dot(c1, a2, d1, c2),
        dot(c1, b2, d1, d2),
    )


def apply_by_fractions(m: Mobius, pt: PPoint) -> PPoint:
    """The fractional-linear action by field arithmetic; poles map to
    infinity."""
    ctx = m.ctx
    a, b, c, d = (element(ctx, x) for x in m.entries())
    if pt.is_infinity:
        return INFINITY if field_is_zero(ctx, c) else PPoint(field_div(ctx, a, c))
    den = field_add(ctx, field_mul(ctx, c, pt.value), d)
    if field_is_zero(ctx, den):
        return INFINITY
    return PPoint(field_div(ctx, field_add(ctx, field_mul(ctx, a, pt.value), b), den))


def pole_by_fractions(m: Mobius) -> PPoint:
    """-d / c, the point m sends to infinity (m must not fix infinity)."""
    ctx = m.ctx
    c, d = element(ctx, m.c), element(ctx, m.d)
    return PPoint(field_div(ctx, field_sub(ctx, field_zero(ctx), d), c))


def field_valuation(ctx, x) -> Val:
    """v(x): the ell-adic valuation of a rational, ``cyclo_valuation``
    otherwise."""
    if ctx.kind is not FieldKind.RATIONAL:
        return cyclo_valuation(ctx, x)
    if x == 0:
        return Val(None)
    return Val(Fraction(int_valuation(x.numerator, ctx.ell) - int_valuation(x.denominator, ctx.ell)))


def classify_by_fractions(ctx, m: Mobius) -> ElementClass:
    """Identity / parabolic / elliptic / loxodromic from the trace and the
    determinant as field elements: a scalar matrix is the identity, tr^2 =
    4 det is parabolic, and otherwise the map is loxodromic, with
    translation length v(det) - 2 v(tr), exactly when 2 v(tr) < v(det)."""
    a, b, c, d = (element(ctx, x) for x in m.entries())
    if field_is_zero(ctx, b) and field_is_zero(ctx, c) and a == d:
        return ElementClass(MapKind.IDENTITY)
    tr = field_add(ctx, a, d)
    det = field_sub(ctx, field_mul(ctx, a, d), field_mul(ctx, b, c))
    if field_mul(ctx, tr, tr) == field_mul(ctx, ctx.from_fraction(4), det):
        return ElementClass(MapKind.PARABOLIC)
    v_tr, v_det = field_valuation(ctx, tr), field_valuation(ctx, det)
    # tr = 0 has v(tr) = +infinity: not loxodromic
    if not v_tr.is_infinite and 2 * v_tr.fraction < v_det.fraction:
        return ElementClass(MapKind.LOXODROMIC, v_det.fraction - 2 * v_tr.fraction)
    return ElementClass(MapKind.ELLIPTIC)


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


# --------------------------------------------------------------------------
# Cyclotomic arithmetic by division over Q (coefficient lists, low degree
# first; elements are the field's canonical tuples of p - 1 Fractions)
# --------------------------------------------------------------------------


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        coeff = a[k + len(b) - 1] / b[-1]
        q[k] = coeff
        for j, bj in enumerate(b):
            a[k + j] -= coeff * bj
    return _trim(q), _trim(a)


def _pseudo_divmod(a: list, b: list) -> tuple[list, list]:
    """(q, r) with lc(b)^k a = q b + r and deg r < deg b, k = max(0, deg a -
    deg b + 1), for integer polynomials: the division over Q with each step
    scaled by lc(b), so no ``Fraction`` is formed."""
    lead, m = b[-1], len(b)
    q, r = [0] * max(0, len(a) - m + 1), list(a)
    for k in range(len(a) - m, -1, -1):
        c = r[k + m - 1]
        q, r = [lead * v for v in q], [lead * v for v in r]
        q[k] = c
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
    return q, _trim(r[: m - 1])


def _integral(poly: list) -> tuple[int, list]:
    """(L, P) with poly = P / L and P an integer polynomial."""
    den = lcm(*[Fraction(c).denominator for c in poly])
    return den, _trim([int(Fraction(c) * den) for c in poly])


def _phi(p: int) -> list:
    """The p-th cyclotomic polynomial 1 + x + ... + x^(p-1)."""
    return [Fraction(1)] * p


def resultant(a: list, b: list) -> Fraction:
    """Resultant of two polynomials over Q by the Euclidean algorithm, run
    on integer multiples: a remainder over Q is g r / lc(b)^k for the
    pseudo-remainder's content g and primitive part r, and Res(b, c r) =
    c^deg(b) Res(b, r), so res takes those factors and the Euclid steps go
    on with r."""
    (s, a), (t, b) = _integral(a), _integral(b)
    if not a or not b:
        return Fraction(0)
    res = Fraction(1, s ** (len(b) - 1) * t ** (len(a) - 1))
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da
        _, r = _pseudo_divmod(a, b)
        if not r:
            return Fraction(0)
        g, k = gcd(*r), max(0, da - db + 1)
        res *= (-1) ** (da * db) * Fraction(b[-1]) ** (da - len(r) + 1)
        res *= Fraction(g, b[-1] ** k) ** db
        a, b = b, [v // g for v in r]


def _canonical(ctx, poly: list) -> tuple:
    _, r = _poly_divmod(poly, _phi(ctx.p))
    return tuple(r + [Fraction(0)] * (ctx.degree - len(r)))


def cyclo_mul(ctx, x, y) -> tuple:
    return _canonical(ctx, _poly_mul(list(x), list(y)))


def times_one_minus_zeta(ctx, x) -> tuple:
    """x (1 - zeta) with no product: x less x shifted up one degree, then
    less one multiple of Phi_p, the one that clears the degree p - 1 term."""
    zero = Fraction(0)
    poly = [a - b for a, b in zip([*x, zero], [zero, *x])]
    return tuple(c - poly[-1] for c in poly[:-1])


def cyclo_inv(ctx, x) -> tuple:
    """1/x by extended Euclid against the cyclotomic polynomial, run on
    integer multiples: with x = X / L, each remainder r = s X mod Phi_p is a
    pseudo-remainder, divided with its cofactor s by their common content,
    until r is a constant g, so 1/x = L s / g."""
    den, r1 = _integral(x)
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    r0, s0, s1 = [1] * ctx.p, [], [1]
    while len(r1) > 1:
        q, r = _pseudo_divmod(r0, r1)
        s = _poly_sub([r1[-1] ** (len(r0) - len(r1) + 1) * v for v in s0], _poly_mul(q, s1))
        g = gcd(*r, *s)
        r0, r1, s0, s1 = r1, [v // g for v in r], s1, [v // g for v in s]
    assert len(r1) == 1, "the cyclotomic polynomial is irreducible"
    return _canonical(ctx, [Fraction(den * v, r1[0]) for v in s1])


def split_root(ctx, prec: int) -> int:
    """The least root of the cyclotomic polynomial modulo ell, lifted to
    ell^prec one power of ell at a time."""
    p, ell = ctx.p, ctx.ell
    r = next(r for r in range(2, ell) if sum(r**k for k in range(p)) % ell == 0)
    for k in range(2, prec + 1):
        mod = ell**k
        phi = sum(pow(r, i, mod) for i in range(p))
        dphi = sum(i * pow(r, i - 1, mod) for i in range(1, p))
        r = (r - phi * pow(dphi, -1, mod)) % mod
    return r


def cyclo_valuation(ctx, x) -> Val:
    """v(x) from the norm Res(Phi_p, A) of the integral numerator A.

    Ramified: v = v_p(norm) / (p - 1).  Split: the norm's ell-adic valuation
    bounds the valuation at the chosen prime, so A evaluated at the root
    lifted one power past that bound is exact.
    """
    if all(c == 0 for c in x):
        return Val(None)
    den = 1
    for c in x:
        den = den * c.denominator // gcd(den, c.denominator)
    coeffs = [int(c * den) for c in x]
    norm = resultant(_phi(ctx.p), coeffs)
    shift = int_valuation(den, ctx.ell)
    if ctx.ell == ctx.p:
        return Val(Fraction(int_valuation(norm.numerator, ctx.p), ctx.p - 1) - shift)
    prec = int_valuation(norm.numerator, ctx.ell) + 1
    root, mod = split_root(ctx, prec), ctx.ell**prec
    value = sum(c * pow(root, k, mod) for k, c in enumerate(coeffs)) % mod
    return Val(Fraction(int_valuation(value, ctx.ell) - shift))
