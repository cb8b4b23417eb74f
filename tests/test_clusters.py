"""Cluster data, the pairing test, and repetition accounting."""

from __future__ import annotations

import random
import sys
import traceback
from collections import Counter
from fractions import Fraction
from itertools import chain, product

import pytest

import schottkyfold as sf
from schottkyfold.clusters import even_keys
from schottkyfold.errors import RepeatedPointsError
from schottkyfold.folding import compute_I, select_target, targets
from schottkyfold.valfield import INF, INF_STEPS, FieldKind, Val
from helpers import (
    EIGHT_POINT_7ADIC,
    SIX_POINT_5ADIC,
    TEST_FIELDS,
    count_calls,
    ctx2,
    ctx5,
    ctx7,
    finite_values,
    lowering_sets,
    multiset,
    nielsen_move,
    pair_list,
    pairing,
    pairs_as_sets,
    sample_paired,
    values_multiset,
)
from reference import (axis_gaps_by_valuation, clusters_in_preorder, even_profile, field_sub,
                       pair_disc, paired_by_hand, pairwise_depth, repeat_classes_by_value,
                       smallest_superset)


def _cluster_value_sets(ctx, sk):
    # each cluster's values, with its depth in steps shown as a valuation
    return {
        frozenset(ctx.to_str(sk.values[k]) for k in c.members): ctx.val_of_steps(c.depth)
        for c in sk.clusters
    }


def test_cluster_data_of_the_7adic_showcase():
    ctx = ctx7()
    cfg = sf.configuration(ctx, EIGHT_POINT_7ADIC)
    table = _cluster_value_sets(ctx, sf.cluster_data(cfg))
    assert table[frozenset({"1336/3", "-355"})] == Val(Fraction(4))
    assert table[frozenset({"0", "7"})] == Val(Fraction(1))
    assert table[frozenset({"1336/3", "-355", "-110", "86"})] == Val(Fraction(2))
    full = frozenset({"1336/3", "-355", "-110", "86", "0", "7", "1"})
    assert table[full] == Val(Fraction(0))
    assert table[frozenset({"1"})] == INF
    # laminar and complete: every point is a singleton, the full set appears
    assert len(table) == 7 + 3 + 1  # singletons, proper clusters, full set


def test_singleton_depth_is_infinite():
    ctx = ctx5()
    cfg = sf.configuration(ctx, [3, 4, 9, "inf"])
    for c in sf.cluster_data(cfg).clusters:
        if len(c.members) == 1:
            assert c.depth is INF_STEPS and ctx.val_of_steps(c.depth).is_infinite


def test_clusters_are_laminar_and_depth_monotone():
    rng = random.Random(99)
    for ell in (2, 3, 5, 7):
        ctx = sf.field_context(2, ell)
        for g in (1, 2, 3, 4):
            cfg, _ = sample_paired(rng, ctx, g)
            clusters = sf.cluster_data(cfg).clusters
            for c1 in clusters:
                for c2 in clusters:
                    inter = c1.members & c2.members
                    assert (
                        not inter
                        or c1.members <= c2.members
                        or c2.members <= c1.members
                    )
                    if c1.members < c2.members:
                        # a singleton's depth is +infinity, above every int
                        assert c1.depth >= c2.depth


def test_pair_up_examples():
    ctx = ctx5()
    pcfg = sf.pair_up(sf.configuration(ctx, SIX_POINT_5ADIC))
    assert pair_list(pcfg) == pairs_as_sets(ctx, [[7, 12], [0, 5], [1, "inf"]])

    with pytest.raises(sf.PairingError, match="do not all have size 2") as info:
        sf.pair_up(sf.configuration(ctx, [-5, -10, 0, 5, 1, "inf"]))
    assert info.value.failure is sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS

    derived = sf.pair_up(sf.configuration(ctx, [0, 125, 5, 1, 6, "inf"]))
    assert pairing(derived) == set(
        pairs_as_sets(ctx, [[0, 125], [1, 6], [5, "inf"]])
    )
    # deterministic index order: deeper pair discs first, infinity pair last
    assert pair_list(derived)[0] == pairs_as_sets(ctx, [[0, 125]])[0]
    assert pair_list(derived)[2] == pairs_as_sets(ctx, [[5, "inf"]])[0]


def test_pair_up_7adic_showcase_labels():
    pcfg = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    assert pair_list(pcfg) == pairs_as_sets(
        ctx7(), [[Fraction(1336, 3), -355], [-110, 86], [0, 7], [1, "inf"]]
    )


def test_pair_up_rejects_repeated_points():
    ctx = ctx5()
    with pytest.raises(ValueError):
        sf.pair_up(sf.configuration(ctx, [1, 1, 2, "inf"]))


def test_pair_up_separation_failure_in_residue_characteristic():
    # over the dyadics the separation radius is 1; a shallow pair fails
    ctx = ctx2()
    with pytest.raises(sf.PairingError, match="^separation margin 1 is not > twice the radius$") as info:
        sf.pair_up(sf.configuration(ctx, [0, 2, 1, "inf"]))
    assert info.value.failure is sf.PairingFailure.NOT_SEPARATED
    # gap of 2 is still not > 2
    with pytest.raises(sf.PairingError, match="^separation margin 2 is not > twice the radius$") as info:
        sf.pair_up(sf.configuration(ctx, [0, 4, 1, "inf"]))
    assert info.value.failure is sf.PairingFailure.NOT_SEPARATED
    # gap of 3 passes
    assert sf.pair_up(sf.configuration(ctx, [0, 8, 1, "inf"])).g == 1


def test_pair_up_separation_is_a_tube_condition():
    # nested even unions do not spoil separation when the axes stay apart:
    # pairs {0,8} and {2,10} split at depth 1 but sit at depth 3
    ctx = ctx2()
    pcfg = sf.pair_up(sf.configuration(ctx, [0, 8, 2, 10, 5, "inf"]))
    assert pairing(pcfg) == set(
        pairs_as_sets(ctx, [[0, 8], [2, 10], [5, "inf"]])
    )


def test_pair_up_affine_invariance():
    rng = random.Random(4)
    ctx = ctx5()
    for g in (1, 2, 3):
        cfg, pcfg = sample_paired(rng, ctx, g)
        u, c = Fraction(3, 2), Fraction(-11)  # v(u) = 0
        mapped = [
            "inf" if pt.is_infinity else u * pt.value + c
            for pt in cfg.points
        ]
        mapped_pairs = sf.pair_up(sf.configuration(ctx, mapped))
        expect = {
            frozenset(
                pt
                if pt.is_infinity
                else sf.finite(ctx, u * pt.value + c)
                for pt in pair
            )
            for pair in pcfg.pairs
        }
        assert pairing(mapped_pairs) == expect


def test_pair_up_is_permutation_stable():
    rng = random.Random(12)
    ctx = ctx7()
    cfg, pcfg = sample_paired(rng, ctx, 3)
    reference = pairing(pcfg)
    points = list(cfg.points)
    for _ in range(5):
        rng.shuffle(points)
        again = sf.pair_up(sf.Configuration(ctx, tuple(points)))
        assert pairing(again) == reference


def test_pair_up_without_infinity():
    # pairing is defined for finite-only configurations as well
    ctx = ctx5()
    pcfg = sf.pair_up(sf.configuration(ctx, [7, 12, 0, 5]))
    assert pairing(pcfg) == set(pairs_as_sets(ctx, [[7, 12], [0, 5]]))
    # two nested cherries pair up even without infinity
    nested = sf.pair_up(sf.configuration(ctx, [0, 25, 5, 30]))
    assert pairing(nested) == set(pairs_as_sets(ctx, [[0, 25], [5, 30]]))
    # four points in mutually distinct residues form a single class
    with pytest.raises(sf.PairingError, match="do not all have size 2") as info:
        sf.pair_up(sf.configuration(ctx, [0, 1, 2, 3]))
    assert info.value.failure is sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS


def test_repetition_report():
    ctx = ctx5()
    plain = sf.configuration(ctx, [0, 5, 1, "inf"])
    count, underlying = sf.repetition_report(plain)
    assert count == 0 and underlying.points == plain.points

    two = sf.configuration(ctx, [0, 0, 5, 5, 1, "inf"])
    count, underlying = sf.repetition_report(two)
    assert count == 2
    assert multiset(underlying) == values_multiset(ctx, [0, 5, 1, "inf"])

    one = sf.configuration(ctx, [0, 0, 5, 7, 1, "inf"])
    count, underlying = sf.repetition_report(one)
    assert count == 1
    assert underlying.size == 5


def test_repetition_report_keeps_first_occurrence_order():
    # (repeated, underlying) with repeats at the start, in the middle, at
    # the end and at infinity; the underlying points keep the order in
    # which each value first occurs
    ctx = ctx5()
    cases = [
        ([0, 0, 5, 1, 7, "inf"], 1, [0, 5, 1, 7, "inf"]),
        ([0, 5, 1, 5, 7, "inf"], 1, [0, 5, 1, 7, "inf"]),
        ([0, 5, 1, 7, "inf", 7], 1, [0, 5, 1, 7, "inf"]),
        (["inf", 0, 5, "inf", 1, 7], 1, ["inf", 0, 5, 1, 7]),
        ([3, 0, 3, "inf", 3, "inf"], 2, [3, 0, "inf"]),
        ([Fraction(1, 5), 2, Fraction(2, 10), 2, 2, 9], 2, [Fraction(1, 5), 2, 9]),
    ]
    for values, repeated, underlying in cases:
        count, got = sf.repetition_report(sf.configuration(ctx, values))
        assert (count, got) == (repeated, sf.configuration(ctx, underlying))


def test_step_matrix_matches_the_field_valuation():
    # The skeleton lowers its values once and counts every valuation in
    # steps of (1/e) Z on integers, valuing only the differences the strong
    # triangle inequality leaves open; each entry must equal e v(x_a - x_b)
    # from FieldContext.valuation, with denominators and non-rational
    # cyclotomic points among the values.  Genera 8 to 12 give deep nests,
    # and over ell >= 5 clusters with five or more children.  The tree must
    # be the balls of the matrix, each once, with its least entry as depth.
    entries, branching = 0, set()
    for ctx, cfg in chain(lowering_sets(17), lowering_sets(17, genera=(8, 10, 12))):
        sk = sf.cluster_data(cfg)
        values, e, n = sk.values, ctx.ramification, len(sk.values)
        assert sk.values == finite_values(cfg)
        for a in range(n):
            assert sk.smat[a][a] is INF_STEPS
            for b in range(a + 1, n):
                v = ctx.valuation(field_sub(ctx, values[a], values[b]))
                assert sk.smat[a][b] == sk.smat[b][a] == e * v.fraction
                entries += 1
        row = sk.smat
        balls = {
            frozenset(y for y in range(n) if row[x][y] >= row[x][z])
            for x in range(n)
            for z in range(n)
        }
        assert len(sk.clusters) == len(balls)
        assert {c.members for c in sk.clusters} == balls
        for k, c in enumerate(sk.clusters):
            depth = min(row[x][y] for x in c.members for y in c.members)
            assert c.depth == depth
            assert sk.parent[k] == smallest_superset(sk.clusters, k)
        if max(Counter(sk.parent).values()) >= 5:
            branching.add(ctx.kind)
    sizes = [2 * g + 1 for g in (2, 3, 4, 8, 10, 12)]
    assert entries == 7 * 2 * sum(n * (n - 1) // 2 for n in sizes)
    assert branching == set(FieldKind)


def test_a_planted_repeat_is_met_anywhere_in_the_tree():
    # Equal values never fall into different children, so their zero
    # difference is met while some row is valued.  A value is copied onto
    # another point in the deepest cluster, from the first point of a later
    # child onto a sibling, and from input position 0 onto the last point.
    planted = 0
    for ctx, cfg in lowering_sets(19, genera=(8, 10, 12)):
        sk = sf.cluster_data(cfg)
        at = [k for k, pt in enumerate(cfg.points) if not pt.is_infinity]
        deepest = max((c for c in sk.clusters if len(c.members) > 1), key=lambda c: c.depth)
        k = next(k for k, up in enumerate(sk.parent) if up is not None and k != up + 1)
        child, siblings = sk.clusters[k].members, sk.clusters[sk.parent[k]].members
        copies = [
            sorted(deepest.members)[:2],
            (min(child), min(siblings - child)),
            (0, len(at) - 1),
        ]
        for src, dst in copies:
            points = list(cfg.points)
            points[at[dst]] = points[at[src]]
            with pytest.raises(RepeatedPointsError):
                sf.cluster_data(sf.Configuration(ctx, tuple(points)))
            planted += 1
    assert planted == 7 * 3 * 2 * 3


def test_cluster_data_refuses_a_repeated_value_and_a_second_infinity():
    # the one tree builder finds both kinds of repeat: two equal finite
    # values (written differently, or not rational) meet as a zero
    # difference, and a second infinity is counted before anything is
    # lowered; the same points without the repeat give the skeleton
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        repeats = [
            [0, 5, 1, 5, "inf"],
            [Fraction(1, 5), 2, Fraction(2, 10), "inf"],
            [0, 5, 1, "inf", "inf"],
            ["inf", 0, "inf", 1],
            [ctx.zeta, 0, ctx.zeta, 1],
        ]
        for values in repeats:
            with pytest.raises(RepeatedPointsError):
                sf.cluster_data(sf.configuration(ctx, values))
        cfg = sf.configuration(ctx, [ctx.zeta, 0, 5, 1, "inf"])
        sk = sf.cluster_data(cfg)
        assert sk.values == finite_values(cfg) and sk.clusters[0].members == frozenset(range(4))


def test_nesting_depth_is_not_bounded_by_the_recursion_limit():
    # the points 2^k, k < 150, nest 149 clusters deep; the tree is built
    # under a recursion limit of 50 frames above this test's own
    ctx = ctx2()
    cfg = sf.configuration(ctx, [2**k for k in range(150)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 50)
    try:
        clusters = sf.cluster_data(cfg).clusters
    finally:
        sys.setrecursionlimit(limit)
    assert len(clusters) == 2 * 150 - 1
    depths = [ctx.val_of_steps(c.depth).fraction for c in clusters if len(c.members) > 1]
    assert sorted(depths) == list(range(149))


def test_skeleton_values_only_the_open_differences(monkeypatch):
    # The 7-adic showcase has 7 finite points and 21 differences.  Its root's
    # first point 1336/3 is valued against the other 6; the first point of
    # the later child {0, 7} against 7 and 1, and that of {-110, 86} against
    # 86.  The other 12 entries are written from the ultrametric.
    calls = count_calls(monkeypatch, sf.FieldContext, "integral_valuation")
    sk = sf.cluster_data(sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    assert len(sk.values) == 7 and len(calls) == 9


def _planted_repeats(rng, cfg):
    """Copies of the points with one value twice, with infinity twice, and
    with two values twice each, in place of other finite points."""
    points = list(cfg.points)
    finite = [k for k, pt in enumerate(points) if not pt.is_infinity]
    out = []
    for sources in ([rng.choice(finite)], [points.index(sf.INFINITY)], rng.sample(finite, 2)):
        copy = list(points)
        targets = rng.sample([k for k in finite if k not in sources], len(sources))
        for src, dst in zip(sources, targets):
            copy[dst] = points[src]
        out.append(sf.Configuration(cfg.ctx, tuple(copy)))
    return out


def test_skeleton_tree_matches_the_pairwise_definitions():
    # The skeleton reads a cluster's depth off one member's row, records
    # parents while it recurses and finds repeats while it fills the step
    # matrix.  Each must agree with its definition: the least valuation
    # over every two members, the smallest strict superset, and the
    # repeated points found by value, as the classes of the refusal.
    rng = random.Random(41)
    trees = repeats = 0
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        for g in (2, 3, 4, 5):
            cfg, pcfg = sample_paired(rng, ctx, g)
            moved = nielsen_move(pcfg, rng.randrange(g), g)
            for c in [cfg, moved] + _planted_repeats(rng, cfg):
                repeated = repeat_classes_by_value(c)
                try:
                    sk = sf.cluster_data(c)
                except RepeatedPointsError as exc:
                    assert exc.classes == repeated and repeated
                    repeats += 1
                    continue
                assert not repeated
                assert sk.values == finite_values(c)
                for k, cluster in enumerate(sk.clusters):
                    depth = pairwise_depth(ctx, sk.values, cluster.members)
                    assert cluster.depth == (INF_STEPS if depth is None else depth)
                    assert sk.parent[k] == smallest_superset(sk.clusters, k)
                    if depth is None:
                        (x,) = cluster.members
                        assert sk.leaf[x] == k
                trees += 1
    # every planted copy repeats, and so do 4 of the 28 Nielsen copies:
    # the move lands a point on another
    assert (trees, repeats) == (7 * 4 * 2 - 4, 7 * 4 * 3 + 4)


def test_flat_tree_matches_the_membership_definition():
    # The skeleton keeps its tree as flat pre-order tuples: cluster k's
    # members are the span order[first[k] : first[k] + sizes[k]], and x lies
    # in cluster k iff first[k] <= first[leaf[x]] < first[k] + sizes[k].  In
    # all three field flavours, and in nests deep enough for clusters with
    # five or more children, each span must hold exactly the cluster's
    # members by field valuations, first[leaf[x]] must invert order, sizes,
    # depths and parent must agree with the membership definitions, each
    # chain must be the clusters holding its positions, and the records
    # built on demand must be the clusters in pre-order
    kinds, spans, branching = set(), 0, set()
    for ctx, cfg in chain(lowering_sets(53), lowering_sets(53, genera=(8, 10, 12))):
        sk = sf.cluster_data(cfg)
        n = len(sk.values)
        assert sorted(sk.order) == list(range(n))
        assert [sk.first[sk.leaf[x]] for x in sk.order] == list(range(n))
        expected = clusters_in_preorder(ctx, sk.values)
        records = sk.clusters
        assert records == tuple(sf.Cluster(members, depth) for members, depth in expected)
        assert len(sk.sizes) == len(sk.depths) == len(sk.parent) == len(sk.first) == len(expected)
        for k, (members, depth) in enumerate(expected):
            start, end = sk.first[k], sk.first[k] + sk.sizes[k]
            assert sorted(sk.order[start:end]) == sorted(members)
            assert {x for x in range(n) if start <= sk.first[sk.leaf[x]] < end} == members
            assert sk.depths[k] == depth
            assert sk.parent[k] == smallest_superset(records, k)
            if len(members) == 1:
                assert sk.leaf[min(members)] == k
            spans += 1
        for x, y in product(range(n), repeat=2):
            held = sorted((c for c in records if {x, y} <= c.members), key=lambda c: len(c.members))
            assert [records[k] for k in sk.chain((x, y))] == held
        kinds.add(ctx.kind)
        if max(Counter(sk.parent).values()) >= 5:
            branching.add(ctx.kind)
    assert kinds == branching == set(FieldKind)
    assert spans > 900


def test_cluster_records_of_the_showcases():
    # the records Skeleton.clusters builds on demand, in pre-order, with the
    # parent links and singleton indices of the flat tree
    I = INF_STEPS
    cases = [
        (ctx7, EIGHT_POINT_7ADIC, [
            ((0, 1, 2, 3, 4, 5, 6), 0), ((0, 1, 2, 3), 2), ((0, 1), 4), ((0,), I), ((1,), I),
            ((2,), I), ((3,), I), ((4, 5), 1), ((4,), I), ((5,), I), ((6,), I),
        ], (None, 0, 1, 2, 2, 1, 1, 0, 7, 7, 0), (3, 4, 5, 6, 8, 9, 10)),
        (ctx5, SIX_POINT_5ADIC, [
            ((0, 1, 2, 3, 4), 0), ((0, 1), 1), ((0,), I), ((1,), I), ((2, 3), 1), ((2,), I),
            ((3,), I), ((4,), I),
        ], (None, 0, 1, 1, 0, 4, 4, 0), (2, 3, 5, 6, 7)),
    ]
    for ctx_of, points, records, parent, leaf in cases:
        sk = sf.cluster_data(sf.configuration(ctx_of(), points))
        assert sk.clusters == tuple(sf.Cluster(frozenset(m), d) for m, d in records)
        assert (sk.parent, sk.leaf) == (parent, leaf)
        assert sk.sizes == tuple(len(m) for m, _ in records)


def test_even_profiles_match_the_membership_definition():
    # canonical_pairs groups points by the smallest even cluster on their
    # leaf's chain, walked up by parent links: by membership that is the
    # last (smallest) cluster of the point's even profile, and two points
    # share it exactly when they share their whole profiles
    rng = random.Random(43)
    checked = 0
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        for g in (2, 3, 4, 5):
            cfg, pcfg = sample_paired(rng, ctx, g)
            for c in (cfg, nielsen_move(pcfg, rng.randrange(g), g)):
                try:
                    sk = sf.cluster_data(c)
                except RepeatedPointsError:
                    continue
                keys = even_keys(sk)
                profiles = [even_profile(sk.clusters, x) for x in range(len(sk.values))]
                assert keys == [profile[-1] if profile else None for profile in profiles]
                for x, y in product(range(len(keys)), repeat=2):
                    assert (keys[x] == keys[y]) == (profiles[x] == profiles[y])
                checked += 1
    # a Nielsen move can land a point on another
    assert checked > 50


def _view_readings(pcfg):
    # every (center position, radius) disc is read by value: the two
    # skeletons list the same points in different orders
    g, values = pcfg.g, pcfg.skeleton.values

    def by_value(disc):
        return None if disc is None else (values[disc[0]], disc[1])

    out = [sf.to_dot(sf.reduced_convex_hull(pcfg))]
    for i in range(g + 1):
        out.append(pair_disc(pcfg, i))
        for j, found in enumerate(targets(pcfg, i)):
            if j != i:
                out.append(tuple(map(by_value, found or (None, None))))
    for i in range(g):
        j, target = select_target(pcfg, i)
        out.append((j, by_value(target), compute_I(pcfg, i, target)))
    return out


def _inputs_of_7adic_showcase():
    ctx = ctx7()
    cfg = sf.configuration(ctx, EIGHT_POINT_7ADIC)
    verdict = sf.run_algorithm(ctx, cfg)
    backwards = sf.Configuration(ctx, cfg.points[::-1])
    return [cfg, backwards] + [step.after for step in verdict.trace]


def _sampled_p3_ell7():
    rng = random.Random(23)
    ctx = sf.field_context(3, 7)
    return [sample_paired(rng, ctx, g)[0] for g in (2, 3, 4)]


@pytest.mark.parametrize("inputs", [_inputs_of_7adic_showcase, _sampled_p3_ell7])
def test_handed_over_skeleton_matches_a_fresh_one(inputs):
    reordered = 0
    for cfg in inputs():
        pcfg = sf.pair_up(cfg)
        fresh = paired_by_hand(pcfg.ctx, pcfg.pairs)
        assert _view_readings(pcfg) == _view_readings(fresh)
        # pair_up's skeleton keeps its input order; a fresh one is built on
        # the points listed pair by pair
        assert pcfg.skeleton.values == finite_values(cfg)
        assert fresh.skeleton.values == finite_values(pcfg.configuration())
        reordered += pcfg.skeleton.values != fresh.skeleton.values
    assert reordered  # the two orders differed at least once


def _refusal(exc):
    """What a refusal of pair_up names: the broken rule of a PairingError,
    else the error's type."""
    return exc.failure if isinstance(exc, sf.PairingError) else type(exc)


def _refusal_by_definition(cfg):
    """The refusal pair_up must make on ``cfg`` (as :func:`_refusal` names
    it), or None, from the definitions alone: a repeated value or a second
    infinity first, then even-cluster classes by membership (clusters as
    balls of field valuations) that are not all of size two, then two pair
    axes at most 2 rho apart, by the cross valuations of their points."""
    ctx = cfg.ctx
    values = [pt.value for pt in cfg.points if not pt.is_infinity]
    if len(set(cfg.points)) < cfg.size:
        return RepeatedPointsError
    evens = [m for m, _ in clusters_in_preorder(ctx, values) if len(m) % 2 == 0]
    classes = {}
    for x in range(len(values)):
        profile = frozenset(m for m in evens if x in m)
        classes.setdefault(profile, []).append(sf.finite(ctx, values[x]))
    if any(pt.is_infinity for pt in cfg.points):
        classes.setdefault(frozenset(), []).append(sf.INFINITY)
    if any(len(members) != 2 for members in classes.values()):
        return sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS
    pcfg = paired_by_hand(ctx, tuple(map(tuple, classes.values())))
    gaps = axis_gaps_by_valuation(pcfg)
    if gaps and min(gaps) <= 2 * ctx.rho_steps:
        return sf.PairingFailure.NOT_SEPARATED
    return None


def _skeleton_by_value(sk):
    # what pair_up's skeleton and a fresh one must share: every reading,
    # with each position replaced by its value
    n, vals = len(sk.values), sk.values
    members = lambda k: frozenset(vals[x] for x in sk.cluster(k).members)
    return (
        {members(k): sk.depths[k] for k in range(len(sk.sizes))},
        {(vals[a], vals[b]): sk.smat[a][b] for a, b in product(range(n), repeat=2)},
        tuple(tuple(vals[x] for x in pts) for pts in sk.pair_points),
        tuple((vals[c], r) for c, r in sk.pair_discs),
        tuple(None if k is None else members(k) for k in sk.pair_odd),
        sk.pair_odd_depths,
        sk.pair_gaps,
        (sk.den, sk.den_steps),
    )


def test_every_fold_pass_skeleton_matches_a_fresh_one_and_the_definitions(monkeypatch):
    # Every pair_up call of run_algorithm on sampled paired sets in the
    # seven test fields, g = 2 to 4, and on Nielsen-moved copies of them:
    # each skeleton handed over reads, value by value, as a fresh one built
    # on the pairs, its tree is the clusters by field valuations and its
    # axis gaps are those by valuation; every outcome, a refusal included,
    # is the one the definitions give.  Then the order of the refusals, on
    # random small multisets with repeats and a second infinity: a repeat
    # before either pairing rule, a broken pairing before separation.
    calls = []
    pair_up = sf.folding.pair_up

    def recorded(cfg):
        try:
            pcfg = pair_up(cfg)
        except (ValueError, sf.PairingError) as exc:
            calls.append((cfg, exc))
            raise
        calls.append((cfg, pcfg))
        return pcfg

    monkeypatch.setattr(sf.folding, "pair_up", recorded)
    rng = random.Random(31)
    runs = []
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        for g in (2, 3, 4):
            cfg, pcfg = sample_paired(rng, ctx, g)
            runs.append(sf.run_algorithm(ctx, cfg))
            # then a chain of three Nielsen moves, each moving a pair i < j,
            # so never the pair at infinity (the last), and each copy run
            for _ in range(3):
                i, j = sorted(rng.sample(range(g + 1), 2))
                c = nielsen_move(pcfg, i, j, rng.randrange(1, p))
                runs.append(sf.run_algorithm(ctx, c))
                pcfg = sf.PairedConfiguration(ctx, tuple(zip(c.points[::2], c.points[1::2])))
    outcomes = Counter()
    for cfg, out in calls:
        expected = _refusal_by_definition(cfg)
        if isinstance(out, Exception):
            assert _refusal(out) is expected
            outcomes[expected] += 1
            continue
        assert expected is None
        fresh = paired_by_hand(out.ctx, out.pairs)
        assert _skeleton_by_value(out.skeleton) == _skeleton_by_value(fresh.skeleton)
        sk = out.skeleton
        assert sk.clusters == tuple(
            sf.Cluster(m, d) for m, d in clusters_in_preorder(out.ctx, sk.values)
        )
        assert sk.pair_gaps == axis_gaps_by_valuation(out)
        outcomes[None] += 1
    # every run makes one pass more than it folds
    assert len(calls) == len(runs) + sum(len(verdict.trace) for verdict in runs)
    assert outcomes[None] > 150 and len(calls) > 2 * len(runs)
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        for _ in range(60):
            points = [rng.randrange(-ell**2, ell**3) for _ in range(rng.choice((5, 7)))]
            points += ["inf"] * rng.choice((1, 1, 2))
            cfg = sf.configuration(ctx, rng.sample(points, len(points)))
            expected = _refusal_by_definition(cfg)
            try:
                sf.pair_up(cfg)
            except (ValueError, sf.PairingError) as exc:
                assert _refusal(exc) is expected
            else:
                assert expected is None
            outcomes[expected] += 1
    kinds = (None, RepeatedPointsError, sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS,
             sf.PairingFailure.NOT_SEPARATED)
    assert all(outcomes[kind] >= 20 for kind in kinds)
