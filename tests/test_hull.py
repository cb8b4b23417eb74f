"""The reduced convex hull, and the reference disc arithmetic it is checked with."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import schottkyfold as sf
from schottkyfold.folding import select_target
from helpers import (
    EIGHT_POINT_7ADIC,
    SIX_POINT_5ADIC,
    TEST_FIELDS,
    ctx2,
    ctx5,
    component_count,
    ctx7,
    distinguished,
    pairs_as_sets,
    pushed_back,
    sample_paired,
    valency,
)
from reference import (
    cluster_members,
    delta,
    disc,
    disc_members,
    join,
    min_disc,
    pair_disc,
    point_to_axis,
    same,
    separation_radius,
    skeleton_clusters,
    skeleton_disc,
)


def discs_7adic():
    ctx = ctx7()
    d0 = disc(ctx, -355, 4)
    d1 = disc(ctx, -12, 2)
    d2 = disc(ctx, 0, 1)
    d3 = disc(ctx, 0, 0)
    return ctx, d0, d1, d2, d3


def test_join_examples():
    ctx, d0, d1, d2, d3 = discs_7adic()
    assert same(join(d0, d0), d0)
    assert same(join(d0, d2), d3)  # v7(-355 - 0) = 0
    assert same(join(d0, d1), d1)  # d0 sits inside d1


def test_delta_examples():
    ctx, d0, d1, d2, d3 = discs_7adic()
    assert delta(d0, d0) == 0
    assert delta(d0, d1) == 2  # 4 + 2 - 2*2
    c5 = ctx5()
    assert delta(disc(c5, 0, 1), disc(c5, 0, 0)) == 1


def test_delta_is_a_tree_metric():
    ctx = ctx5()
    rng = random.Random(3)
    for _ in range(80):
        d1 = disc(ctx, rng.randint(-200, 200), rng.randint(-3, 5))
        d2 = disc(ctx, rng.randint(-200, 200), rng.randint(-3, 5))
        d3 = disc(ctx, rng.randint(-200, 200), rng.randint(-3, 5))
        assert delta(d1, d2) == delta(d2, d1) >= 0
        assert (delta(d1, d2) == 0) == same(d1, d2)
        j = join(d1, d2)
        # the join lies between its arguments
        assert delta(d1, j) + delta(j, d2) == delta(d1, d2)
        assert delta(d1, d3) <= delta(d1, d2) + delta(d2, d3)


def test_pair_disc_examples():
    pcfg5 = sf.pair_up(sf.configuration(ctx5(), SIX_POINT_5ADIC))
    assert same(pair_disc(pcfg5, 0), disc(ctx5(), 2, 1))  # {z : v(z - 2) >= 1}
    assert same(pair_disc(pcfg5, 2), disc(ctx5(), 0, 0))  # all finite points

    pcfg7 = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    ctx, e0, e1, e2, e3 = discs_7adic()
    for i, expected in enumerate((e0, e1, e2, e3)):
        assert same(pair_disc(pcfg7, i), expected)


def test_reduced_convex_hull_5adic_showcase():
    pcfg = sf.pair_up(sf.configuration(ctx5(), SIX_POINT_5ADIC))
    tree = sf.reduced_convex_hull(pcfg)
    assert component_count(tree) == 1
    assert len(distinguished(tree)) == 3
    (v2,) = (v for v in distinguished(tree) if v.pair_index == 2)
    assert valency(tree, v2.id) == 2  # not every distinguished vertex is a tail


def test_the_hull_refuses_a_record_made_by_hand():
    # a PairedConfiguration made by hand holds no skeleton: the audit reads
    # its pairs alone, while the hull takes a pair_up result and refuses the
    # record by name instead of failing inside
    ctx = ctx5()
    points = sf.configuration(ctx, SIX_POINT_5ADIC).points  # {7, 12}, {0, 5}, {1, inf}
    pcfg = sf.PairedConfiguration(ctx, tuple(zip(points[::2], points[1::2])))
    assert sf.schottky_audit(pcfg, 4).witness is not None
    with pytest.raises(sf.InvalidInputError, match="pair_up"):
        sf.reduced_convex_hull(pcfg)
    paired = sf.pair_up(pcfg.configuration())
    assert paired._replace(skeleton=None) == pcfg
    assert len(sf.reduced_convex_hull(paired).vertices) == 3


def test_reduced_convex_hull_7adic_showcase():
    pcfg = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    tree = sf.reduced_convex_hull(pcfg)
    assert component_count(tree) == 1
    assert len(distinguished(tree)) == 4
    assert max(valency(tree, v.id) for v in distinguished(tree)) == 2
    # edge lengths: chain v0 -(2)- v1 -(2)- v3 and v2 -(1)- v3
    lengths = sorted(length for _, _, length in tree.edges)
    assert lengths == [1, 2, 2]


def test_reduced_convex_hull_two_components():
    ctx = ctx5()
    pcfg = sf.pair_up(sf.configuration(ctx, [0, 125, 5, 1, 6, "inf"]))
    tree = sf.reduced_convex_hull(pcfg)
    assert component_count(tree) == 2
    assert len(distinguished(tree)) == 4
    # every distinguished vertex is a tail of its component
    assert all(valency(tree, v.id) <= 1 for v in distinguished(tree))
    # the axis of the pair at infinity meets both components
    met = {}
    for v in distinguished(tree):
        met.setdefault(v.component, set()).add(frozenset(pcfg.pairs[v.pair_index]))
    got = {frozenset(pairs) for pairs in met.values()}
    want = {
        frozenset(pairs_as_sets(ctx, prs))
        for prs in (([0, 125], [5, "inf"]), ([1, 6], [5, "inf"]))
    }
    assert got == want


def test_any_paired_four_point_set_is_trivially_optimal():
    rng = random.Random(31)
    for ell in (2, 3, 5, 7):
        ctx = sf.field_context(2, ell)
        for _ in range(10):
            cfg, pcfg = sample_paired(rng, ctx, 1)
            tree = sf.reduced_convex_hull(pcfg)
            assert all(valency(tree, v.id) <= 1 for v in distinguished(tree))


def test_hull_statistics_on_random_configurations():
    rng = random.Random(8)
    for ell in (2, 3, 5, 7):
        ctx = sf.field_context(2, ell)
        for g in (1, 2, 3, 4):
            for _ in range(3):
                cfg, pcfg = sample_paired(rng, ctx, g)
                tree = sf.reduced_convex_hull(pcfg)
                clusters = skeleton_clusters(sf.cluster_data(cfg))
                odd = sum(
                    1
                    for c in clusters
                    if len(c.members) % 2 == 1
                    and 3 <= len(c.members) <= 2 * g - 1
                )
                assert len(distinguished(tree)) == g + odd + 1
                assert component_count(tree) == odd + 1
                for va in distinguished(tree):
                    for vb in distinguished(tree):
                        if va.id < vb.id and va.component == vb.component:
                            d = delta(va.disc, vb.disc)
                            assert d > 2 * separation_radius(ctx)


def test_components_are_the_connected_pieces_of_the_edges():
    # the hull labels components off the cluster tree; here they are found
    # by a search over the edges, and numbered in order of first vertex id
    rng = random.Random(11)
    split = 0
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        for g in (1, 2, 3, 4, 5):
            for _ in range(4):
                _, pcfg = sample_paired(rng, ctx, g)
                tree = sf.reduced_convex_hull(pcfg)
                adjacent = {v.id: set() for v in tree.vertices}
                for a, b, _ in tree.edges:
                    adjacent[a].add(b)
                    adjacent[b].add(a)
                label: dict[int, int] = {}
                for v in tree.vertices:
                    if v.id in label:
                        continue
                    stack, label[v.id] = [v.id], len(set(label.values()))
                    while stack:
                        for w in adjacent[stack.pop()] - label.keys():
                            label[w] = label[v.id]
                            stack.append(w)
                assert [v.component for v in tree.vertices] == [label[v.id] for v in tree.vertices]
                split += component_count(tree) > 1
    assert split >= 20


def test_skeleton_discs_match_the_reference_route():
    # The skeleton reads pair discs, hull vertices and the pushed-back
    # targets off its valuation matrix; the reference route recomputes
    # each one from the field values, in all three field flavours.
    rng = random.Random(5)
    cases = 0
    for p, ell in ((2, 2), (2, 5), (2, 7), (3, 3), (3, 7), (5, 5), (5, 11)):
        ctx = sf.field_context(p, ell)
        for g in (2, 3, 4, 5) * 6:
            cfg, pcfg = sample_paired(rng, ctx, g)
            values = pcfg.skeleton.values
            for i, pair in enumerate(pcfg.pairs):
                if any(pt.is_infinity for pt in pair):
                    members = values
                else:
                    members = [pt.value for pt in pair]
                assert same(pair_disc(pcfg, i), min_disc(ctx, members))
            # the vertices' discs hold exactly the kept clusters (size >= 2,
            # the root only with infinity among the points), one each
            sk, vertices = pcfg.skeleton, sf.reduced_convex_hull(pcfg).vertices
            kept = [cluster_members(sk, k) for k, size in enumerate(sk.sizes)
                    if size >= 2 and (k or len(values) % 2)]
            clusters = [disc_members(values, v.disc) for v in vertices]
            assert sorted(clusters, key=sorted) == sorted(kept, key=sorted)
            for v, members in zip(vertices, clusters):
                assert same(v.disc, min_disc(ctx, [values[k] for k in sorted(members)]))
            for i in range(g):
                j, _ = select_target(pcfg, i)
                dt = skeleton_disc(pcfg, pushed_back(pcfg, i, j))
                assert point_to_axis(dt, pcfg.pairs[j], ctx) == separation_radius(ctx)
                cases += 1
    assert cases == 588  # 7 fields, 6 sets for each g, g (i, j) cases per set


def test_each_vertex_lies_on_the_axis_of_its_least_pair():
    # a vertex's pair index is the least i whose axis holds its disc point
    # (distance 0 by field valuations), None when no axis does; a finite
    # pair's axis ends at its join, the minimal disc of the pair
    rng = random.Random(13)
    seen = {"on": 0, "off": 0, "joins": 0}
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        for g in (1, 2, 3, 4, 5, 6) * 2:
            _, pcfg = sample_paired(rng, ctx, g)
            for v in sf.reduced_convex_hull(pcfg).vertices:
                least = next(
                    (i for i, pair in enumerate(pcfg.pairs) if point_to_axis(v.disc, pair, ctx) == 0),
                    None,
                )
                assert v.pair_index == least
                seen["on" if least is not None else "off"] += 1
                seen["joins"] += least is not None and least < g and same(v.disc, pair_disc(pcfg, least))
    assert min(seen.values()) >= 50, seen


def test_every_hull_vertex_is_centred_at_its_lowest_ranked_member():
    # a member's rank is its place among the finite points listed pair by
    # pair; in the pinned 3-adic set the vertex of {27, 36, 6} holds the
    # ranks 4, 5 and 8, and is centred at 27
    def check(pcfg):
        ranked = [pt.value for pair in pcfg.pairs for pt in pair if not pt.is_infinity]
        values = pcfg.skeleton.values
        tree = sf.reduced_convex_hull(pcfg)
        for v in tree.vertices:
            members = [values[k] for k in disc_members(values, v.disc)]
            assert v.disc.center == min(members, key=ranked.index)
        return tree

    ctx = sf.field_context(2, 3)
    points = [2, 27, 6, 37, -11, 43, 10, -13, 36, "inf"]
    pcfg = sf.pair_up(sf.configuration(ctx, points))
    values = pcfg.skeleton.values
    centres = {frozenset(values[k] for k in disc_members(values, v.disc)): v.disc.center
               for v in check(pcfg).vertices}
    assert centres[frozenset(sf.finite(ctx, x).value for x in (27, 36, 6))] == 27
    rng = random.Random(45)
    for p, ell in ((2, 2), (2, 3), (2, 5), (3, 7), (5, 5)):
        ctx = sf.field_context(p, ell)
        for g in (2, 3, 4, 5) * 4:
            check(sample_paired(rng, ctx, g)[1])


def test_hull_affine_invariance():
    rng = random.Random(44)
    ctx = ctx7()
    cfg, pcfg = sample_paired(rng, ctx, 3)
    tree = sf.reduced_convex_hull(pcfg)
    u, c = Fraction(5, 3), Fraction(29)
    mapped = [
        "inf" if pt.is_infinity else u * pt.value + c
        for pt in cfg.points
    ]
    tree2 = sf.reduced_convex_hull(sf.pair_up(sf.configuration(ctx, mapped)))
    assert len(tree.vertices) == len(tree2.vertices)
    assert component_count(tree) == component_count(tree2)
    assert sorted(length for *_, length in tree.edges) == sorted(
        length for *_, length in tree2.edges
    )


def test_point_to_axis_distances():
    ctx = ctx2()
    pcfg = sf.pair_up(sf.configuration(ctx, [0, 32, 1, "inf"]))
    dt = skeleton_disc(pcfg, pushed_back(pcfg, 0, 1))
    assert same(dt, disc(ctx, 0, 1))
    assert point_to_axis(dt, pcfg.pairs[1], ctx) == 1
    # a disc away from a finite axis enters over the top
    c5 = ctx5()
    far = disc(c5, 7, 2)
    pair = (sf.finite(c5, 0), sf.finite(c5, 5))
    assert point_to_axis(far, pair, c5) == 3  # up to Z_5, down to 5Z_5... 2+1


def test_to_dot_golden():
    ctx = ctx5()
    pcfg = sf.pair_up(sf.configuration(ctx, SIX_POINT_5ADIC))
    dot = sf.to_dot(sf.reduced_convex_hull(pcfg))
    assert dot == (
        "graph skeleton {\n"
        "  node [shape=circle fontsize=10];\n"
        '  n0 [label="v2\\nD(7;0)" style=filled fillcolor=lightblue];\n'
        '  n1 [label="v0\\nD(7;1)" style=filled fillcolor=lightblue];\n'
        '  n2 [label="v1\\nD(0;1)" style=filled fillcolor=lightblue];\n'
        '  n1 -- n0 [label="1"];\n'
        '  n2 -- n0 [label="1"];\n'
        "}\n"
    )
    empty = sf.SkeletonTree((), ())
    assert sf.to_dot(empty) == (
        "graph skeleton {\n  node [shape=circle fontsize=10];\n}\n"
    )


def test_to_dot_golden_with_fractional_labels():
    # over the ramified Q(zeta_3) (e = 2), (1 - zeta)^3 = -3 - 6 zeta has
    # valuation 3/2, so two radii and both edge lengths are not integers
    ctx = sf.field_context(3, 3)
    points = [(0, 0), (-3, -6), (1, 0), (-2, -6), (2, 0), None]
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
    assert isinstance(verdict, sf.Good) and not verdict.trace
    assert pairs_as_sets(ctx, [[(0, 0), (-3, -6)], [(1, 0), (-2, -6)], [(2, 0), "inf"]]) == [
        frozenset(pair) for pair in verdict.s_min.pairs
    ]
    assert sf.to_dot(sf.reduced_convex_hull(verdict.s_min)) == (
        "graph skeleton {\n"
        "  node [shape=circle fontsize=10];\n"
        '  n0 [label="v2\\nD(0;0)" style=filled fillcolor=lightblue];\n'
        '  n1 [label="v0\\nD(0;3/2)" style=filled fillcolor=lightblue];\n'
        '  n2 [label="v1\\nD(1;3/2)" style=filled fillcolor=lightblue];\n'
        '  n1 -- n0 [label="3/2"];\n'
        '  n2 -- n0 [label="3/2"];\n'
        "}\n"
    )


def test_to_dot_7adic_has_four_distinguished_nodes():
    pcfg = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    dot = sf.to_dot(sf.reduced_convex_hull(pcfg))
    assert dot.count("fillcolor=lightblue") == 4
    assert dot.count(" -- ") == 3
