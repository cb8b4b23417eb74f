"""The reduced convex hull, and the reference disc arithmetic it is checked with."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import schottkyfold as sf
from schottkyfold.folding import select_target, tilde_d_j_of_i
from helpers import (
    EIGHT_POINT_7ADIC,
    SIX_POINT_5ADIC,
    TEST_FIELDS,
    ctx2,
    ctx5,
    ctx7,
    pairs_as_sets,
    sample_paired,
)
from reference import (
    delta,
    disc,
    join,
    min_disc,
    pair_disc,
    point_to_axis,
    same,
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
    assert tree.component_count() == 1
    assert len(tree.distinguished()) == 3
    (v2,) = (v for v in tree.distinguished() if v.pair_index == 2)
    assert tree.valency(v2.id) == 2  # not every distinguished vertex is a tail


def test_reduced_convex_hull_7adic_showcase():
    pcfg = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    tree = sf.reduced_convex_hull(pcfg)
    assert tree.component_count() == 1
    assert len(tree.distinguished()) == 4
    assert max(tree.valency(v.id) for v in tree.distinguished()) == 2
    # edge lengths: chain v0 -(2)- v1 -(2)- v3 and v2 -(1)- v3
    lengths = sorted(length for _, _, length in tree.edges)
    assert lengths == [1, 2, 2]


def test_reduced_convex_hull_two_components():
    ctx = ctx5()
    pcfg = sf.pair_up(sf.configuration(ctx, [0, 125, 5, 1, 6, "inf"]))
    tree = sf.reduced_convex_hull(pcfg)
    assert tree.component_count() == 2
    assert len(tree.distinguished()) == 4
    # every distinguished vertex is a tail of its component
    assert all(tree.valency(v.id) <= 1 for v in tree.distinguished())
    # the axis of the pair at infinity meets both components
    met = {}
    for v in tree.distinguished():
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
            assert all(tree.valency(v.id) <= 1 for v in tree.distinguished())


def test_hull_requires_canonical_pairing():
    ctx = ctx5()
    pcfg = sf.pair_up(sf.configuration(ctx, SIX_POINT_5ADIC))
    scrambled = sf.PairedConfiguration(
        ctx,
        (
            (pcfg.pairs[0][0], pcfg.pairs[1][0]),
            (pcfg.pairs[0][1], pcfg.pairs[1][1]),
            pcfg.pairs[2],
        ),
    )
    with pytest.raises(sf.NotPairedError):
        sf.reduced_convex_hull(scrambled)

    dyadic = ctx2()
    for pairs in (
        ((0, 4), (1, "inf")),  # canonical classes, but margin 2 <= 2 rho
        ((1, 1), (2, "inf")),  # a repeated point
    ):
        pcfg = sf.PairedConfiguration(
            dyadic,
            tuple(tuple(sf.configuration(dyadic, pair).points) for pair in pairs),
        )
        with pytest.raises(sf.NotPairedError):
            sf.reduced_convex_hull(pcfg)


def test_hull_checks_only_pairings_made_by_hand(monkeypatch):
    # a pair_up result passed both pairing rules on the skeleton it holds;
    # the same pairs made by hand are checked, and give the same forest
    calls = []
    for name in ("canonical_pairs", "check_separated"):
        original = getattr(sf.hull, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(sf.hull, name, counted)
    ctx = ctx7()
    pcfg = sf.pair_up(sf.configuration(ctx, EIGHT_POINT_7ADIC))
    tree = sf.reduced_convex_hull(pcfg)
    assert calls == []
    by_hand = sf.PairedConfiguration(ctx, pcfg.pairs)
    assert sf.to_dot(sf.reduced_convex_hull(by_hand)) == sf.to_dot(tree)
    assert calls == ["canonical_pairs", "check_separated"]


def test_hull_statistics_on_random_configurations():
    rng = random.Random(8)
    for ell in (2, 3, 5, 7):
        ctx = sf.field_context(2, ell)
        for g in (1, 2, 3, 4):
            for _ in range(3):
                cfg, pcfg = sample_paired(rng, ctx, g)
                tree = sf.reduced_convex_hull(pcfg)
                clusters = sf.cluster_data(cfg)
                odd = sum(
                    1
                    for c in clusters
                    if len(c.members) % 2 == 1
                    and 3 <= len(c.members) <= 2 * g - 1
                )
                assert len(tree.distinguished()) == g + odd + 1
                assert tree.component_count() == odd + 1
                for va in tree.distinguished():
                    for vb in tree.distinguished():
                        if va.id < vb.id and va.component == vb.component:
                            d = delta(va.disc, vb.disc)
                            assert d > 2 * ctx.rho


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
                split += tree.component_count() > 1
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
            values = pcfg.skeleton().values
            for i, pair in enumerate(pcfg.pairs):
                if any(pt.is_infinity for pt in pair):
                    members = values
                else:
                    members = [pt.value for pt in pair]
                assert same(pair_disc(pcfg, i), min_disc(ctx, members))
            for v in sf.reduced_convex_hull(pcfg).vertices:
                cluster = [values[k] for k in sorted(v.cluster)]
                assert same(v.disc, min_disc(ctx, cluster))
            for i in range(g):
                j, _ = select_target(pcfg, i)
                dt = skeleton_disc(pcfg, tilde_d_j_of_i(pcfg, i, j))
                assert point_to_axis(dt, pcfg.pairs[j], ctx) == ctx.rho
                cases += 1
    assert cases == 588  # 7 fields, 6 sets for each g, g (i, j) cases per set


def test_every_hull_vertex_is_centred_at_its_lowest_ranked_member():
    # a member's rank is its place among the finite points listed pair by
    # pair; in the pinned 3-adic set the vertex of {27, 36, 6} holds the
    # ranks 4, 5 and 8, and is centred at 27
    def check(pcfg):
        ranked = [pt.value for pair in pcfg.pairs for pt in pair if not pt.is_infinity]
        values = pcfg.skeleton().values
        tree = sf.reduced_convex_hull(pcfg)
        for v in tree.vertices:
            members = [values[k] for k in v.cluster]
            assert v.disc.center == min(members, key=ranked.index)
        return tree

    ctx = sf.field_context(2, 3)
    points = [2, 27, 6, 37, -11, 43, 10, -13, 36, "inf"]
    pcfg = sf.pair_up(sf.configuration(ctx, points))
    centres = {frozenset(pcfg.skeleton().values[k] for k in v.cluster): v.disc.center
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
        "inf" if pt.is_infinity else u * ctx.as_fraction(pt.value) + c
        for pt in cfg.points
    ]
    tree2 = sf.reduced_convex_hull(sf.pair_up(sf.configuration(ctx, mapped)))
    assert len(tree.vertices) == len(tree2.vertices)
    assert tree.component_count() == tree2.component_count()
    assert sorted(length for *_, length in tree.edges) == sorted(
        length for *_, length in tree2.edges
    )


def test_point_to_axis_distances():
    ctx = ctx2()
    pcfg = sf.pair_up(sf.configuration(ctx, [0, 32, 1, "inf"]))
    dt = skeleton_disc(pcfg, tilde_d_j_of_i(pcfg, 0, 1))
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


def test_to_dot_7adic_has_four_distinguished_nodes():
    pcfg = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    dot = sf.to_dot(sf.reduced_convex_hull(pcfg))
    assert dot.count("fillcolor=lightblue") == 4
    assert dot.count(" -- ") == 3


def test_hull_accepts_infinity_first_in_its_pair():
    # the pairing is compared as unordered pairs, so a hand-built
    # configuration listing infinity first in its pair is canonical too,
    # and its forest is the one pair_up's order gives
    for ctx, points in ((ctx5(), SIX_POINT_5ADIC), (ctx7(), EIGHT_POINT_7ADIC)):
        pcfg = sf.pair_up(sf.configuration(ctx, points))
        *finite, (last, inf) = pcfg.pairs
        flipped = sf.PairedConfiguration(ctx, (*finite, (inf, last)))
        assert inf.is_infinity
        want = sf.to_dot(sf.reduced_convex_hull(pcfg))
        assert sf.to_dot(sf.reduced_convex_hull(flipped)) == want
