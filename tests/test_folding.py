"""The folding algorithm: targets, the fold test, the driver."""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import schottkyfold as sf
from schottkyfold import cli, folding, valfield
from schottkyfold.folding import (
    apply_folding,
    compute_I,
    find_fold_exponent,
    fold_map,
    select_target,
    targets,
)
from schottkyfold.valfield import Val
from helpers import (
    DYADIC_FOUR,
    DYADIC_SIX_FOLDING,
    DYADIC_SIX_PLAIN,
    EIGHT_POINT_7ADIC,
    EIGHT_POINT_7ADIC_MIN,
    SIX_POINT_5ADIC,
    TEST_FIELDS,
    check_verdict_folds,
    count_calls,
    count_chain_walks,
    count_cluster_records,
    count_finite_pairs_built,
    ctx2,
    ctx5,
    ctx7,
    kadziela_points,
    lowering_sets,
    module_env,
    multiset,
    nielsen_move,
    pairing,
    pushed_back,
    recorded_inside,
    sample_paired,
    target_disc,
    values_multiset,
)
from reference import (
    apply_by_fractions,
    axis_gaps_by_valuation,
    branch_by_valuation,
    chain_by_membership,
    cross_ratios,
    disc,
    field_add,
    fold_exponent,
    minimal_odd,
    order_p_fixing,
    order_p_fixing_by_fractions,
    paired_by_hand,
    point_to_axis,
    pole_by_fractions,
    pushed_back_by_chain,
    repeat_classes_by_value,
    repeat_verdict_by_value,
    repetition_by_value,
    same,
    select_by_chain,
    skeleton_disc,
    target_by_chain,
)


def paired(ctx, values):
    return sf.pair_up(sf.configuration(ctx, values))


def fold_set(pcfg, i, j):
    return compute_I(pcfg, i, pushed_back(pcfg, i, j))


def scan(pcfg, i, j):
    return find_fold_exponent(pcfg, i, j, fold_set(pcfg, i, j))


def fold(pcfg, i, j, n):
    return apply_folding(pcfg, fold_set(pcfg, i, j), fold_map(pcfg, j, n))


def test_d_j_of_i_examples():
    p7 = paired(ctx7(), EIGHT_POINT_7ADIC)
    got = skeleton_disc(p7, target_disc(p7, 0, 1))
    assert same(got, disc(ctx7(), -12, 2))
    got = skeleton_disc(p7, target_disc(p7, 0, 3))
    assert same(got, disc(ctx7(), 0, 0))

    p5 = paired(ctx5(), [0, 125, 5, 1, 6, "inf"])
    assert target_disc(p5, 0, 1) is None


def test_tilde_disc_examples():
    # zero separation radius: the pushed-back disc is the target itself
    p7 = paired(ctx7(), EIGHT_POINT_7ADIC)
    assert same(skeleton_disc(p7, pushed_back(p7, 0, 1)), disc(ctx7(), -12, 2))
    # dyadic second-case formula: radius 2*0 - 0 + 1 around the pair
    p2 = paired(ctx2(), DYADIC_FOUR)
    dt = skeleton_disc(p2, pushed_back(p2, 0, 1))
    assert same(dt, disc(ctx2(), 0, 1))
    assert point_to_axis(dt, p2.pairs[1], ctx2()) == 1


def test_select_target_examples():
    p5 = paired(ctx5(), SIX_POINT_5ADIC)
    assert select_target(p5, 0) == (2, pushed_back(p5, 0, 2))
    p7 = paired(ctx7(), EIGHT_POINT_7ADIC)
    assert select_target(p7, 0) == (1, pushed_back(p7, 0, 1))
    p7b = paired(ctx7(), [9, -40, -110, 86, 0, 7, 1, "inf"])
    assert select_target(p7b, 0) == (3, pushed_back(p7b, 0, 3))


def test_compute_I_examples():
    assert fold_set(paired(ctx5(), SIX_POINT_5ADIC), 0, 2) == {0}
    p7 = paired(ctx7(), EIGHT_POINT_7ADIC)
    assert fold_set(p7, 0, 1) == {0}
    p7b = paired(ctx7(), [9, -40, -110, 86, 0, 7, 1, "inf"])
    assert fold_set(p7b, 0, 3) == {0, 1}


def test_find_fold_exponent_examples():
    n, w = scan(paired(ctx5(), SIX_POINT_5ADIC), 0, 2)
    assert n == 1 and w.lhs == Val(Fraction(1)) and w.rhs == Val(Fraction(0))

    n, w = scan(paired(ctx7(), EIGHT_POINT_7ADIC), 0, 1)
    assert n == 1 and w.lhs == Val(Fraction(1)) and w.rhs == Val(Fraction(0))

    # the optimal set admits no fold anywhere
    pmin = paired(ctx7(), EIGHT_POINT_7ADIC_MIN)
    for i in range(pmin.g):
        j, _ = select_target(pmin, i)
        assert scan(pmin, i, j) is None


def test_apply_folding_examples():
    got = fold(paired(ctx5(), SIX_POINT_5ADIC), 0, 2, 1)
    assert multiset(got) == values_multiset(ctx5(), [-5, -10, 0, 5, 1, "inf"])

    got = fold(paired(ctx7(), EIGHT_POINT_7ADIC), 0, 1, 1)
    assert multiset(got) == values_multiset(
        ctx7(), [9, -40, -110, 86, 0, 7, 1, "inf"]
    )

    p7b = paired(ctx7(), [9, -40, -110, 86, 0, 7, 1, "inf"])
    got = fold(p7b, 0, 3, 1)
    assert multiset(got) == values_multiset(ctx7(), EIGHT_POINT_7ADIC_MIN)


def test_fold_map_and_apply_folding_match_the_fraction_route():
    # fold_map builds the map from the skeleton's numerators, and
    # apply_folding maps each moved point through one quotient; they must
    # give the pair's generator power and the Fraction action on the points,
    # a pole going to infinity
    poles = 0
    for ctx, cfg in lowering_sets(47, genera=(2, 3)):
        pcfg = sf.pair_up(cfg)
        for j, n in itertools.product(range(pcfg.g + 1), range(1, ctx.p)):
            m = fold_map(pcfg, j, n)
            ref = order_p_fixing_by_fractions(ctx, *pcfg.pairs[j], n)
            assert m == order_p_fixing(ctx, *pcfg.pairs[j], n) == ref
            assert repr(m) == repr(ref)
            # every pair but j moves, the pair at infinity included
            others = frozenset(range(pcfg.g + 1)) - {j}
            expected = [
                apply_by_fractions(m, pt) if l in others else pt
                for l, pair in enumerate(pcfg.pairs)
                for pt in pair
            ]
            assert apply_folding(pcfg, others, m).points == tuple(expected)
            # a finite pair l moved onto the pole of m, by hand (the map
            # fixing infinity has none)
            if m.c == ctx.integers.zero:
                continue
            l = (j + 1) % pcfg.g
            pole = pole_by_fractions(m)
            if pole in pcfg.points():
                continue
            pairs = list(pcfg.pairs)
            pairs[l] = (pole, pairs[l][1])
            moved = paired_by_hand(ctx, tuple(pairs))
            assert fold_map(moved, j, n) == m
            after = apply_folding(moved, frozenset({l}), m)
            assert after.points[2 * l].is_infinity
            assert after.points[2 * l + 1] == apply_by_fractions(m, pairs[l][1])
            poles += 1
    assert poles > 50


def test_run_not_good_showcase():
    verdict = sf.run_algorithm(ctx5(), sf.configuration(ctx5(), SIX_POINT_5ADIC))
    assert isinstance(verdict, sf.NotGood)
    assert len(verdict.trace) == 1
    step = verdict.trace[0]
    assert (step.i, step.j, step.n) == (0, 2, 1)
    assert step.indices == {0}
    assert multiset(step.after) == values_multiset(ctx5(), [-5, -10, 0, 5, 1, "inf"])
    assert verdict.failure is sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS
    check_verdict_folds(verdict)


def test_run_good_showcase():
    verdict = sf.run_algorithm(ctx7(), sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    assert isinstance(verdict, sf.Good)
    assert [s.j for s in verdict.trace] == [1, 3]
    assert [sorted(s.indices) for s in verdict.trace] == [[0], [0, 1]]
    assert multiset(verdict.trace[0].after) == values_multiset(
        ctx7(), [9, -40, -110, 86, 0, 7, 1, "inf"]
    )
    assert multiset(verdict.s_min.configuration()) == values_multiset(
        ctx7(), EIGHT_POINT_7ADIC_MIN
    )
    check_verdict_folds(verdict)


def test_run_four_points_good_without_folds():
    verdict = sf.run_algorithm(ctx5(), sf.configuration(ctx5(), [0, 5, 1, "inf"]))
    assert isinstance(verdict, sf.Good)
    assert verdict.trace == ()


def test_run_requires_infinity_and_even_size():
    ctx = ctx5()
    with pytest.raises(sf.InvalidInputError):
        sf.run_algorithm(ctx, sf.configuration(ctx, [0, 5, 1, 3]))
    with pytest.raises(sf.InvalidInputError):
        sf.run_algorithm(ctx, sf.configuration(ctx, [0, 5, "inf"]))
    with pytest.raises(sf.InvalidInputError):
        sf.run_algorithm(ctx, sf.configuration(ctx, [0, 5, 1, 3, 9, 2]))


def test_run_refuses_a_context_other_than_the_configurations():
    # the run reads the field off the configuration, so a context that is
    # not the configuration's own is refused, not ignored; an equal one,
    # even built anew, is the configuration's own
    cfg = sf.configuration(ctx5(), SIX_POINT_5ADIC)
    for ctx in (ctx7(), ctx2(), sf.field_context(3, 7)):
        with pytest.raises(sf.InvalidInputError, match=r"field is FieldContext\(p=2, ell=5"):
            sf.run_algorithm(ctx, cfg)
    assert isinstance(sf.run_algorithm(sf.FieldContext(2, 5), cfg), sf.NotGood)


def test_run_redundant_on_even_repetitions():
    ctx = ctx5()
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, [0, 0, 5, 5, 1, "inf"]))
    assert isinstance(verdict, sf.Redundant)
    assert multiset(verdict.reduced) == values_multiset(ctx, [0, 5, 1, "inf"])


def test_run_not_good_on_odd_repetitions():
    ctx = ctx5()
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, [0, 0, 5, 7, 1, "inf"]))
    assert isinstance(verdict, sf.NotGood)
    assert verdict.trace == ()
    assert verdict.failure is sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS


def test_run_not_good_when_initially_unpaired():
    ctx = ctx5()
    verdict = sf.run_algorithm(
        ctx, sf.configuration(ctx, [-5, -10, 0, 5, 1, "inf"])
    )
    assert isinstance(verdict, sf.NotGood)
    assert verdict.trace == ()
    assert verdict.failure is sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS


def test_dyadic_runs_are_self_consistent():
    ctx = ctx2()
    for values in (DYADIC_FOUR, DYADIC_SIX_PLAIN):
        verdict = sf.run_algorithm(ctx, sf.configuration(ctx, values))
        assert isinstance(verdict, sf.Good)
        assert verdict.trace == ()

    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, DYADIC_SIX_FOLDING))
    assert isinstance(verdict, sf.Good)
    assert len(verdict.trace) == 1
    step = verdict.trace[0]
    assert step.witness.lhs == Val(Fraction(5)) and step.witness.rhs == Val(Fraction(3))
    check_verdict_folds(verdict)
    rerun = sf.run_algorithm(ctx, verdict.s_min.configuration())
    assert isinstance(rerun, sf.Good) and rerun.trace == ()


def test_optimal_output_is_a_fixed_point():
    rng = random.Random(2024)
    for ell in (3, 5, 7):
        ctx = sf.field_context(2, ell)
        for g in (2, 3):
            cfg, _ = sample_paired(rng, ctx, g)
            verdict = sf.run_algorithm(ctx, cfg)
            if not isinstance(verdict, sf.Good):
                continue
            rerun = sf.run_algorithm(ctx, verdict.s_min.configuration())
            assert isinstance(rerun, sf.Good)
            assert rerun.trace == ()
            assert multiset(rerun.s_min.configuration()) == multiset(
                verdict.s_min.configuration()
            )


def test_verdict_variant_is_permutation_stable():
    rng = random.Random(7)
    ctx = ctx5()
    for values in (SIX_POINT_5ADIC, [0, 125, 5, 1, 6, "inf"]):
        base = sf.run_algorithm(ctx, sf.configuration(ctx, values))
        shuffled = list(values)
        for _ in range(4):
            rng.shuffle(shuffled)
            again = sf.run_algorithm(ctx, sf.configuration(ctx, shuffled))
            assert type(again) is type(base)
            assert len(again.trace) == len(base.trace)


def test_fold_that_repairs_differently_is_bad():
    # The fold across {-28, inf} lands the vertex of {-18, -39} exactly on
    # the vertex of {-32, 10}: the folded points still pair up, but under
    # a brand-new pairing, so the inherited pairing lost separation.  The
    # driver must stop with a bad fold (re-pairing from scratch would
    # silently switch groups and loop); the oracle confirms not-good.
    ctx = sf.field_context(2, 3)
    cfg = sf.configuration(ctx, [-18, -32, -39, 10, -28, "inf"])
    verdict = sf.run_algorithm(ctx, cfg)
    assert isinstance(verdict, sf.NotGood)
    assert len(verdict.trace) == 1
    # the folded set pairs up, so the failure comes from the check of the
    # inherited pairing
    assert verdict.failure is sf.PairingFailure.NOT_SEPARATED
    after = verdict.trace[-1].after.points
    inherited = {frozenset(after[k : k + 2]) for k in range(0, len(after), 2)}
    assert pairing(sf.pair_up(verdict.trace[-1].after)) != inherited
    witness = sf.schottky_audit(sf.pair_up(cfg), 4).witness
    assert witness is not None
    assert witness[1].kind is not sf.MapKind.LOXODROMIC


def test_odd_p_degenerate_branch_terminates_and_matches_oracle():
    # a cubic-cover configuration whose first fold lands a vertex at tube
    # distance from two axes at once; with consistent map orientation the
    # run terminates and agrees with the brute-force audit
    from fractions import Fraction

    ctx = sf.field_context(3, 7)
    pts = [Fraction(-24), Fraction(49, 2), Fraction(1, 2), Fraction(-19), Fraction(2), "inf"]
    cfg = sf.configuration(ctx, pts)
    verdict = sf.run_algorithm(ctx, cfg)
    assert isinstance(verdict, sf.NotGood)
    assert len(verdict.trace) <= 5
    witness = sf.schottky_audit(sf.pair_up(cfg), 6).witness
    assert witness is not None
    assert witness[1].kind is not sf.MapKind.LOXODROMIC


def test_kadziela_style_configurations_are_good_without_folds():
    # descending-valuation chains with disjoint pair discs, away from
    # residue characteristic p
    rng = random.Random(55)
    for ell in (3, 5, 7):
        ctx = sf.field_context(2, ell)
        for g in (1, 2, 3):
            for _ in range(4):
                values = kadziela_points(rng, ctx, g)
                verdict = sf.run_algorithm(ctx, sf.configuration(ctx, values))
                assert isinstance(verdict, sf.Good)
                assert verdict.trace == ()


def test_all_tails_does_not_certify_optimality_in_residue_characteristic_p():
    # Over the dyadics the fixed tubes have radius 1 and can collide even
    # when every distinguished vertex is a tail: the involution fixing
    # {1, inf} maps 0 exactly onto 2, so the pairs {0,32} and {2,34} fold
    # badly.  The group oracle confirms with a parabolic witness.
    ctx = ctx2()
    cfg = sf.configuration(ctx, [0, 32, 4, 36, 2, 34, 1, "inf"])
    pcfg = sf.pair_up(cfg)
    tree = sf.reduced_convex_hull(pcfg)
    assert all(tree.valency(v.id) <= 1 for v in tree.distinguished())
    verdict = sf.run_algorithm(ctx, cfg)
    assert isinstance(verdict, sf.NotGood)
    witness = sf.schottky_audit(pcfg, 4).witness
    assert witness is not None
    assert witness[1].kind is sf.MapKind.PARABOLIC


@pytest.mark.parametrize(
    "ctx_of, points", [(ctx7, EIGHT_POINT_7ADIC), (ctx5, SIX_POINT_5ADIC)]
)
def test_one_cluster_build_per_pass(monkeypatch, ctx_of, points):
    ctx = ctx_of()
    cfg = sf.configuration(ctx, points)
    builds = count_calls(monkeypatch, sf.clusters, "cluster_data", everywhere=True)
    passes = count_calls(monkeypatch, sf.folding, "pair_up")
    sf.run_algorithm(ctx, cfg)
    assert passes
    assert len(builds) <= len(passes)


def test_run_computes_each_pushed_back_target_once(monkeypatch):
    # select_target finds every target of pair i in one targets loop per
    # (pass, i) and hands its choice to compute_I, so no (pass, i, j)
    # target is computed twice
    loops = count_calls(monkeypatch, sf.folding, "targets")
    selects = count_calls(monkeypatch, sf.folding, "select_target")
    verdict = sf.run_algorithm(ctx7(), sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    assert isinstance(verdict, sf.Good) and len(verdict.trace) == 2
    passes = [(id(pcfg), i) for pcfg, i in loops]
    assert passes and sorted(passes) == sorted((id(pcfg), i) for pcfg, i in selects)
    assert len(passes) == len(set(passes))
    keys = []
    for pcfg, i in loops:
        keys += [(id(pcfg), i, j) for j in range(pcfg.g + 1) if j != i]
    assert len(keys) == len(set(keys)) == len(passes) * verdict.s_min.g


def test_select_target_finds_the_odd_cluster_of_pair_i_once(monkeypatch):
    # the skeleton walks the cluster chain of each finite pair once, when it
    # is built; select_target, compute_I and check_separated only read rows
    pcfg = paired(ctx7(), EIGHT_POINT_7ADIC)
    sk = pcfg.skeleton
    # pair_odd holds cluster indices; their records' members are the minimal
    # odd clusters by membership
    clusters = sk.clusters
    assert tuple(None if k is None else clusters[k].members for k in sk.pair_odd) == tuple(
        minimal_odd(sk, pts) if len(pts) == 2 else None for pts in sk.pair_points
    )
    calls = count_chain_walks(monkeypatch)
    for i in range(pcfg.g):
        j, target = select_target(pcfg, i)
        compute_I(pcfg, i, target)
    sf.clusters.check_separated(pcfg)
    assert calls == []


@pytest.mark.parametrize(
    "ctx_of, points", [(ctx7, EIGHT_POINT_7ADIC), (ctx5, SIX_POINT_5ADIC)]
)
def test_one_minimal_odd_cluster_per_pair_per_pass(monkeypatch, ctx_of, points):
    # each pass walks the cluster chain of each of its finite pairs at most
    # once, however many (i, j) select_target tries
    ctx = ctx_of()
    cfg = sf.configuration(ctx, points)
    passes = count_calls(monkeypatch, sf.folding, "pair_up")
    built = count_finite_pairs_built(monkeypatch)
    calls = count_chain_walks(monkeypatch)
    sf.run_algorithm(ctx, cfg)
    assert passes and calls
    assert len(calls) <= len(passes) * len(points) // 2
    assert len(calls) <= sum(built)


@pytest.mark.parametrize(
    "ctx_of, points", [(ctx7, EIGHT_POINT_7ADIC), (ctx5, SIX_POINT_5ADIC)]
)
def test_the_fold_loop_makes_no_cluster_records(monkeypatch, ctx_of, points):
    # the fold pass reads the skeleton's flat tree; a Cluster record is made
    # only for a reader outside the loop, such as the hull of each stage
    ctx = ctx_of()
    made = count_cluster_records(monkeypatch)
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
    assert verdict.trace and made == []
    stages = [step.before for step in verdict.trace]
    stages += [verdict.s_min] if isinstance(verdict, sf.Good) else []
    for pcfg in stages:
        sf.reduced_convex_hull(pcfg)
    assert made


# Two paired configurations made by hand, which no run_algorithm input reaches:
# pairs in no odd cluster (there is no infinity, so the root is even), and
# a pair inside an even cluster of negative depth that splits another pair.
NO_INFINITY_PAIRS = [(0, 5), (1, 6)]
NEGATIVE_EVEN_PAIRS = [(0, 25), ("1/5", "1/25"), (1, "inf")]


def _hand_paired(ctx, pairs):
    pt = lambda x: sf.INFINITY if x == "inf" else sf.finite(ctx, Fraction(x))
    return paired_by_hand(ctx, tuple((pt(a), pt(b)) for a, b in pairs))


def _fold_rule_inputs(monkeypatch):
    """Every paired configuration check_separated is handed, with the error
    it raised (None when it passed): at the fold stages of the 7-adic
    showcase, at every stage of every pinned CLI document, on
    ``lowering_sets`` at g up to 12 (random paired sets of the seven test
    fields and their images with denominators), each also paired at random
    (its pair at infinity last), which is seldom separated, and on the two
    configurations made by hand above (5-adic)."""
    seen = []
    original = sf.clusters.check_separated

    def recorded(pcfg):
        try:
            original(pcfg)
        except sf.PairingError as exc:
            seen.append((pcfg, exc))
            raise
        seen.append((pcfg, None))

    monkeypatch.setattr(sf.clusters, "check_separated", recorded)
    sf.run_algorithm(ctx7(), sf.configuration(ctx7(), EIGHT_POINT_7ADIC))
    for doc in sorted((Path(__file__).parent / "expected" / "cli").glob("*.json")):
        cli.run(cli.parse_problem(doc.read_text(encoding="utf-8")))
    rng = random.Random(19)
    for ctx, cfg in lowering_sets(19, genera=(2, 3, 5, 8, 12)):
        sf.pair_up(cfg)
        finite = [pt for pt in cfg.points if not pt.is_infinity]
        rng.shuffle(finite)
        pairs = list(zip(finite[::2], finite[1::2])) + [(finite[-1], sf.INFINITY)]
        try:
            sf.clusters.check_separated(paired_by_hand(ctx, tuple(pairs)))
        except sf.PairingError:
            pass
    # pairs (a, b), (y, z) with v(b - z) alone the largest of the four cross
    # valuations: v(a - b) < v(y - z) < v(b - z)
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        unit = lambda: rng.randrange(1, ell) if ell > 2 else 1
        for _ in range(3):
            b, s = rng.randrange(ell**3), rng.randint(0, 1)
            z = b + unit() * ell ** rng.randint(s + 2, s + 4)
            pairs = ((b + unit() * ell**s, b), (z + unit() * ell ** (s + 1), z), (b - 1, "inf"))
            try:
                sf.clusters.check_separated(_hand_paired(ctx, pairs))
            except sf.PairingError:
                pass
    for pairs in (NO_INFINITY_PAIRS, NEGATIVE_EVEN_PAIRS):
        try:
            sf.clusters.check_separated(_hand_paired(ctx5(), pairs))
        except sf.PairingError:
            pass
    return seen


def test_fold_pass_rules_match_their_definitions(monkeypatch):
    # targets reads each target off one step-matrix row and the odd depths
    # of pair i's chain, compute_I the branch off one row, the skeleton
    # every axis gap off the pairs' rows (check_separated reads their
    # least); each must agree with its definition by cluster membership and
    # field valuations, on every (i, j), whether or not the pairs are
    # separated
    cases = Counter()
    for pcfg, error in _fold_rule_inputs(monkeypatch):
        sk, ctx = pcfg.skeleton, pcfg.ctx
        gaps = axis_gaps_by_valuation(pcfg)
        assert sk.pair_gaps == gaps
        margin = min(gaps, default=None)
        # and the distance of every two axes, as the one gap of those two
        # pairs, in the order of pair_gaps
        for (i, j), gap in zip(itertools.combinations(range(pcfg.g + 1), 2), gaps, strict=True):
            two = paired_by_hand(ctx, (pcfg.pairs[i], pcfg.pairs[j]))
            assert two.skeleton.pair_gaps == axis_gaps_by_valuation(two) == (gap,)
            if len(sk.pair_points[j]) == 2:
                (a, b), (y, z) = sk.pair_points[i], sk.pair_points[j]
                rest = max(sk.smat[a][y], sk.smat[a][z], sk.smat[b][y])
                cases["b - z alone largest"] += sk.smat[b][z] > rest
        if error is None:
            assert margin is None or margin > 2 * ctx.rho_steps
        else:
            cases["not separated"] += 1
            assert margin <= 2 * ctx.rho_steps
            assert error.failure is sf.PairingFailure.NOT_SEPARATED
            assert str(error) == (
                f"separation margin {Fraction(margin, ctx.ramification)} is not > twice the radius"
            )
        for i, pts_i in enumerate(sk.pair_points):
            walk = [c for c in chain_by_membership(sk, pts_i) if len(c.members) % 2]
            odd_i = sk.pair_odd[i]
            assert (None if odd_i is None else sk.clusters[odd_i].members) == (
                minimal_odd(sk, pts_i) if len(pts_i) == 2 else None
            )
            assert sk.pair_odd_depths[i] == (tuple(c.depth for c in walk) if len(pts_i) == 2 else ())
            found = targets(pcfg, i)
            assert len(found) == pcfg.g + 1 and found[i] is None
            for j, pts_j in enumerate(sk.pair_points):
                if j == i:
                    continue
                d, dt = found[j] or (None, None)
                assert d == target_by_chain(pcfg, i, j)
                assert dt == pushed_back_by_chain(pcfg, i, j)
                if dt is None:
                    continue
                # the branch of every pushed-back target, as deep as it goes
                branch = branch_by_valuation(pcfg, i, dt)
                if i in branch:
                    assert compute_I(pcfg, i, dt) == branch
                else:
                    with pytest.raises(RuntimeError):
                        compute_I(pcfg, i, dt)
                row = sk.smat[sk.pair_discs[i][0]]
                ends = sorted(row[y] for y in pts_j)
                depths = sk.pair_odd_depths[i]
                cases["j at infinity"] += len(pts_j) == 1
                cases["same minimal odd"] += sk.pair_odd[i] is not None and sk.pair_odd[i] == sk.pair_odd[j]
                cases["depth at lo"] += len(ends) == 2 and ends[0] in depths
                cases["depth at hi"] += ends[-1] in depths
                cases["hi beyond pair i"] += ends[-1] > sk.pair_discs[i][1]
            if i < pcfg.g:
                expected = select_by_chain(pcfg, i)
                if expected is None:
                    with pytest.raises(sf.InvalidInputError):
                        select_target(pcfg, i)
                    continue
                j, target = select_target(pcfg, i)
                assert (j, target) == expected
                assert compute_I(pcfg, i, target) == branch_by_valuation(pcfg, i, target)
    assert set(cases) == {
        "not separated", "j at infinity", "same minimal odd", "depth at lo", "depth at hi",
        "hi beyond pair i", "b - z alone largest",
    }
    assert all(cases.values()), cases


def test_target_rule_without_infinity():
    # with infinity the root cluster is odd, so every finite pair has a
    # minimal odd cluster; here the four points lie in even clusters only,
    # so neither pair has one, and no odd cluster holds one point of the
    # other pair: no target, though both pair_odd are None
    pcfg = _hand_paired(ctx5(), NO_INFINITY_PAIRS)
    assert pcfg.skeleton.pair_odd == (None, None)
    assert target_disc(pcfg, 0, 1) is None and target_disc(pcfg, 1, 0) is None


def test_target_rule_skips_an_even_cluster_of_negative_depth():
    # pair 0 = {0, 25} lies in G = {0, 25, 1} (odd, depth 0), inside
    # E = G + {1/5} (even, depth -1), inside the root (odd, depth -2);
    # pair 1 = {1/5, 1/25} has one point in E and one outside it.  The odd
    # depths of pair 0's chain are 0 and -2, neither in (-2, -1], so there
    # is no target; E's depth, -1, would give one
    pcfg = _hand_paired(ctx5(), NEGATIVE_EVEN_PAIRS)
    sk = pcfg.skeleton
    assert sk.pair_odd_depths[0] == (0, -2)
    row = sk.smat[sk.pair_discs[0][0]]
    assert sorted(row[y] for y in sk.pair_points[1]) == [-2, -1]
    assert any(len(c.members) == 4 and c.depth == -1 for c in sk.clusters)
    assert target_disc(pcfg, 0, 1) is None


def test_compute_I_refuses_a_target_that_leaves_pair_i_out():
    # a branch as deep as pair i's own disc leaves pair i's second point out
    pcfg = paired(ctx7(), EIGHT_POINT_7ADIC)
    with pytest.raises(RuntimeError, match="own branch"):
        compute_I(pcfg, 0, pcfg.skeleton.pair_discs[0])


# select_target replaced by one that hands compute_I pair i's own disc
_TOO_DEEP = """
import sys
from schottkyfold import cli, folding
folding.select_target = lambda pcfg, i: (pcfg.g, pcfg.skeleton.pair_discs[i])
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_target_that_leaves_pair_i_out_exits_4(tmp_path, monkeypatch, capsys):
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps({"p": 2, "ell": 7, "points": [str(x) for x in EIGHT_POINT_7ADIC]}),
        encoding="utf-8",
    )
    monkeypatch.setattr(
        sf.folding, "select_target", lambda pcfg, i: (pcfg.g, pcfg.skeleton.pair_discs[i])
    )
    assert cli.main(["--input", str(path)]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("internal error: RuntimeError:")
    # python -O strips asserts; the check must hold there too
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TOO_DEEP, "--input", str(path)],
        capture_output=True, text=True, env=module_env(),
    )
    assert proc.returncode == cli.EXIT_INTERNAL
    assert proc.stderr.startswith("internal error: RuntimeError:")


def _nielsen_chain(k):
    """The good set (0, 81), (1, 82), (2, 83), (5, inf) over p = 2, ell = 3,
    its third pair moved by t_0, t_1, t_0, ... (k maps in all), t_m the
    order-2 map fixing pair m: a chain of Nielsen moves, so the set stays
    good."""
    ctx = sf.field_context(2, 3)
    fin = lambda x: sf.finite(ctx, x)
    t = [order_p_fixing(ctx, fin(a), fin(b), 1) for a, b in ((0, 81), (1, 82))]
    pair = [fin(2), fin(83)]
    for s in range(k):
        pair = [sf.apply(t[s % 2], x) for x in pair]
    return ctx, sf.configuration(ctx, [0, 81, 1, 82, *pair, 5, "inf"])


@pytest.mark.parametrize("k", [100, 150])
def test_a_long_nielsen_chain_folds_back_to_good(k):
    # k moves take k + 1 folds, more than a fixed cap of 100 folds would
    # allow; the loop ends on the termination measure, the sum of the axis
    # gaps, which drops at every fold
    ctx, cfg = _nielsen_chain(k)
    verdict = sf.run_algorithm(ctx, cfg)
    assert isinstance(verdict, sf.Good)
    assert len(verdict.trace) == k + 1
    stages = [step.before for step in verdict.trace] + [verdict.s_min]
    measures = [sum(pcfg.skeleton.pair_gaps) for pcfg in stages]
    assert all(a > b >= 0 for a, b in zip(measures, measures[1:]))


def _nielsen_chain_document(k):
    """``_nielsen_chain(k)`` as a problem document, its moves built on plain
    Fractions rather than by the package's own maps."""

    def involution(a, b):
        # z -> ((a + b) z - 2ab) / (2z - (a + b)) fixes a and b
        return lambda z: ((a + b) * z - 2 * a * b) / (2 * z - (a + b))

    moves = [involution(Fraction(0), Fraction(81)), involution(Fraction(1), Fraction(82))]
    pair = [Fraction(2), Fraction(83)]
    for s in range(k):
        pair = [moves[s % 2](z) for z in pair]
    return json.dumps({"p": 2, "ell": 3, "points": ["0", "81", "1", "82", *map(str, pair), "5", "inf"]})


@pytest.mark.parametrize("k", [100, 400])
def test_a_long_nielsen_chain_folds_back_through_the_entry_point(k):
    # at k = 400 the points grow to hundreds of digits, whose valuations the
    # integer kernel strips in blocks of ell^(2^j); the child process is
    # killed after 60 s, so the test fails, not hangs
    proc = subprocess.run(
        [sys.executable, "-m", "schottkyfold", "--stdin"],
        input=_nielsen_chain_document(k), capture_output=True, text=True,
        env=module_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"]["kind"] == "good"
    assert report["fold_count"] == k + 1


def test_a_fold_that_leaves_the_measure_level_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # a fold that makes no progress: it hands back the stage's own points,
    # pair by pair with infinity last, so the next stage pairs up as before
    calls = []

    def same_points(pcfg, I, m):
        calls.append(I)
        return pcfg.configuration()

    monkeypatch.setattr(sf.folding, "apply_folding", same_points)
    ctx = ctx7()
    with pytest.raises(RuntimeError, match="termination measure did not drop"):
        sf.run_algorithm(ctx, sf.configuration(ctx, EIGHT_POINT_7ADIC))
    assert len(calls) == 1
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps({"p": 2, "ell": 7, "points": [str(x) for x in EIGHT_POINT_7ADIC]}),
        encoding="utf-8",
    )
    assert cli.main(["--input", str(path)]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("internal error: RuntimeError: termination measure did not drop")


def test_hull_builds_no_skeleton_of_its_own(monkeypatch):
    pcfg = paired(ctx7(), EIGHT_POINT_7ADIC)
    builds = count_calls(monkeypatch, sf.clusters, "cluster_data", everywhere=True)
    sf.reduced_convex_hull(pcfg)
    assert builds == []


def test_cli_dot_trees_build_one_skeleton_per_pass(monkeypatch):
    doc = json.dumps(
        {
            "p": 2,
            "ell": 7,
            "points": [str(x) for x in EIGHT_POINT_7ADIC],
            "options": {"dot": "showcase"},
        }
    )
    spec = cli.parse_problem(doc)
    builds = count_calls(monkeypatch, sf.clusters, "cluster_data", everywhere=True)
    passes = count_calls(monkeypatch, sf.folding, "pair_up")
    report, _ = cli.run(spec)
    assert len(report["trees"]) == 3
    assert len(builds) == len(passes) == 3


def test_translation_beyond_the_decimal_digit_limit():
    ctx = ctx7()
    shift = 7**6000 + 3
    moved_points = [x if x == "inf" else x + shift for x in EIGHT_POINT_7ADIC]
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, moved_points))
    plain = sf.run_algorithm(ctx, sf.configuration(ctx, EIGHT_POINT_7ADIC))
    assert isinstance(verdict, sf.Good)
    assert len(verdict.trace) == 2
    moved = tuple(
        tuple(
            pt if pt.is_infinity else sf.finite(ctx, pt.value + shift) for pt in pair
        )
        for pair in plain.s_min.pairs
    )
    assert verdict.s_min.pairs == moved


def test_scan_does_no_field_arithmetic(monkeypatch):
    # the fold test runs on the skeleton's integers: no product, quotient or
    # valuation of field elements is formed during the scan
    rng = random.Random(8)
    field = {
        name: count_calls(monkeypatch, sf.FieldContext, name) for name in ("mul", "quotient", "valuation")
    }
    scans = count_calls(monkeypatch, sf.folding, "find_fold_exponent")
    inside = recorded_inside(monkeypatch, sf.folding, "find_fold_exponent", **field)
    folds = 0
    for p, ell in ((3, 7), (5, 11), (3, 3), (5, 5)):
        ctx = sf.field_context(p, ell)
        for _ in range(3):
            cfg, _ = sample_paired(rng, ctx, 3)
            folds += len(sf.run_algorithm(ctx, cfg).trace)
    assert len(scans) >= 20 and folds
    assert inside == dict.fromkeys(field, [])


def test_integer_scan_matches_the_field_route():
    # every (pass, i) the driver visits, with its chosen j and with every
    # other j, so b_j is finite as well as infinite; the integer scan must
    # give the same (n, witness) as the scan on field cross ratios.  Each
    # set is also run after a Nielsen move around the finite pair 1, which
    # a fold around that pair undoes.
    seen = {"finite": [0, 0], "infinite": [0, 0], "pruned": 0}
    for ctx, cfg in lowering_sets(29, genera=(2, 3)):
        for start in (cfg, nielsen_move(sf.pair_up(cfg), 0, 1)):
            verdict = sf.run_algorithm(ctx, start)
            passes = [step.before for step in verdict.trace]
            if isinstance(verdict, sf.Good):
                passes.append(verdict.s_min)
            _compare_scans(passes, seen)
    assert min(seen["finite"] + seen["infinite"]) >= 20, seen
    assert seen["pruned"], seen


def test_integer_scan_matches_the_field_route_at_wider_genus():
    # the same comparison at g = 5 and 6, from the Nielsen moves alone (they
    # give the folds), with many (i, l) candidates dropped unvalued because
    # their cross ratios' valuations differ
    seen = {"finite": [0, 0], "infinite": [0, 0], "pruned": 0}
    for ctx, cfg in lowering_sets(31, genera=(5, 6)):
        verdict = sf.run_algorithm(ctx, nielsen_move(sf.pair_up(cfg), 0, 1))
        passes = [step.before for step in verdict.trace]
        if isinstance(verdict, sf.Good):
            passes.append(verdict.s_min)
        _compare_scans(passes, seen)
    assert min(seen["finite"] + seen["infinite"]) >= 20, seen
    assert seen["pruned"] >= 100, seen


def test_a_scan_with_every_pair_dropped_forms_no_ratio(monkeypatch):
    # at every (pass, i, j) where no pair l outside j and the fold set shares
    # pair i's one cross-ratio valuation (by field division here), the scan
    # returns before it forms pair i's ratios or turns them: the integer
    # ring's sub and rotate never run inside it; where some l does, both run
    calls, inside = Counter(), [False]

    def watch(ring, name):
        raw = ring.__dict__[name]
        bare = isinstance(raw, staticmethod)
        original = raw.__func__ if bare else raw

        def counted(*args):
            calls[name] += inside[0]
            return original(*args)

        monkeypatch.setattr(ring, name, staticmethod(counted) if bare else counted)

    for ring in (valfield._Integers, valfield._CyclotomicIntegers):
        for name in ("sub", "rotate"):
            watch(ring, name)
    seen = Counter()
    for ctx, cfg in lowering_sets(37, genera=(2, 3)):
        verdict = sf.run_algorithm(ctx, nielsen_move(sf.pair_up(cfg), 0, 1))
        passes = [step.before for step in verdict.trace]
        if isinstance(verdict, sf.Good):
            passes.append(verdict.s_min)
        for pcfg in passes:
            pairs = range(pcfg.g + 1)
            levels = {(j, k): _valuations(pcfg, j, k) for j in pairs for k in pairs if k != j}
            for i in range(pcfg.g):
                indices = compute_I(pcfg, i, select_target(pcfg, i)[1])
                for j in pairs:
                    if j == i:
                        continue
                    level = levels[j, i]
                    open_ = len(level) == 1 and any(
                        levels[j, l] == level for l in pairs if l != j and l not in indices
                    )
                    calls.clear()
                    inside[0] = True
                    try:
                        found = find_fold_exponent(pcfg, i, j, indices)
                    finally:
                        inside[0] = False
                    if open_:
                        assert calls["sub"] and calls["rotate"]
                    else:
                        assert found is None and not +calls, calls
                    seen["open" if open_ else "split" if len(level) > 1 else "dropped"] += 1
    assert seen["dropped"] >= 50 and seen["open"] >= 50, seen


def _valuations(pcfg, j, k):
    """v(r_x) for the finite representatives c_x of pair k, by field route."""
    return {pcfg.ctx.valuation(r) for r in cross_ratios(pcfg, j, k)}


def _compare_scans(passes, seen):
    """find_fold_exponent against the reference at every (pass, i, j).

    ``seen`` counts misses and hits by the kind of pair j, and the (i, l)
    candidates whose representatives' cross ratios do not all share one
    valuation.  The scan must drop those unvalued: it values at most the
    (p - 1) |reps_i| |reps_l| differences of each other candidate l, and
    nothing when pair i's own two ratios differ.
    """
    valued = []
    original = sf.FieldContext.integral_valuation

    def counted(ctx, a):
        valued.append(None)
        return original(ctx, a)

    for pcfg in passes:
        pairs = range(pcfg.g + 1)
        levels = {(j, k): _valuations(pcfg, j, k) for j in pairs for k in pairs if k != j}
        size = [sum(not pt.is_infinity for pt in pair) for pair in pcfg.pairs]
        for i in range(pcfg.g):
            _, target = select_target(pcfg, i)
            indices = compute_I(pcfg, i, target)
            for j in pairs:
                if j == i:
                    continue
                sf.FieldContext.integral_valuation = counted
                try:
                    found = find_fold_exponent(pcfg, i, j, indices)
                finally:
                    sf.FieldContext.integral_valuation = original
                assert found == fold_exponent(pcfg, i, j, indices)
                kind = "infinite" if pcfg.pairs[j][1].is_infinity else "finite"
                seen[kind][found is not None] += 1
                candidates = [l for l in pairs if l != j and l not in indices]
                open_ = [l for l in candidates if len(levels[j, i] | levels[j, l]) == 1]
                seen["pruned"] += len(candidates) - len(open_)
                bound = (pcfg.ctx.p - 1) * sum(size[i] * size[l] for l in open_)
                assert len(valued) <= bound
                valued.clear()


def _count_hashes(monkeypatch):
    """Calls of ``Fraction.__hash__`` and ``PPoint.__hash__``, by class."""
    counts: Counter = Counter()
    for cls in (Fraction, sf.PPoint):

        def counted(self, original=cls.__hash__, name=cls.__name__):
            counts[name] += 1
            return original(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    return counts


def test_a_fold_pass_hashes_no_values(monkeypatch):
    # each pass names points by their skeleton positions: the repeat test
    # reads the step matrix, the inherited pairing is checked by position,
    # and a repeat is read off the positions cluster_data finds equal, so
    # no pass hashes a field value or a point, repeats included: sets that
    # repeat a pair from the start, and sets that meet a repeat after a fold
    starts = []
    for ctx, cfg in lowering_sets(41):
        pcfg = sf.pair_up(cfg)
        points = pcfg.points()
        starts += [(ctx, cfg), (ctx, sf.Configuration(ctx, points[:2] * 2 + points[4:]))]
        for j in (1, pcfg.g):
            moved = nielsen_move(pcfg, 0, j)
            if len(set(moved.points)) == moved.size:
                starts.append((ctx, moved))
    counts = _count_hashes(monkeypatch)
    verdicts, hashed = [], []
    for ctx, cfg in starts:
        verdicts.append(sf.run_algorithm(ctx, cfg))
        hashed.append(dict(counts))
        counts.clear()
    monkeypatch.undo()

    assert hashed == [{}] * len(starts)
    assert len({(ctx.p, ctx.ell) for ctx, _ in starts}) == 7
    folds = repeats_before = repeats_after = 0
    for (_, cfg), verdict in zip(starts, verdicts):
        last = verdict.trace[-1].after if verdict.trace else cfg
        if len(set(last.points)) == last.size:
            folds += len(verdict.trace)
        elif verdict.trace:
            repeats_after += 1
        else:
            repeats_before += 1
    assert folds >= 20 and repeats_before >= 20 and repeats_after >= 4


def _cyclotomic_multiset():
    ctx = sf.field_context(3, 7)
    w = field_add(ctx, ctx.zeta, ctx.from_fraction(Fraction(2, 3)))
    return ctx, [w, 1, w, 1, 0, "inf"], [w, 1, 0, "inf"]


@pytest.mark.parametrize(
    "make",
    [
        lambda: (ctx5(), [1, 1, 7, 12, 7, "inf"], [1, 7, 12, "inf"]),  # at the start
        lambda: (ctx5(), [7, 0, 12, 0, 12, "inf"], [7, 0, 12, "inf"]),  # in the middle
        lambda: (ctx5(), ["inf", 1, 2, 1, 2, 3], ["inf", 1, 2, 3]),  # infinity first
        _cyclotomic_multiset,  # non-rational values of Q(zeta_3), 7-adic
    ],
)
def test_even_repetitions_reduce_in_first_occurrence_order(make):
    ctx, points, reduced = make()
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
    assert isinstance(verdict, sf.Redundant) and verdict.trace == ()
    assert verdict.reduced == sf.configuration(ctx, reduced)


@pytest.mark.parametrize(
    "points",
    [
        [12, 12, 0, 5, 1, "inf"],  # at the start
        [0, 0, 0, 5, 1, "inf"],  # three copies are one repeated value
        [7, 12, 1, "inf", 5, 5],  # at the end
        [3, 7, 12, 0, 5, 1, "inf", 3],  # first and last
    ],
)
def test_odd_repetitions_are_not_paired(points):
    ctx = ctx5()
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
    assert isinstance(verdict, sf.NotGood) and verdict.trace == ()
    assert verdict.failure is sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS


SHARED_POINT_AFTER_A_FOLD = [2, 258, 5, 69, -1, 127, 4, 132, 1, 257, 0, 128, 6, 134, 3, "inf"]


def test_repetition_after_a_fold_is_redundant():
    # the fold maps pair (13, 4) onto pair (12, 3): the folded points repeat
    # two values, in two inherited pairs equal as sets, so pair_up reports
    # it on the next pass and the reduced set keeps the first occurrences
    # in order (the points of tests/expected/cli/p2_l3_redundant_after_fold)
    ctx = sf.field_context(2, 3)
    points = [13, "inf", 12, 3, 4, 2, 8, 56]
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
    assert isinstance(verdict, sf.Redundant) and len(verdict.trace) == 1
    assert verdict.trace[0].after == sf.configuration(ctx, [2, 56, 3, 12, 12, 3, 8, "inf"])
    assert verdict.reduced == sf.configuration(ctx, [2, 56, 3, 12, 8, "inf"])


def test_a_repeat_after_a_fold_gives_one_verdict_kind_in_any_order():
    # after one fold, in either order, the repeated value lies in two
    # inherited pairs that share one point: a fixed point of both pairs'
    # maps, whose commutator is parabolic, so the set is not good
    ctx = ctx2()
    for points in (SHARED_POINT_AFTER_A_FOLD, sorted(SHARED_POINT_AFTER_A_FOLD[:-1]) + ["inf"]):
        verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
        assert isinstance(verdict, sf.NotGood) and len(verdict.trace) == 1
        assert verdict.failure is sf.PairingFailure.SHARED_FIXED_POINT
        after = verdict.trace[0].after.points
        pairs = {frozenset(after[k : k + 2]) for k in range(0, len(after), 2)}
        assert len(pairs) == len(after) // 2
        assert any(len(a & b) == 1 for a, b in itertools.combinations(pairs, 2))


def _repeat_shapes(rng, pcfg):
    """Copies of a paired set of genus >= 3, listed pair by pair with
    infinity last, each with repeats planted by copying points onto finite
    positions: a shared point, two pairs equal as sets, a pair of one
    value, an odd and an even number of repeated values, a value three
    times, a repeated infinity, and three random plantings."""
    points = pcfg.points()
    last = len(points) - 1  # infinity

    def planted(*copies):
        out = list(points)
        for src, dst in copies:
            out[dst] = points[src]
        return sf.Configuration(pcfg.ctx, tuple(out))

    shapes = [
        planted((0, 2)),  # pairs {a, b} and {a, d}
        planted((0, 3), (1, 2)),  # pair 1 is pair 0, swapped
        planted((0, 1)),  # pair 0 is {a, a}
        planted((0, 1), (2, 3)),  # two such pairs: an even count
        planted((0, 3), (1, 2), (4, 6)),  # equal pairs and a shared point: three values
        planted((0, 3), (1, 2), (4, 5)),  # equal pairs and a pair of one value: three
        planted((0, 2), (0, 4)),  # one value three times
        planted((last, 0)),  # infinity shared by pair 0 and the last pair
        planted((last, 1), (last - 1, 0)),  # pair 0 is the last pair, swapped
    ]
    for _ in range(3):
        sources = rng.sample(range(len(points)), rng.randint(1, 3))
        shapes.append(planted(*zip(sources, rng.sample(range(last), len(sources)))))
    return shapes


def test_the_repeat_path_names_points_by_position_as_values_would(monkeypatch):
    # run_algorithm's repeat path names each point by the first index of
    # its class in RepeatedPointsError.classes; it must give the verdict
    # that hashing the points gives, on every repeat shape, before any fold
    # and after one: the planted set stands in for the first fold's result
    rng = random.Random(17)
    seen = Counter()
    for field in ((2, 2), (3, 7), (3, 3)):
        ctx = sf.field_context(*field)
        for g in (3, 4):
            _, pcfg = sample_paired(rng, ctx, g)
            moves = itertools.product(range(g), range(g + 1), range(1, ctx.p))
            moved = (nielsen_move(pcfg, i, j, n) for i, j, n in moves if i != j)
            start = next(c for c in moved if sf.run_algorithm(ctx, c).trace)
            for shape in _repeat_shapes(rng, pcfg):
                with pytest.raises(sf.RepeatedPointsError) as info:
                    sf.cluster_data(shape)
                assert info.value.classes == repeat_classes_by_value(shape)
                assert sf.repetition_report(shape) == repetition_by_value(shape)
                verdict = sf.run_algorithm(ctx, shape)
                assert verdict == repeat_verdict_by_value(shape, ())
                seen["before", type(verdict), getattr(verdict, "failure", None)] += 1
                with monkeypatch.context() as mp:
                    mp.setattr(folding, "apply_folding", lambda *_, shape=shape: shape)
                    verdict = sf.run_algorithm(ctx, start)
                assert len(verdict.trace) == 1 and verdict.trace[0].after is shape
                assert verdict == repeat_verdict_by_value(shape, verdict.trace)
                seen["after", type(verdict), getattr(verdict, "failure", None)] += 1
    # the family that meets a shared point after one fold, folded for
    # real, in both orders
    ctx = ctx2()
    for points in (SHARED_POINT_AFTER_A_FOLD, sorted(SHARED_POINT_AFTER_A_FOLD[:-1]) + ["inf"]):
        verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
        assert verdict == repeat_verdict_by_value(verdict.trace[-1].after, verdict.trace)
    shared, unpaired = sf.PairingFailure.SHARED_FIXED_POINT, sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS
    kinds = [(sf.NotGood, unpaired), (sf.Redundant, None)]
    assert all(seen[("before", *kind)] >= 10 for kind in kinds)
    assert all(seen[("after", *kind)] >= 10 for kind in kinds + [(sf.NotGood, shared)])


def test_pair_up_rejects_repeats_before_any_pairing_rule():
    ctx = ctx5()
    cyc, points, _ = _cyclotomic_multiset()
    for cfg in (
        sf.configuration(ctx, [-5, -10, 0, 5, 1, "inf", 1, 1]),  # not paired either
        sf.configuration(ctx, [0, 5, 1, "inf", 7, "inf"]),  # a second infinity
        sf.configuration(cyc, points),
    ):
        with pytest.raises(ValueError) as info:
            sf.pair_up(cfg)
        assert not isinstance(info.value, sf.PairingError)
    # a repeated infinity is one repeated value: odd, so the pairing is broken
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, [0, 5, 1, "inf", 7, "inf"]))
    assert verdict == sf.NotGood(sf.PairingFailure.NOT_CLUSTERED_IN_PAIRS, ())

