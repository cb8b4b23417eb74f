"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured-output section).  Shared corpora are built once per module so
the later criteria (fold invariants, oracle consistency, determinism) can
quantify over every run the suite performed.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager

import pytest

import schottkyfold as sf
from schottkyfold import cli
from schottkyfold.folding import (
    apply_folding,
    compute_I,
    fold_map,
    select_target,
)
from helpers import (
    DYADIC_FOUR,
    DYADIC_SIX_FOLDING,
    EIGHT_POINT_7ADIC,
    EIGHT_POINT_7ADIC_MIN,
    SIX_POINT_5ADIC,
    check_fold_step,
    component_count,
    distinguished,
    kadziela_points,
    multiset,
    pair_list,
    pairs_as_sets,
    pushed_back,
    sample_paired,
    values_multiset,
)
from reference import (delta, disc, mobius_by_fractions, order_p_fixing, pair_disc,
                       point_to_axis, proj_eq, same, separation_radius, skeleton_clusters,
                       skeleton_disc)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def run(ctx, values):
    return sf.run_algorithm(ctx, sf.configuration(ctx, values))


@pytest.fixture(scope="module")
def corpus():
    """Every run the suite performs, with its folds and good verdicts."""
    data = {
        "folds": [],
        "goods": [],  # (ctx, PairedConfiguration) of every Good verdict
        "traces": [],
    }

    def record(ctx, verdict):
        data["traces"].append(verdict.trace)
        data["folds"].extend(verdict.trace)
        if isinstance(verdict, sf.Good):
            data["goods"].append((ctx, verdict.s_min))
        return verdict

    ctx5 = sf.field_context(2, 5)
    ctx7 = sf.field_context(2, 7)
    ctx2 = sf.field_context(2, 2)

    data["showcase_bad"] = record(ctx5, run(ctx5, SIX_POINT_5ADIC))
    data["showcase_good"] = record(ctx7, run(ctx7, EIGHT_POINT_7ADIC))

    # paired random corpus for the hull statistics (hull only, g <= 4)
    rng = random.Random(20260809)
    hull_corpus = []
    for ell in (2, 3, 5, 7):
        ctx = sf.field_context(2, ell)
        for k in range(52):
            g = 1 + (k % 4)
            hull_corpus.append((ctx, *sample_paired(rng, ctx, g)))
    data["hull_corpus"] = hull_corpus

    # four-point corpus: constructive and rejection-sampled halves
    four = []
    for ell in (2, 3, 5, 7):
        ctx = sf.field_context(2, ell)
        for _ in range(15):
            cfg, _ = sample_paired(rng, ctx, 1)
            four.append((ctx, cfg))
    while len(four) < 110:
        ell = rng.choice((3, 5, 7))
        ctx = sf.field_context(2, ell)
        pts = rng.sample(range(-60, 60), 3) + ["inf"]
        cfg = sf.configuration(ctx, pts)
        try:
            sf.pair_up(cfg)
        except (sf.PairingError, ValueError):
            continue
        four.append((ctx, cfg))
    data["four_point"] = [
        (ctx, cfg, record(ctx, sf.run_algorithm(ctx, cfg))) for ctx, cfg in four
    ]

    # descending-chain corpus with disjoint pair discs (residue char != p)
    kad = []
    for ell in (3, 5, 7):
        ctx = sf.field_context(2, ell)
        for k in range(18):
            g = 1 + (k % 3)
            values = kadziela_points(rng, ctx, g)
            kad.append((ctx, values, record(ctx, run(ctx, values))))
    data["kadziela"] = kad

    # fold-rich corpus: twist one branch of a good set by an order-2 map
    # and let the algorithm fold it back (or reject it)
    twisted = []
    for ell in (3, 5, 7):
        ctx = sf.field_context(2, ell)
        for k in range(7):
            cfg, pcfg = sample_paired(rng, ctx, 2 + (k % 2))
            i = rng.randrange(pcfg.g)
            j, target = select_target(pcfg, i)
            after = apply_folding(pcfg, compute_I(pcfg, i, target), fold_map(pcfg, j, 1))
            try:
                v = sf.run_algorithm(ctx, after)
            except sf.InvalidInputError:
                continue
            twisted.append((ctx, after, record(ctx, v)))
    data["twisted"] = twisted

    # residue-characteristic-p smoke runs
    data["smoke_four"] = record(ctx2, run(ctx2, DYADIC_FOUR))
    data["smoke_six"] = record(ctx2, run(ctx2, DYADIC_SIX_FOLDING))
    data["smoke_six_rerun"] = record(
        ctx2, sf.run_algorithm(ctx2, data["smoke_six"].s_min.configuration())
    )
    return data


def test_criterion_1_not_good_showcase(corpus):
    with criterion(1, "5-adic six-point set: NotGood after exactly one fold"):
        verdict = corpus["showcase_bad"]
        assert isinstance(verdict, sf.NotGood)
        assert len(verdict.trace) == 1
        step = verdict.trace[0]
        ctx = step.before.ctx
        assert multiset(step.after) == values_multiset(
            ctx, [-5, -10, 0, 5, 1, "inf"]
        )
        assert pair_list(step.before) == pairs_as_sets(
            ctx, [[7, 12], [0, 5], [1, "inf"]]
        )


def test_criterion_2_good_showcase(corpus):
    with criterion(2, "7-adic eight-point set: Good after two recorded folds"):
        verdict = corpus["showcase_good"]
        assert isinstance(verdict, sf.Good)
        assert len(verdict.trace) == 2
        ctx = verdict.s_min.ctx
        assert multiset(verdict.trace[0].after) == values_multiset(
            ctx, [9, -40, -110, 86, 0, 7, 1, "inf"]
        )
        assert multiset(verdict.s_min.configuration()) == values_multiset(
            ctx, EIGHT_POINT_7ADIC_MIN
        )
        assert [s.j for s in verdict.trace] == [1, 3]
        assert [sorted(s.indices) for s in verdict.trace] == [[0], [0, 1]]


def test_criterion_3_generator_matrices():
    with criterion(3, "order-2 maps reproduce the showcase generator matrices"):
        ctx = sf.field_context(2, 5)
        fin = lambda x: sf.finite(ctx, x)
        cases = [
            ((fin(7), fin(12)), mobius_by_fractions(ctx, 19, -168, 2, -19)),
            ((fin(0), fin(5)), mobius_by_fractions(ctx, 5, 0, 2, -5)),
            # the involution fixing {1, inf} is z -> 2 - z; the d-entry is
            # +1, the unique sign fixing both points with order two
            ((fin(1), sf.INFINITY), mobius_by_fractions(ctx, -1, 2, 0, 1)),
        ]
        for (a, b), expected in cases:
            assert proj_eq(order_p_fixing(ctx, a, b, 1), expected)


def test_criterion_4_non_loxodromic_witness():
    with criterion(4, "depth-4 audit finds the elliptic witness with data (350, 625)"):
        ctx = sf.field_context(2, 5)
        fin = lambda x: sf.finite(ctx, x)
        s0 = order_p_fixing(ctx, fin(7), fin(12), 1)
        s1 = order_p_fixing(ctx, fin(0), fin(5), 1)
        s2 = order_p_fixing(ctx, fin(1), sf.INFINITY, 1)
        product = sf.compose(sf.compose(sf.compose(s1, s2), s0), s2)
        tr, det = product.trace(), product.det()
        assert tr * tr * 625 == 350 * 350 * det
        assert 2 * ctx.valuation(tr).fraction == ctx.valuation(det).fraction  # both roots share v
        assert sf.classify(product).kind is sf.MapKind.ELLIPTIC

        pcfg = sf.pair_up(sf.configuration(ctx, SIX_POINT_5ADIC))
        result = sf.schottky_audit(pcfg, 4)
        assert result.witness is not None
        word, cls = result.witness
        assert cls.kind is sf.MapKind.ELLIPTIC
        wtr, wdet = (
            sf.word_matrix(pcfg, word).trace(),
            sf.word_matrix(pcfg, word).det(),
        )
        assert wtr * wtr * 625 == 350 * 350 * wdet


def test_criterion_5_pair_discs_of_the_7adic_showcase():
    with criterion(5, "7-adic pair discs match the printed centers and radii"):
        ctx = sf.field_context(2, 7)
        pcfg = sf.pair_up(sf.configuration(ctx, EIGHT_POINT_7ADIC))
        expected = [
            disc(ctx, -355, 4),
            disc(ctx, -12, 2),
            disc(ctx, 0, 1),
            disc(ctx, 0, 0),
        ]
        for i, want in enumerate(expected):
            assert same(pair_disc(pcfg, i), want)


def test_criterion_6_hull_statistics(corpus):
    with criterion(6, ">=200 random paired sets satisfy the hull counting laws"):
        seen = 0
        nontrivial = 0
        for ctx, cfg, pcfg in corpus["hull_corpus"]:
            g = pcfg.g
            tree = sf.reduced_convex_hull(pcfg)
            clusters = skeleton_clusters(sf.cluster_data(cfg))
            odd = sum(
                1
                for c in clusters
                if len(c.members) % 2 == 1 and 3 <= len(c.members) <= 2 * g - 1
            )
            assert len(distinguished(tree)) == g + odd + 1
            assert component_count(tree) == odd + 1
            for va in distinguished(tree):
                for vb in distinguished(tree):
                    if va.id < vb.id and va.component == vb.component:
                        d = delta(va.disc, vb.disc)
                        assert d > 2 * separation_radius(ctx)
                        assert d.denominator == 1  # lies in the value group
            seen += 1
            nontrivial += odd > 0
        assert seen >= 200
        assert nontrivial >= 20  # the corpus genuinely exercises odd clusters


def test_criterion_7_four_point_fast_path(corpus):
    with criterion(7, ">=100 paired four-point sets are Good with zero folds"):
        seen = 0
        for ctx, cfg, verdict in corpus["four_point"]:
            assert isinstance(verdict, sf.Good)
            assert verdict.trace == ()
            seen += 1
        assert seen >= 100


def test_criterion_8_descending_chain_corpus(corpus):
    with criterion(8, ">=50 disjoint-disc chain sets are Good with zero folds"):
        seen = 0
        for ctx, values, verdict in corpus["kadziela"]:
            assert isinstance(verdict, sf.Good)
            assert verdict.trace == ()
            seen += 1
        assert seen >= 50


def test_criterion_9_fold_invariants(corpus):
    with criterion(9, "every fold conjugates generators and shrinks distances"):
        folds = corpus["folds"]
        assert len(folds) >= 4
        for step in folds:
            check_fold_step(step)  # conjugation + monotone with a strict drop


def test_criterion_10_oracle_consistency(corpus):
    with criterion(10, "good verdicts audit clean; dyadic smokes are consistent"):
        for ctx, pcfg in corpus["goods"]:
            result = sf.schottky_audit(pcfg, 6)
            assert result.witness is None
            assert result.relations == ()

        # dyadic smoke checks: pushed-back discs sit at distance one from
        # the target axis, and the verdicts are self-consistent
        ctx2 = sf.field_context(2, 2)
        four = sf.pair_up(sf.configuration(ctx2, DYADIC_FOUR))
        dt = skeleton_disc(four, pushed_back(four, 0, 1))
        assert point_to_axis(dt, four.pairs[1], ctx2) == 1
        assert isinstance(corpus["smoke_four"], sf.Good)
        assert corpus["smoke_four"].trace == ()

        six = sf.pair_up(sf.configuration(ctx2, DYADIC_SIX_FOLDING))
        j, _ = select_target(six, 0)
        dt6 = skeleton_disc(six, pushed_back(six, 0, j))
        assert point_to_axis(dt6, six.pairs[j], ctx2) == 1
        assert isinstance(corpus["smoke_six"], sf.Good)
        assert len(corpus["smoke_six"].trace) == 1
        rerun = corpus["smoke_six_rerun"]
        assert isinstance(rerun, sf.Good) and rerun.trace == ()
        assert multiset(rerun.s_min.configuration()) == multiset(
            corpus["smoke_six"].s_min.configuration()
        )


def test_criterion_11_determinism_and_termination(corpus):
    with criterion(11, "identical reports across runs; every trace within cap"):
        for make in (
            lambda: json.dumps(
                {"p": 2, "ell": 5, "points": ["7", "12", "0", "5", "1", "inf"],
                 "options": {"trace": True, "verify_depth": 4}}
            ),
            lambda: json.dumps(
                {"p": 2, "ell": 7,
                 "points": ["1336/3", "-355", "-110", "86", "0", "7", "1", "inf"],
                 "options": {"trace": True, "verify_depth": 4}}
            ),
        ):
            r1, c1 = cli.run(cli.parse_problem(make()))
            r2, c2 = cli.run(cli.parse_problem(make()))
            assert c1 == c2
            assert cli.render_report(r1) == cli.render_report(r2)
        for trace in corpus["traces"]:
            assert len(trace) <= 100
