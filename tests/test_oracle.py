"""Group-word enumeration and the brute-force loxodromy audit."""

from __future__ import annotations

import random
from fractions import Fraction

import schottkyfold as sf
from helpers import (
    EIGHT_POINT_7ADIC,
    EIGHT_POINT_7ADIC_MIN,
    SIX_POINT_5ADIC,
    TEST_FIELDS,
    ctx5,
    ctx7,
    sample_paired,
)
from reference import field_add, verify_fold_conjugation


def test_enumeration_counts():
    assert list(sf.enumerate_gamma_words(2, 2, 1)) == []
    words2 = list(sf.enumerate_gamma_words(2, 2, 2))
    assert len(words2) == 6
    assert all(len(w.syllables) == 2 for w in words2)
    assert len({w.syllables for w in words2}) == 6

    # syllable words alternate indices and carry exponent sum 0 mod p
    words3 = list(sf.enumerate_gamma_words(1, 3, 3))
    for w in words3:
        assert sum(e for _, e in w.syllables) % 3 == 0
        assert all(
            w.syllables[k][0] != w.syllables[k + 1][0]
            for k in range(len(w.syllables) - 1)
        )


def test_enumeration_is_length_lexicographic_and_contains_the_witness():
    words = list(sf.enumerate_gamma_words(2, 2, 4))
    lengths = [len(w.syllables) for w in words]
    assert lengths == sorted(lengths)
    target = sf.GroupWord(((1, 1), (2, 1), (0, 1), (2, 1)))
    assert target in words


def test_audit_finds_the_elliptic_witness_on_the_5adic_showcase():
    pcfg = sf.pair_up(sf.configuration(ctx5(), SIX_POINT_5ADIC))
    result = sf.schottky_audit(pcfg, 4)
    assert result.witness is not None
    word, cls = result.witness
    assert cls.kind is sf.MapKind.ELLIPTIC
    assert len(word.syllables) == 4
    m = sf.word_matrix(pcfg, word)
    tr, det = m.trace(), m.det()
    # characteristic data proportional to (350, 625)
    assert tr * tr * 625 == 350 * 350 * det
    assert result.relations == ()

    # the paper-style product word is a conjugate with the same data
    named = sf.word_matrix(pcfg, sf.GroupWord(((1, 1), (2, 1), (0, 1), (2, 1))))
    assert named.trace() == tr and named.det() == det


def test_audit_is_silent_on_good_configurations():
    pmin = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC_MIN))
    result = sf.schottky_audit(pmin, 6)
    assert result.witness is None
    assert result.relations == ()

    rng = random.Random(77)
    for ell in (3, 5, 7):
        ctx = sf.field_context(2, ell)
        cfg, pcfg = sample_paired(rng, ctx, 1)
        assert sf.schottky_audit(pcfg, 6).witness is None


def test_audit_reports_relations_for_coincident_generators():
    # a degenerate paired object with a duplicated pair has s_i = s_j
    ctx = ctx5()
    a, b = sf.finite(ctx, 0), sf.finite(ctx, 5)
    c = sf.finite(ctx, 1)
    pcfg = sf.PairedConfiguration(ctx, ((a, b), (a, b), (c, sf.INFINITY)))
    result = sf.schottky_audit(pcfg, 2)
    assert result.relations  # s0 * s1 evaluates to the identity
    assert result.relations[0].syllables == ((0, 1), (1, 1))


def test_verify_fold_conjugation_on_showcase_traces():
    for ctx, values in ((ctx5(), SIX_POINT_5ADIC), (ctx7(), EIGHT_POINT_7ADIC)):
        verdict = sf.run_algorithm(ctx, sf.configuration(ctx, values))
        for step in verdict.trace:
            assert verify_fold_conjugation(step)


def test_verify_fold_conjugation_vacuous_on_empty_fold_set():
    ctx = ctx7()
    pcfg = sf.pair_up(sf.configuration(ctx, EIGHT_POINT_7ADIC))
    step = sf.FoldingStep(
        i=0,
        j=3,
        n=1,
        indices=frozenset(),
        map=sf.order_p_fixing(ctx, pcfg.pairs[3][0], pcfg.pairs[3][1], 1),
        before=pcfg,
        after=pcfg.configuration(),
        witness=None,
    )
    assert verify_fold_conjugation(step)


def test_witness_discovery_rate_on_bad_foldings():
    # Configurations whose folding run ends badly are not good; a short
    # non-loxodromic word usually exists but no length bound is proven,
    # so the audit is a falsifier: report the rate, require the showcase.
    rng = random.Random(404)
    cases = [sf.pair_up(sf.configuration(ctx5(), SIX_POINT_5ADIC))]
    for ell in (5, 7):
        ctx = sf.field_context(2, ell)
        attempts = 0
        while len(cases) < 8 and attempts < 80:
            attempts += 1
            # two cherries whose residues average to the lone point's
            # residue: the fold across {c, inf} lands one cherry on the
            # other, the collision mechanism behind bad foldings
            x, y = rng.sample(range(ell), 2)
            c = (x + y) * pow(2, -1, ell) % ell
            s, t, u, v = rng.sample(range(1, 40), 4)
            pts = [x + ell * s, x + ell * t, y + ell * u, y + ell * v, c, "inf"]
            verdict = sf.run_algorithm(ctx, sf.configuration(ctx, pts))
            if not isinstance(verdict, sf.NotGood) or not verdict.trace:
                continue
            cases.append(verdict.trace[0].before)
    found = sum(
        1 for pcfg in cases if sf.schottky_audit(pcfg, 8).witness is not None
    )
    print(f"witness discovery rate on bad foldings: {found}/{len(cases)}")
    assert found >= 1  # the showcase witness is guaranteed


def test_odd_p_pipeline_smoke():
    # the full decision runs over Q(zeta_3) with the 7-adic valuation
    ctx = sf.field_context(3, 7)
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, [0, 343, 1, "inf"]))
    assert isinstance(verdict, sf.Good)
    assert verdict.trace == ()
    assert sf.schottky_audit(verdict.s_min, 4).witness is None


def test_word_count_matches_formula():
    # for p = 2: (g+1) * g^(L-1) reduced words of length L, all in the
    # index-two subgroup when L is even
    for g, L in ((2, 4), (3, 4)):
        words = [
            w for w in sf.enumerate_gamma_words(g, 2, L) if len(w.syllables) == L
        ]
        assert len(words) == (g + 1) * g ** (L - 1)


def _reference_audit(pcfg, max_len):
    """The audit rebuilt from the enumeration: every word multiplied out in
    full and classified from its normalised matrix."""
    relations = []
    checked = 0
    for word in sf.enumerate_gamma_words(pcfg.g, pcfg.ctx.p, max_len):
        checked += 1
        cls = sf.classify(pcfg.ctx, sf.word_matrix(pcfg, word))
        if cls.kind is sf.MapKind.IDENTITY:
            relations.append(word)
        elif cls.kind is not sf.MapKind.LOXODROMIC:
            return sf.AuditResult((word, cls), tuple(relations), checked)
    return sf.AuditResult(None, tuple(relations), checked)


def _gamma_word_count(g, p, max_len):
    """(g+1) g^(k-1) E_k words of length k, where E_k = ((p-1)^k +
    (-1)^k (p-1)) / p exponent tuples in 1..p-1 sum to 0 mod p."""
    return sum(
        (g + 1) * g ** (k - 1) * ((p - 1) ** k + (-1) ** k * (p - 1)) // p
        for k in range(1, max_len + 1)
    )


def _shrunk(pcfg):
    """The paired set moved by z -> z / ell."""
    ctx = pcfg.ctx
    q = ctx.from_fraction(Fraction(1, ctx.ell))
    pairs = tuple(
        tuple(pt if pt.is_infinity else sf.PPoint(ctx.mul(q, pt.value)) for pt in pair)
        for pair in pcfg.pairs
    )
    return sf.PairedConfiguration(ctx, pairs)


def _audit_cases():
    """(paired configuration, depths): the 5-adic showcase (a witness), the
    7-adic S^min, sampled sets in seven fields, three of them also moved so
    that their points have denominators, sets of odd p with a witness, and
    a degenerate set with relations."""
    rng = random.Random(2024)
    cases = [
        (sf.pair_up(sf.configuration(ctx5(), SIX_POINT_5ADIC)), range(0, 8)),
        (sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC_MIN)), (1, 2, 5)),
    ]
    for p, ell, g, depth in (
        (2, 2, 2, 7),
        (2, 5, 2, 7),
        (2, 7, 3, 5),
        (3, 3, 2, 4),
        (3, 7, 2, 4),
        (5, 11, 1, 3),
        (5, 5, 1, 4),
    ):
        _, pcfg = sample_paired(rng, sf.field_context(p, ell), g)
        cases.append((pcfg, range(1, depth + 1)))
    # points with denominators: the showcase and the sampled (3, 7) and
    # (5, 5) sets moved by z -> z / ell
    for pcfg, depths in (cases[0], cases[6], cases[8]):
        cases.append((_shrunk(pcfg), depths))
    for p, ell, points, depths in (
        (3, 7, [279, 181, 198, 184, 3, "inf"], (3, 4)),
        (5, 11, [428, 43, 221, 23, 2, "inf"], (3, 4)),
    ):
        ctx = sf.field_context(p, ell)
        cases.append((sf.pair_up(sf.configuration(ctx, points)), depths))
    # duplicated pairs, rational and cyclotomic: s0 = s1 gives relations,
    # so the audit walks a second time with skipping off
    for ctx, depths in ((ctx5(), (2, 4)), (sf.field_context(3, 7), (2, 3, 4))):
        a, b, c = sf.finite(ctx, 0), sf.finite(ctx, ctx.ell), sf.finite(ctx, 1)
        twin = sf.PairedConfiguration(ctx, ((a, b), (a, b), (c, sf.INFINITY)))
        cases.append((twin, depths))
    return cases


def test_audit_matches_the_word_by_word_reference():
    witnesses = 0
    relation_kinds = set()
    # words of the longest length close from a cached two-generator product:
    # the field kinds with a witness, or a relation, of that length
    closing_witnesses, closing_relations = set(), set()
    for pcfg, depths in _audit_cases():
        p = pcfg.ctx.p
        for depth in depths:
            result = sf.schottky_audit(pcfg, depth)
            assert result == _reference_audit(pcfg, depth), (pcfg.ctx, depth)
            if depth <= 1:
                assert result.words_checked == 0
            if result.witness is None:
                assert result.words_checked == _gamma_word_count(pcfg.g, p, depth)
            witnesses += result.witness is not None
            if result.relations:
                relation_kinds.add(pcfg.ctx.kind)
            last = depth - depth % 2 if p == 2 else depth
            if last < 3:
                continue
            if result.witness and len(result.witness[0].syllables) == last:
                closing_witnesses.add(pcfg.ctx.kind)
            if any(len(word.syllables) == last for word in result.relations):
                closing_relations.add(pcfg.ctx.kind)
    assert witnesses >= 3
    assert relation_kinds == {sf.FieldKind.RATIONAL, sf.FieldKind.CYCLOTOMIC_SPLIT}
    assert closing_witnesses == closing_relations == relation_kinds


def test_closed_form_word_positions_match_the_enumeration():
    # words_checked is the witness's position in enumerate_gamma_words,
    # or the count of all its words, both computed without walking them
    for g in (1, 2, 3):
        for p in (2, 3, 5):
            max_len = 5 if p < 5 else 4
            words = list(sf.enumerate_gamma_words(g, p, max_len))
            for k, word in enumerate(words, 1):
                assert sf.oracle._word_position(g, p, word) == k, (g, p, word)
            for length in range(max_len + 1):
                count = sum(len(w.syllables) <= length for w in words)
                assert sf.oracle._word_count(g, p, length) == count
                assert count == _gamma_word_count(g, p, length)


def _least_rotation(word):
    """Whether a word is cyclically reduced and no rotation of it is
    lexicographically smaller."""
    s = word.syllables
    return s[0][0] != s[-1][0] and all(s <= s[k:] + s[:k] for k in range(len(s)))


def test_audit_classifies_one_word_per_conjugacy_class(monkeypatch):
    # 7-adic S^min at depth 8: of the 9,840 words only the least rotations
    # of cyclically reduced words are classified, about one in ten
    pmin = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC_MIN))
    calls = []
    original = sf.oracle.is_loxodromic

    def counted(v_tr, v_det):
        calls.append(None)
        return original(v_tr, v_det)

    monkeypatch.setattr(sf.oracle, "is_loxodromic", counted)
    result = sf.schottky_audit(pmin, 8)
    assert result.witness is None and result.relations == ()
    assert result.words_checked == _gamma_word_count(3, 2, 8) == 9840
    assert len(calls) <= 0.12 * result.words_checked
    words = sf.enumerate_gamma_words(3, 2, 8)
    assert len(calls) == sum(map(_least_rotation, words)) == 994


def test_audit_composes_each_prefix_once(monkeypatch):
    # 7-adic S^min: g = 3, p = 2, no witness and no relations at depths 7
    # and 10.  Words close at even lengths up to 6 (10), and only the
    # prefixes of least rotations are built, each once, from its parent.
    # The last level, of length 5 (9), multiplies nothing: its words close
    # on one of the 12 two-generator products.  That gives 61 products at
    # depth 7 and 2,163 at depth 10, against 132 and 5,656 when the last
    # level was multiplied out too.  The walk composes no Moebius map.
    pmin = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC_MIN))
    calls = []
    original = sf.valfield._Integers.matmul

    def counted(m, n):
        calls.append(None)
        return original(m, n)

    monkeypatch.setattr(sf.valfield._Integers, "matmul", staticmethod(counted))
    monkeypatch.setattr(sf.oracle, "compose", None)
    for depth, words, bound in ((7, 1092, 66), (10, 88572, 2400)):
        calls.clear()
        result = sf.schottky_audit(pmin, depth)
        assert result.witness is None and result.relations == ()
        assert result.words_checked == _gamma_word_count(3, 2, depth) == words
        assert len(calls) <= bound


def test_audit_multiplies_and_values_only_while_lowering(monkeypatch):
    # the generators are built from the lowered points in the integer ring
    # and the walk runs on integers: FieldContext.mul and valuation are
    # never called
    pmin = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC_MIN))
    calls = []
    for name in ("mul", "valuation"):
        original = getattr(sf.FieldContext, name)

        def counted(*args, original=original):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(sf.FieldContext, name, counted)
    result = sf.schottky_audit(pmin, 7)
    assert result.witness is None and result.words_checked == 1092
    assert calls == []


def _hand_built(ctx):
    """Four pairs: points with denominators, a pair written (inf, x), a
    duplicated pair, and over Q(zeta_p) a point that is not rational."""
    third = sf.finite(ctx, Fraction(1, 3))
    a = sf.finite(ctx, Fraction(2, ctx.ell))
    b = sf.finite(ctx, field_add(ctx, ctx.zeta, ctx.from_fraction(Fraction(5, 4))))
    pairs = ((a, third), (a, third), (sf.INFINITY, sf.finite(ctx, 7)), (b, sf.finite(ctx, ctx.ell)))
    return sf.PairedConfiguration(ctx, pairs)


def test_word_matrix_of_one_syllable_is_the_order_p_map_of_its_pair():
    # the audit's generator table, built from one lowering of all the
    # points, gives each generator power as order_p_fixing builds it from
    # its own pair (infinity passed second)
    for p, ell in TEST_FIELDS:
        pcfg = _hand_built(sf.field_context(p, ell))
        for idx, (a, b) in enumerate(pcfg.pairs):
            if a.is_infinity:
                a, b = b, a
            for n in range(1, p):
                word = sf.GroupWord(((idx, n),))
                assert sf.word_matrix(pcfg, word) == sf.order_p_fixing(pcfg.ctx, a, b, n)


def test_audit_and_word_matrix_lower_the_points_once(monkeypatch):
    calls = []
    original = sf.FieldContext.lower

    def counted(self, values):
        calls.append(None)
        return original(self, values)

    monkeypatch.setattr(sf.FieldContext, "lower", counted)
    for p, ell in TEST_FIELDS:
        pcfg = _hand_built(sf.field_context(p, ell))
        calls.clear()
        result = sf.schottky_audit(pcfg, 3)
        assert result.relations[0].syllables == ((0, 1), (1, p - 1))  # the duplicated pair
        assert len(calls) == 1
        calls.clear()
        sf.word_matrix(pcfg, sf.GroupWord(((0, 1), (1, p - 1), (2, 1), (3, p - 1))))
        assert len(calls) == 1


def test_word_matrix_builds_only_the_factors_its_word_names(monkeypatch):
    # a word naming two generator powers, one of them twice, builds two
    # order-p matrices and values no determinant; the audit alone keeps
    # det and v(det) for every generator power
    built, valued = [], []
    order_p_matrix = sf.oracle.order_p_matrix
    integral_valuation = sf.FieldContext.integral_valuation

    def counted_build(*args):
        built.append(args[-1])
        return order_p_matrix(*args)

    def counted_valuation(ctx, a):
        valued.append(None)
        return integral_valuation(ctx, a)

    monkeypatch.setattr(sf.oracle, "order_p_matrix", counted_build)
    monkeypatch.setattr(sf.FieldContext, "integral_valuation", counted_valuation)
    for p, ell in TEST_FIELDS:
        pcfg = _hand_built(sf.field_context(p, ell))
        valued.clear()
        word = sf.GroupWord(((2, 1), (3, p - 1), (2, 1)))
        expected = sf.compose(sf.compose(
            sf.word_matrix(pcfg, sf.GroupWord(((2, 1),))),
            sf.word_matrix(pcfg, sf.GroupWord(((3, p - 1),))),
        ), sf.word_matrix(pcfg, sf.GroupWord(((2, 1),))))
        built.clear()
        assert sf.word_matrix(pcfg, word) == expected
        assert sorted(built) == sorted([1, p - 1]) and valued == []
        sf.schottky_audit(pcfg, 2)
        assert len(valued) >= 4 * (p - 1)
