"""Group-word enumeration and the brute-force loxodromy audit."""

from __future__ import annotations

import gc
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import pytest

import schottkyfold as sf
from schottkyfold import cli
from helpers import (
    EIGHT_POINT_7ADIC,
    EIGHT_POINT_7ADIC_MIN,
    SIX_POINT_5ADIC,
    TEST_FIELDS,
    count_calls,
    ctx5,
    ctx7,
    sample_paired,
)
from reference import (axis_geometry, enumerate_gamma_words, field_add, field_mul, order_p_fixing,
                       order_p_fixing_by_fractions, paired_by_hand, separation_radius,
                       translation_length_by_axes, verify_fold_conjugation,
                       zeta_power_by_definition)


def test_enumeration_counts():
    assert list(enumerate_gamma_words(2, 2, 1)) == []
    words2 = list(enumerate_gamma_words(2, 2, 2))
    assert len(words2) == 6
    assert all(len(w.syllables) == 2 for w in words2)
    assert len({w.syllables for w in words2}) == 6

    # syllable words alternate indices and carry exponent sum 0 mod p
    words3 = list(enumerate_gamma_words(1, 3, 3))
    for w in words3:
        assert sum(e for _, e in w.syllables) % 3 == 0
        assert all(
            w.syllables[k][0] != w.syllables[k + 1][0]
            for k in range(len(w.syllables) - 1)
        )


def test_enumeration_is_length_lexicographic_and_contains_the_witness():
    words = list(enumerate_gamma_words(2, 2, 4))
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


def test_audit_refuses_a_pair_that_repeats_a_point():
    # a record made by hand may pair a value with itself, written two ways
    # or not rational, or infinity with itself: the audit and word_matrix
    # refuse it by the pair's lowered numerators, in every flavour
    word = sf.GroupWord(((0, 1), (1, 1)))
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        a, b = sf.finite(ctx, Fraction(1, 5)), sf.finite(ctx, 3)
        z = sf.finite(ctx, zeta_power_by_definition(ctx, 1))
        for pairs in (
            ((a, sf.finite(ctx, Fraction(2, 10))), (b, sf.INFINITY)),
            ((a, b), (z, sf.finite(ctx, zeta_power_by_definition(ctx, 1))), (sf.finite(ctx, 1), sf.INFINITY)),
            ((a, b), (sf.INFINITY, sf.INFINITY)),
        ):
            pcfg = sf.PairedConfiguration(ctx, pairs)
            for audit in (lambda: sf.schottky_audit(pcfg, 2), lambda: sf.word_matrix(pcfg, word)):
                with pytest.raises(sf.RepeatedPointsError, match="two distinct fixed points"):
                    audit()
        sf.word_matrix(sf.PairedConfiguration(ctx, ((a, b), (z, sf.INFINITY))), word)


def test_audit_refuses_an_invalid_length_bound():
    # the bound is an int >= 0, as the CLI's verify_depth is: a negative or
    # boolean bound checked no word and a float failed inside the walk.
    # None of them keys a plan
    pcfg = sf.pair_up(sf.configuration(ctx5(), SIX_POINT_5ADIC))
    sf.oracle._plan.cache_clear()
    for bound in (-3, -1, True, False, 2.5, 4.0, Fraction(4), "4", None):
        with pytest.raises(sf.InvalidInputError, match="length bound"):
            sf.schottky_audit(pcfg, bound)
    info = sf.oracle._plan.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert sf.schottky_audit(pcfg, 0) == sf.AuditResult(None, (), 0)


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
        map=order_p_fixing(ctx, pcfg.pairs[3][0], pcfg.pairs[3][1], 1),
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
            w for w in enumerate_gamma_words(g, 2, L) if len(w.syllables) == L
        ]
        assert len(words) == (g + 1) * g ** (L - 1)


def _reference_audit(pcfg, max_len):
    """The audit rebuilt from the enumeration: every word multiplied out in
    full and classified from its normalised matrix."""
    relations = []
    checked = 0
    for word in enumerate_gamma_words(pcfg.g, pcfg.ctx.p, max_len):
        checked += 1
        cls = sf.classify(sf.word_matrix(pcfg, word))
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


def _rotated_cherries(ctx):
    """Three pairs over ramified Q(zeta_p): a cherry A = {1, 1 + p^2}, the
    pair {0, inf} of the rotation z -> zeta z, and a cherry B = zeta A +
    p^4 that the rotation almost lands A on.  The gaps all exceed 2 rho, so
    every word of two syllables is loxodromic, and the first witness has
    four."""
    p = ctx.p
    a = [ctx.from_fraction(Fraction(x)) for x in (1, 1 + p**2)]
    b = [field_add(ctx, field_mul(ctx, zeta_power_by_definition(ctx, 1), x), ctx.from_fraction(Fraction(p**4))) for x in a]
    pairs = (tuple(sf.finite(ctx, x) for x in a), tuple(sf.finite(ctx, x) for x in b),
             (sf.finite(ctx, 0), sf.INFINITY))
    return sf.PairedConfiguration(ctx, pairs)


def _audit_cases():
    """(paired configuration, depths): the 5-adic showcase (a witness), the
    7-adic S^min, sampled sets in seven fields, three of them also moved so
    that their points have denominators, sets of odd p with a witness of
    three or four syllables, split and ramified, and a degenerate set with
    relations."""
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
        (5, 11, [-91, -7, 227, 206, -59, "inf"], (4,)),
    ):
        ctx = sf.field_context(p, ell)
        cases.append((sf.pair_up(sf.configuration(ctx, points)), depths))
    for p in (3, 5):
        cases.append((_rotated_cherries(sf.field_context(p, p)), (3, 4)))
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
    assert closing_relations == relation_kinds
    assert closing_witnesses == set(sf.FieldKind)


def _plan_reach(pcfg, depth, necklaces):
    """The longest length whose level the cached plan of the audit's shape
    holds (1 when it holds none)."""
    p = pcfg.ctx.p
    last = depth - depth % 2 if p == 2 else depth
    levels, _ = sf.oracle._plan(pcfg.g + 1, p, last, necklaces)
    return len(levels) + 1


def test_the_plan_cache_changes_no_result():
    # the words the audit classifies and the prefixes it multiplies are
    # planned once per (generators, p, last, necklaces) and kept, so a
    # result must not depend on what earlier calls left in the cache.  The
    # cases hold seeded sets of every flavour and the duplicated pairs that
    # take the relation walk; the 5-adic showcase (a witness of length 4)
    # and a sampled rational set share the shape (3, 2, 6), so one leaves
    # the other's plan partly built, or built past its witness
    cases = _audit_cases()
    runs = [(k, depth) for k, (_, depths) in enumerate(cases) for depth in depths]
    runs.append((0, 12))
    expected = {(k, depth): _reference_audit(cases[k][0], depth) for k, depth in runs}
    assert len(expected[0, 12].witness[0].syllables) == 4
    kinds, walks = set(), 0
    # a cold call builds its plans only as deep as its walk goes: to the
    # witness, the first relation, or the last length
    for k, depth in runs:
        pcfg = cases[k][0]
        sf.oracle._plan.cache_clear()
        result = sf.schottky_audit(pcfg, depth)
        assert result == expected[k, depth], (pcfg.ctx, depth)
        p = pcfg.ctx.p
        last = depth - depth % 2 if p == 2 else depth
        reach = len(result.witness[0].syllables) if result.witness else last
        if result.relations:
            walks += 1
            assert _plan_reach(pcfg, depth, True) == len(result.relations[0].syllables)
            assert _plan_reach(pcfg, depth, False) == max(1, reach)
        else:
            assert _plan_reach(pcfg, depth, True) == max(1, reach)
        assert sf.oracle._plan.cache_info().currsize == 1 + bool(result.relations)
        kinds.add(pcfg.ctx.kind)
    assert kinds == set(sf.FieldKind) and walks > 0
    # warm, in the order of the cases, reversed (depth 4 after depth 7 of
    # one shape, and 7 after 4) and shuffled, each twice over one cache
    shuffled = runs[:]
    random.Random(48).shuffle(shuffled)
    for order in (runs, runs[::-1], shuffled):
        sf.oracle._plan.cache_clear()
        for k, depth in order + order:
            assert sf.schottky_audit(cases[k][0], depth) == expected[k, depth], (k, depth)
            assert sf.oracle._plan.cache_info().currsize <= sf.oracle._PLAN_CACHE_SIZE
    assert sf.oracle._plan.cache_info().maxsize == sf.oracle._PLAN_CACHE_SIZE


def test_a_cached_plan_is_whole_levels_and_no_schedule():
    # the cache keeps a plan as data: a list of the tuple of its levels,
    # each four lists of ints or None, and the codes of its first
    # syllables, and nothing else.  The showcase's cold call stops at its
    # length-4 witness, before the last level, and its schedule, with the
    # prefix states it holds, ends with the call
    pcfg = sf.pair_up(sf.configuration(ctx5(), SIX_POINT_5ADIC))
    sf.oracle._plan.cache_clear()
    result = sf.schottky_audit(pcfg, 12)
    assert len(result.witness[0].syllables) == 4
    plan = sf.oracle._plan(pcfg.g + 1, 2, 12, True)
    assert type(plan) is list and len(plan) == 2
    levels, first = plan
    assert type(levels) is tuple and len(levels) == 3
    assert first == [1, 3, 5]
    for level in levels:
        assert type(level) is tuple and len(level) == 4
    kinds, stack = set(), [plan]
    while stack:
        obj = stack.pop()
        kinds.add(type(obj))
        stack += gc.get_referents(obj)
    assert kinds <= {list, tuple, int, type(None)}, kinds


def test_threads_that_extend_one_plan_agree():
    # threads that extend one plan at once, more of them than cores, each
    # read every level of it whole: a level read while another thread
    # builds it would change a result
    pmin = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC_MIN))
    depths = (10, 8, 10, 6)
    expected = [sf.schottky_audit(pmin, depth) for depth in depths]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            sf.oracle._plan.cache_clear()
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(lambda depth: sf.schottky_audit(pmin, depth), depths, timeout=60))
            assert results == expected
    finally:
        sys.setswitchinterval(interval)


def test_closed_form_word_positions_match_the_enumeration():
    # words_checked is the witness's position in enumerate_gamma_words,
    # or the count of all its words, both computed without walking them
    for g in (1, 2, 3):
        for p in (2, 3, 5):
            max_len = 5 if p < 5 else 4
            words = list(enumerate_gamma_words(g, p, max_len))
            for k, word in enumerate(words, 1):
                assert sf.oracle._word_position(g, p, word) == k, (g, p, word)
            for length in range(max_len + 1):
                count = sum(len(w.syllables) <= length for w in words)
                assert sf.oracle._word_count(g, p, length) == count
                assert count == _gamma_word_count(g, p, length)


def _classified(word, p):
    """Whether the audit classifies a word of the subgroup, from the
    definitions: the word is cyclically reduced and the least of its
    rotations, no rotation of its inverse is below it on its first two
    syllables, and it is not a power of a shorter word of the subgroup
    through its primitive root u (the shortest u with word = u^k): u^k is
    kept when u's exponent sum is not 0 mod p."""
    s = word.syllables
    n = len(s)
    if s[0][0] == s[-1][0] or any(s[k:] + s[:k] < s for k in range(n)):
        return False
    # the rotation of the inverse that starts at inv(s[k]) reads inv(s[k]),
    # inv(s[k - 1]), ...
    inv = [(i, p - e) for i, e in s]
    if any((inv[k], inv[k - 1]) < s[:2] for k in range(n)):
        return False
    q = next(q for q in range(1, n + 1) if n % q == 0 and s == s[:q] * (n // q))
    return q == n or sum(e for _, e in s[:q]) % p != 0


def _good_sets():
    """(paired configuration, depth): the 7-adic S^min at depth 8 and the
    S^min of sampled sets over Q(zeta_3) and Q(zeta_5), split, with no
    witness and no relation."""
    rng = random.Random(33)
    cases = [(sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC_MIN)), 8)]
    for p, ell, depth in ((3, 7, 6), (5, 11, 4)):
        ctx = sf.field_context(p, ell)
        cfg, _ = sample_paired(rng, ctx, 2)
        cases.append((sf.run_algorithm(ctx, cfg).s_min, depth))
    return cases


def test_audit_classifies_one_word_per_conjugacy_class(monkeypatch):
    # 7-adic S^min at depth 8: of the 9,840 words only the least rotations
    # of cyclically reduced words that no rotation of their inverse
    # precedes on two syllables, and that are not powers of shorter words
    # of the subgroup, are classified: 738 (994 least rotations)
    calls = count_calls(monkeypatch, sf.oracle, "is_loxodromic")
    readings = []
    for pcfg, depth in _good_sets():
        g, p = pcfg.g, pcfg.ctx.p
        calls.clear()
        result = sf.schottky_audit(pcfg, depth)
        assert result.witness is None and result.relations == ()
        assert result.words_checked == _gamma_word_count(g, p, depth)
        words = enumerate_gamma_words(g, p, depth)
        assert len(calls) == sum(_classified(w, p) for w in words)
        readings.append((p, len(calls), result.words_checked))
    print(f"\nclassified of all words (p, classified, words): {readings}")
    assert readings[0] == (2, 738, 9840)
    assert readings[0][1] <= 0.12 * readings[0][2]


def _rotations(s):
    return [s[k:] + s[:k] for k in range(len(s))]


def test_every_skipped_word_has_an_earlier_equivalent():
    # a word the audit does not classify is conjugate, or inverse to a
    # conjugate, of an earlier word of the same length or a shorter one,
    # or a power of a shorter word of the subgroup: so its class is that
    # of an earlier word, or loxodromic when that word is
    skipped = {"shorter": 0, "rotation": 0, "inverse": 0, "power": 0}
    for g in (1, 2, 3):
        for p, max_len in ((2, 8), (3, 6), (5, 4)):
            for word in enumerate_gamma_words(g, p, max_len):
                if _classified(word, p):
                    continue
                s = word.syllables
                n = len(s)
                inverse = tuple((i, p - e) for i, e in reversed(s))
                if s[0][0] == s[-1][0]:
                    skipped["shorter"] += 1
                elif min(_rotations(s)) < s:
                    skipped["rotation"] += 1
                elif min(_rotations(inverse)) < s:
                    skipped["inverse"] += 1
                else:
                    assert any(
                        n % q == 0 and s == s[:q] * (n // q)
                        and sum(e for _, e in s[:q]) % p == 0
                        for q in range(1, n)
                    ), (g, p, word)
                    skipped["power"] += 1
    print(f"\nskipped words by reason: {skipped}")
    assert min(skipped.values()) > 0


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


# the content divisions inside schottky_audit on the 7-adic S^min, by depth;
# dividing the last multiplied level's products too took 48 and 1,832
CONTENT_LIMITS = {7: 20, 10: 724}


def test_audit_divides_only_the_prefixes_it_extends(monkeypatch):
    # 7-adic S^min: every prefix that the walk extends is divided by its
    # content, so entries stay bounded, while the products of the last
    # multiplied level, read only by the scale-invariant trace, v(det),
    # tr^2 = 4 det and scalar tests, are not.  The verdicts at depths 10 and
    # 12 are those of every word: no witness, no relation, every word
    # counted.  A content call outside the audit counts: the counter is live
    pmin = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC_MIN))
    contents = count_calls(monkeypatch, sf.valfield._Integers, "content")
    readings = {}
    for depth in (7, 10, 12):
        mark = len(contents)
        result = sf.schottky_audit(pmin, depth)
        readings[depth] = len(contents) - mark
        assert result.witness is None and result.relations == ()
        assert result.words_checked == _gamma_word_count(3, 2, depth)
    print("\n" + ", ".join(f"{readings[depth]} content divisions at depth {depth}" for depth in readings)
          + f" (limits {CONTENT_LIMITS})")
    assert (_gamma_word_count(3, 2, 10), _gamma_word_count(3, 2, 12)) == (88572, 797160)
    for depth, limit in CONTENT_LIMITS.items():
        assert 0 < readings[depth] <= limit, depth
    mark = len(contents)
    pmin.ctx.integers.content((7, 14))
    assert len(contents) == mark + 1


def test_audit_multiplies_and_values_only_while_lowering(monkeypatch):
    # the generators are built from the lowered points in the integer ring
    # and the walk runs on integers: FieldContext.mul and valuation are
    # never called
    pmin = sf.pair_up(sf.configuration(ctx7(), EIGHT_POINT_7ADIC_MIN))
    calls = [count_calls(monkeypatch, sf.FieldContext, name) for name in ("mul", "valuation")]
    result = sf.schottky_audit(pmin, 7)
    assert result.witness is None and result.words_checked == 1092
    assert calls == [[], []]


@pytest.mark.parametrize("doc, depth, words", [
    ('{"p": 3, "ell": 7, "points": ["0", "343", "1", "344", "2", "345", "3", "inf"]}', 6, 25368),
    ('{"p": 5, "ell": 11, "points": ["0", "121", "1", "122", "2", "inf"]}', 5, 11208),
    ('{"p": 3, "ell": 3, "points": ["0", "27", "1", "28", "2", "inf"]}', 6, 2772),
    ('{"p": 7, "ell": 29, "points": ["0", "841", "1", "842", "2", "inf"]}', 5, 58140),
    ('{"p": 17, "ell": 103, "points": ["0", "10609", "1", "10610", "2", "inf"]}', 3, 2976),
], ids=["p3_l7", "p5_l11", "p3_l3", "p7_l29", "p17_l103"])
def test_cyclotomic_audit_of_a_good_set_counts_every_word(doc, depth, words):
    # Good sets over Q(zeta_p), split and ramified, audited through the
    # cyclotomic kernels: p = 3, 5 and 7 on the straight-line kernels,
    # p = 17 (above their bound, 13) on the loops.  Each exits 0 with no
    # witness and no relation, and counts every word up to its depth
    report, code = cli.run(cli.parse_problem(doc)._replace(verify_depth=depth))
    assert code == cli.EXIT_GOOD
    audit = report["audit"]
    assert (audit["words_checked"], audit["witness"], audit["relations"]) == (words, None, [])


def _hand_built(ctx):
    """Four pairs: points with denominators, a pair written (inf, x), a
    duplicated pair, and over Q(zeta_p) a point that is not rational."""
    third = sf.finite(ctx, Fraction(1, 3))
    a = sf.finite(ctx, Fraction(2, ctx.ell))
    b = sf.finite(ctx, field_add(ctx, zeta_power_by_definition(ctx, 1), ctx.from_fraction(Fraction(5, 4))))
    pairs = ((a, third), (a, third), (sf.INFINITY, sf.finite(ctx, 7)), (b, sf.finite(ctx, ctx.ell)))
    return sf.PairedConfiguration(ctx, pairs)


def test_word_matrix_of_one_syllable_is_the_order_p_map_of_its_pair():
    # the audit's generator table, built from one lowering of all the
    # points, gives each generator power as a record of its pair alone
    # does, and as the Fraction route does; a pair written (inf, x) is
    # read as (x, inf)
    for p, ell in TEST_FIELDS:
        pcfg = _hand_built(sf.field_context(p, ell))
        for idx, (a, b) in enumerate(pcfg.pairs):
            if a.is_infinity:
                a, b = b, a
            for n in range(1, p):
                word = sf.GroupWord(((idx, n),))
                ref = order_p_fixing_by_fractions(pcfg.ctx, a, b, n)
                assert sf.word_matrix(pcfg, word) == order_p_fixing(pcfg.ctx, a, b, n) == ref


def test_audit_and_word_matrix_lower_the_points_once(monkeypatch):
    calls = count_calls(monkeypatch, sf.FieldContext, "lower")
    for p, ell in TEST_FIELDS:
        pcfg = _hand_built(sf.field_context(p, ell))
        calls.clear()
        result = sf.schottky_audit(pcfg, 3)
        assert result.relations[0].syllables == ((0, 1), (1, p - 1))  # the duplicated pair
        assert len(calls) == 1
        calls.clear()
        sf.word_matrix(pcfg, sf.GroupWord(((0, 1), (1, p - 1), (2, 1), (3, p - 1))))
        assert len(calls) == 1


def test_word_matrix_refuses_a_syllable_it_cannot_read():
    # at p = 2 on the showcase's three pairs a syllable is (0..2, 1): an
    # exponent 3 read as 1, a negative index wrapped to the last pair, an
    # index past it raised IndexError, and an exponent 0 or the empty word
    # a bare ValueError
    pcfg = sf.pair_up(sf.configuration(ctx5(), SIX_POINT_5ADIC))
    for syllables in (((0, 3), (1, 1)), ((-1, 1),), ((5, 1),), ((3, 1),), ((0, 0),), ((1, 1), (0, 2)), ()):
        with pytest.raises(sf.InvalidInputError, match="not a word"):
            sf.word_matrix(pcfg, sf.GroupWord(syllables))
    # the last index and, at p = 3, the exponent p - 1 are read
    assert isinstance(sf.word_matrix(pcfg, sf.GroupWord(((2, 1), (0, 1)))), sf.Mobius)
    pcfg3 = sf.pair_up(sf.configuration(sf.field_context(3, 7), [0, 1, 7, 8, 49, "inf"]))
    with pytest.raises(sf.InvalidInputError, match="not a word"):
        sf.word_matrix(pcfg3, sf.GroupWord(((0, 3),)))
    assert isinstance(sf.word_matrix(pcfg3, sf.GroupWord(((0, 2), (2, 1)))), sf.Mobius)


def test_audit_of_a_pairing_with_no_pair_checks_no_word():
    # with no pair there is no generator and no word, as with one pair;
    # _word_count divided by zero at g = -1
    for ctx in (ctx5(), sf.field_context(3, 7)):
        for pcfg in (sf.pair_up(sf.configuration(ctx, [])), sf.PairedConfiguration(ctx, ())):
            assert pcfg.g == -1
            for depth in (0, 1, 4):
                assert sf.schottky_audit(pcfg, depth) == sf.AuditResult(None, (), 0)
    one = sf.pair_up(sf.configuration(ctx5(), [0, "inf"]))
    assert sf.schottky_audit(one, 4) == sf.AuditResult(None, (), 0)


def test_word_matrix_builds_only_the_factors_its_word_names(monkeypatch):
    # a word naming two generator powers, one of them twice, builds two
    # order-p matrices and values no determinant; the audit alone keeps
    # det and v(det) for every generator power
    built = count_calls(monkeypatch, sf.oracle, "order_p_matrix")
    valued = count_calls(monkeypatch, sf.FieldContext, "integral_valuation")
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
        assert sorted(args[-1] for args in built) == sorted([1, p - 1]) and valued == []
        sf.schottky_audit(pcfg, 2)
        assert len(valued) >= 4 * (p - 1)


def test_two_pair_law():
    # for two pairs at axis distance D (pair_gaps, in steps of 1/e), the
    # word s_0^n s_1^(p - n) is loxodromic, of translation length
    # 2 (D - 2 rho), exactly when D > 2 rho, wherever the pairs lie
    rng = random.Random(3)
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        seen = {True: 0, False: 0}
        for _ in range(300):
            values = ()
            while len(set(values)) < 4:
                a, c = rng.sample(range(-ell**3, ell**3), 2)
                b, d = (x + rng.randrange(1, ell**3) * ell ** rng.randint(0, 4) for x in (a, c))
                values = (a, b, c, d)
            points = [sf.finite(ctx, x) for x in values]
            if rng.random() < 0.3:
                # a pair holds infinity second
                points[rng.choice((1, 3))] = sf.INFINITY
            pair_0, pair_1 = (points[0], points[1]), (points[2], points[3])
            pcfg = paired_by_hand(ctx, (pair_0, pair_1))
            gap = Fraction(pcfg.skeleton.pair_gaps[0], ctx.ramification)
            n = rng.randrange(1, p)
            word = sf.compose(order_p_fixing(ctx, *pair_0, n),
                              order_p_fixing(ctx, *pair_1, p - n))
            cls = sf.classify(word)
            loxodromic = gap > 2 * separation_radius(ctx)
            assert (cls.kind is sf.MapKind.LOXODROMIC) == loxodromic, (ctx, pair_0, pair_1, n)
            if loxodromic:
                assert cls.translation_length == 2 * (gap - 2 * separation_radius(ctx)), (ctx, pair_0, pair_1, n)
            seen[loxodromic] += 1
        print(f"\n{(p, ell)}: {seen[True]} loxodromic, {seen[False]} not")
        assert min(seen.values()) > 0


def test_systole_law():
    # on a Good S^min, the least translation length over the loxodromic
    # words whose first and last generator differ is 2 (D - 2 rho), D the
    # least axis gap (pair_gaps, in steps of 1/e): the two-pair law's word
    # on the nearest two pairs, and no longer word is shorter
    for p, ell in (*TEST_FIELDS, (2, 3)):
        ctx = sf.field_context(p, ell)
        rng = random.Random(f"systole/{p}/{ell}")
        depth = 5 if p == 2 else 3
        checked = tries = 0
        while checked < 14:
            cfg, _ = sample_paired(rng, ctx, 1 + tries % 3)
            tries += 1
            verdict = sf.run_algorithm(ctx, cfg)
            if not isinstance(verdict, sf.Good):
                continue
            smin = verdict.s_min
            lengths = []
            for word in enumerate_gamma_words(smin.g, p, depth):
                if word.syllables[0][0] != word.syllables[-1][0]:
                    cls = sf.classify(sf.word_matrix(smin, word))
                    if cls.kind is sf.MapKind.LOXODROMIC:
                        lengths.append(cls.translation_length)
            gap = Fraction(min(smin.skeleton.pair_gaps), ctx.ramification)
            assert min(lengths) == 2 * (gap - 2 * separation_radius(ctx)), (ctx, smin.pairs)
            checked += 1


def test_translation_length_by_axes():
    # on a Good S^min, the translation length of every Gamma-word whose k >= 2
    # syllables have no two cyclic neighbours equal is item 3's sum over the
    # syllables, read off the pair axes by discs, and at least k (D - 2 rho),
    # D the least axis gap; the discs' gaps are the skeleton's pair_gaps
    syllables = {"apart": 0, "together": 0}
    for p, ell in (*TEST_FIELDS, (2, 3)):
        ctx = sf.field_context(p, ell)
        rng = random.Random(f"axes/{p}/{ell}")
        depth = 5 if p == 2 else 3
        words = 0
        for g in (1, 2, 3, 4):
            verdict = None
            while not isinstance(verdict, sf.Good):
                cfg, _ = sample_paired(rng, ctx, g)
                verdict = sf.run_algorithm(ctx, cfg)
            smin = verdict.s_min
            gap, run = axis_geometry(ctx, smin.pairs)
            pair_gaps = [Fraction(d, ctx.ramification) for d in smin.skeleton.pair_gaps]
            assert [gap[kl] for kl in combinations(range(g + 1), 2)] == pair_gaps
            least = min(pair_gaps) - 2 * separation_radius(ctx)
            for word in enumerate_gamma_words(g, p, depth):
                index = [i for i, _ in word.syllables]
                k = len(index)
                if k < 2 or any(index[m] == index[(m + 1) % k] for m in range(k)):
                    continue
                length = sf.classify(sf.word_matrix(smin, word)).translation_length
                assert translation_length_by_axes(smin, word) == length, (ctx, smin.pairs, word)
                assert length >= k * least, (ctx, smin.pairs, word)
                for m in range(k):
                    apart = run[index[m - 1], index[m], index[(m + 1) % k]] > 0
                    syllables["apart" if apart else "together"] += 1
                words += 1
        assert words > 0
    assert min(syllables.values()) > 0, syllables
