"""Moebius maps: action, order-p construction, classification."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import schottkyfold as sf
from helpers import TEST_FIELDS, ctx2, ctx5, ctx7
from reference import (
    apply_by_fractions,
    classify_by_fractions,
    compose_by_fractions,
    field_div,
    field_sub,
    identity,
    inverse,
    mobius_by_fractions,
    order_p_fixing,
    order_p_fixing_by_fractions,
    pole_by_fractions,
    proj_eq,
    zeta_power_by_definition,
)


def fin(ctx, x):
    return sf.finite(ctx, x)


def test_apply_examples():
    ctx = ctx5()
    flip = mobius_by_fractions(ctx, -1, 2, 0, 1)  # z -> 2 - z
    assert sf.apply(flip, fin(ctx, 7)) == fin(ctx, -5)
    assert sf.apply(identity(ctx), fin(ctx, 42)) == fin(ctx, 42)
    assert sf.apply(identity(ctx), sf.INFINITY).is_infinity

    # the first fold map of the 7-adic showcase sends 1336/3 to 9
    c7 = ctx7()
    m = order_p_fixing(c7, fin(c7, -110), fin(c7, 86), 1)
    assert sf.apply(m, fin(c7, Fraction(1336, 3))) == fin(c7, 9)
    assert sf.apply(m, fin(c7, -355)) == fin(c7, -40)


def test_points_refuse_floats():
    # a point enters through finite alone, and a float is refused there
    # instead of failing deep inside the field layer
    ctx = ctx5()
    for build in (
        lambda: sf.finite(ctx, 0.5),
        lambda: sf.configuration(ctx, [0.5, 1, 2, "inf"]),
        lambda: sf.configuration(ctx, [0, 1, 2.0, 3]),
    ):
        with pytest.raises(TypeError, match="float"):
            build()
    cfg = sf.configuration(ctx, [Fraction(1, 2), 1, fin(ctx, 2), None, "inf"])
    assert cfg.points == (fin(ctx, Fraction(1, 2)), fin(ctx, 1), fin(ctx, 2),
                          sf.INFINITY, sf.INFINITY)
    # a tuple is no rational value, and a string or None is no coefficient
    for x in ((Fraction(1),), "1"):
        with pytest.raises(TypeError):
            fin(ctx, x)
    # over Q(zeta_p) a value is exactly p - 1 exact coefficients, each
    # checked, and a list is stored as the tuple of Fractions it names
    c3 = sf.field_context(3, 7)
    with pytest.raises(TypeError, match="float"):
        sf.configuration(c3, [(0.5, Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(2), Fraction(0)), "inf"])
    for x in ((1, "0"), [Fraction(1), None], (1, 0.0)):
        with pytest.raises(TypeError):
            fin(c3, x)
    for x in ((Fraction(1),), (Fraction(1), Fraction(0), Fraction(0)), [], [1, 2, 3]):
        with pytest.raises(ValueError, match="2 coefficients"):
            fin(c3, x)
    pt = fin(c3, [1, Fraction(1, 2)])
    assert pt == fin(c3, (Fraction(1), Fraction(1, 2))) and hash(pt) == hash(fin(c3, (1, Fraction(1, 2))))
    assert type(pt.value) is tuple and all(type(q) is Fraction for q in pt.value)
    assert fin(c3, 3) == fin(c3, (3, 0))


def test_apply_is_total():
    ctx = ctx5()
    m = mobius_by_fractions(ctx, 1, 0, 1, -3)  # pole at 3
    assert sf.apply(m, fin(ctx, 3)).is_infinity
    assert sf.apply(m, sf.INFINITY) == fin(ctx, 1)


def test_order_two_generator_matrices():
    ctx = ctx5()
    s0 = order_p_fixing(ctx, fin(ctx, 7), fin(ctx, 12), 1)
    s1 = order_p_fixing(ctx, fin(ctx, 0), fin(ctx, 5), 1)
    s2 = order_p_fixing(ctx, fin(ctx, 1), sf.INFINITY, 1)
    assert proj_eq(s0, mobius_by_fractions(ctx, 19, -168, 2, -19))
    assert proj_eq(s1, mobius_by_fractions(ctx, 5, 0, 2, -5))
    # the involution fixing 1 and infinity is z -> 2 - z
    assert proj_eq(s2, mobius_by_fractions(ctx, -1, 2, 0, 1))


def test_order_p_fixing_fixes_and_has_order_p():
    rng = random.Random(11)
    for ctx in (ctx5(), ctx2(), sf.field_context(3, 7)):
        for _ in range(20):
            a = rng.randint(-40, 40)
            b = rng.randint(-40, 40)
            if a == b:
                continue
            pa, pb = fin(ctx, a), fin(ctx, b)
            if rng.random() < 0.3:
                pb = sf.INFINITY
            for n in range(1, ctx.p):
                m = order_p_fixing(ctx, pa, pb, n)
                assert sf.apply(m, pa) == pa
                assert sf.apply(m, pb) == pb
                power = m
                for _ in range(ctx.p - 1):
                    power = sf.compose(power, m)
                assert proj_eq(power, identity(ctx))
                # n-th power of the base map
                base = order_p_fixing(ctx, pa, pb, 1)
                acc = base
                for _ in range(n - 1):
                    acc = sf.compose(acc, base)
                assert proj_eq(acc, m)


def test_order_p_fixing_orientation_is_uniform():
    # in the coordinate sending (a, b) to (0, infinity) the map multiplies
    # by zeta^n, for finite b and for b = infinity alike; the folding test
    # relies on this orientation
    for p, ell in ((2, 5), (3, 7), (3, 3), (5, 11)):
        ctx = sf.field_context(p, ell)
        a, b = fin(ctx, 4), fin(ctx, -9)
        probe = fin(ctx, 17)
        for n in range(1, p):
            zn = zeta_power_by_definition(ctx, n)
            for bb in (b, sf.INFINITY):
                m = order_p_fixing(ctx, a, bb, n)
                img = sf.apply(m, probe)

                def chart(pt):
                    num = field_sub(ctx, pt.value, a.value)
                    if bb.is_infinity:
                        return num
                    return field_div(ctx, num, field_sub(ctx, pt.value, bb.value))

                assert chart(img) == ctx.mul(zn, chart(probe))


def test_order_p_fixing_errors():
    ctx = ctx5()
    with pytest.raises(sf.RepeatedPointsError, match="two distinct fixed points"):
        order_p_fixing(ctx, fin(ctx, 3), fin(ctx, 3), 1)
    # word_matrix refuses a syllable whose exponent is not in 1..p-1
    with pytest.raises(sf.InvalidInputError, match="not a word"):
        order_p_fixing(ctx, fin(ctx, 1), fin(ctx, 3), 2)  # 2 = p


def test_classify_examples():
    ctx = ctx5()
    assert sf.classify(ctx, mobius_by_fractions(ctx, 5, 0, 0, 1)).kind is sf.MapKind.LOXODROMIC
    assert sf.classify(ctx, mobius_by_fractions(ctx, 5, 0, 0, 1)).translation_length == 1
    assert sf.classify(ctx, mobius_by_fractions(ctx, 1, 1, 0, 1)).kind is sf.MapKind.PARABOLIC
    assert sf.classify(ctx, identity(ctx)).kind is sf.MapKind.IDENTITY
    # the showcase product with characteristic data (350, 625) is elliptic
    s0 = order_p_fixing(ctx, fin(ctx, 7), fin(ctx, 12), 1)
    s1 = order_p_fixing(ctx, fin(ctx, 0), fin(ctx, 5), 1)
    s2 = order_p_fixing(ctx, fin(ctx, 1), sf.INFINITY, 1)
    w = sf.compose(sf.compose(sf.compose(s1, s2), s0), s2)
    assert sf.classify(ctx, w).kind is sf.MapKind.ELLIPTIC
    tr, det = w.trace(), w.det()
    assert tr * tr * 625 == 350 * 350 * det  # proportional to (350, 625)


def test_compose_inverse_identity():
    ctx = ctx7()
    rng = random.Random(5)
    for _ in range(25):
        entries = [rng.randint(-9, 9) for _ in range(4)]
        if entries[0] * entries[3] == entries[1] * entries[2]:
            continue
        m = mobius_by_fractions(ctx, *entries)
        assert proj_eq(sf.compose(m, inverse(m)), identity(ctx))


def test_classify_is_projective_and_conjugation_invariant():
    ctx = ctx5()
    rng = random.Random(17)
    for _ in range(40):
        entries = [Fraction(rng.randint(-20, 20), rng.choice([1, 1, 5])) for _ in range(4)]
        if entries[0] * entries[3] == entries[1] * entries[2]:
            continue
        m = mobius_by_fractions(ctx, *entries)
        scaled = mobius_by_fractions(ctx, *(x * Fraction(15, 4) for x in entries))
        assert sf.classify(ctx, m) == sf.classify(ctx, scaled)
        ge = [rng.randint(-9, 9) for _ in range(4)]
        if ge[0] * ge[3] == ge[1] * ge[2]:
            continue
        gmat = mobius_by_fractions(ctx, *ge)
        conj = sf.compose(sf.compose(gmat, m), inverse(gmat))
        assert sf.classify(ctx, m) == sf.classify(ctx, conj)


def test_projective_equality_is_cross_multiplicative():
    ctx = ctx5()
    m = mobius_by_fractions(ctx, 2, 4, -6, 8)
    assert proj_eq(m, mobius_by_fractions(ctx, 1, 2, -3, 4))
    assert proj_eq(m, mobius_by_fractions(ctx, Fraction(-1, 2), -1, Fraction(3, 2), -2))
    assert not proj_eq(m, mobius_by_fractions(ctx, 1, 2, -3, 5))
    assert not proj_eq(
        mobius_by_fractions(ctx, -1, 2, 0, 1), mobius_by_fractions(ctx, -1, 2, 0, -1)
    )


def test_integer_map_gives_one_record_per_scalar_multiple():
    # the library's canonical scale (integer_map), reached through compose
    # and word_matrix.  Over Q every nonzero integral multiple of an integer
    # matrix, negative or with a content, is one record: the matrix over its
    # content, the first nonzero entry of its first row (a, or b when a is
    # 0) positive.  Over Q(zeta_3) the scale is the least integral multiple
    # of the field matrix, so the matrix written over any common denominator
    # is one record, and an integral multiple keeps its own.  A matrix that
    # is no multiple is another record
    ctx = sf.field_context(2, 5)
    one = identity(ctx)
    for base, canonical in (((3, -2, 5, 7), (3, -2, 5, 7)), ((0, -4, 6, 10), (0, 2, -3, -5))):
        for k in (1, -1, 6, -6, -35):
            scaled = sf.Mobius(ctx, *[k * x for x in base])
            assert sf.compose(scaled, one) == sf.compose(one, scaled) == sf.Mobius(ctx, *canonical)
        other = sf.Mobius(ctx, *base[:3], base[3] + 1)
        assert sf.compose(other, one) != sf.Mobius(ctx, *canonical)
    for p, ell, first, second in (
        (2, 5, Fraction(3), Fraction(-7, 2)),
        (3, 7, (Fraction(1), Fraction(2)), (Fraction(-3, 2), Fraction(1, 7))),
    ):
        ctx = sf.field_context(p, ell)
        a0, b0 = fin(ctx, first), fin(ctx, second)
        # a third point with denominator 6, 12 or 35 scales pair 0's matrix
        # and its denominator by the square of the common denominator
        words = []
        for q in (Fraction(5), Fraction(1, 6), Fraction(-5, 12), Fraction(2, 35)):
            pcfg = sf.PairedConfiguration(ctx, ((a0, b0), (fin(ctx, q), sf.INFINITY)))
            words.append(sf.word_matrix(pcfg, sf.GroupWord(((0, 1),))))
        assert all(word == words[0] for word in words)
        moved = sf.PairedConfiguration(ctx, ((a0, fin(ctx, 1)), (fin(ctx, 5), sf.INFINITY)))
        assert sf.word_matrix(moved, sf.GroupWord(((0, 1),))) != words[0]
        if p > 2:
            ring = ctx.integers
            twice = sf.Mobius(ctx, *[ring.times(x, 2) for x in words[0].entries()])
            assert sf.compose(twice, identity(ctx)) == twice != words[0]


def random_value(rng, ctx):
    """A field element with denominators, not rational when p is odd."""
    coeffs = [
        Fraction(rng.randint(-60, 60), rng.choice([1, 1, 2, 3, ctx.ell, ctx.ell**2]))
        for _ in range(ctx.degree)
    ]
    return coeffs[0] if ctx.degree == 1 else tuple(coeffs)


def test_integer_route_matches_the_fraction_route():
    # word_matrix builds its matrix on integers (order_p_matrix, then
    # integer_map) and apply maps through one quotient; the reference does
    # both with Fraction arithmetic.  Reports print the canonical scale, so
    # the maps must be equal, not only projectively equal.
    rng = random.Random(29)
    poles = 0
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        for _ in range(6):
            a, b = sf.PPoint(random_value(rng, ctx)), sf.PPoint(random_value(rng, ctx))
            if a == b:
                continue
            for bb in (b, sf.INFINITY):
                for n in range(1, p):
                    m = order_p_fixing(ctx, a, bb, n)
                    ref = order_p_fixing_by_fractions(ctx, a, bb, n)
                    assert m == ref and repr(m) == repr(ref)
                    probes = [a, bb, sf.INFINITY, sf.PPoint(random_value(rng, ctx))]
                    if m.c != ctx.integers.zero:
                        pole = pole_by_fractions(m)
                        assert sf.apply(m, pole).is_infinity
                        probes.append(pole)
                        poles += 1
                    for pt in probes:
                        assert sf.apply(m, pt) == apply_by_fractions(m, pt)
    assert poles > 50


def test_mobius_compose_and_proj_eq_match_the_fraction_route():
    # the library's maps against the reference's field products: compose
    # equal in canonical scale, and projectively equal (proj_eq) once an
    # entry is scaled; word_matrix of two syllables projectively equal to
    # the product of the two powers, and not to its first power alone
    rng = random.Random(30)
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        ring = ctx.integers
        maps = []
        while len(maps) < 6:
            entries = [random_value(rng, ctx) for _ in range(4)]
            try:
                maps.append(mobius_by_fractions(ctx, *entries))
            except ValueError:
                continue
        # the identity and adjugates are inputs too
        maps.append(identity(ctx))
        maps += [inverse(m) for m in maps[:3]]
        for m1, m2 in zip(maps, maps[1:]):
            assert sf.compose(m1, m2) == compose_by_fractions(m1, m2)
            # any nonzero integral scalar, rational or not, keeps the
            # projective class of a product
            (u,), _ = ctx.lower([random_value(rng, ctx)])
            if u != ring.zero:
                scaled = sf.Mobius(ctx, *(ring.mul(u, x) for x in m1.entries()))
                assert proj_eq(sf.compose(scaled, m2), compose_by_fractions(m1, m2))
                assert proj_eq(sf.compose(m2, scaled), compose_by_fractions(m2, m1))
        a0, b0, a1 = points = [sf.PPoint(random_value(rng, ctx)) for _ in range(3)]
        assert len(set(points)) == 3
        pcfg = sf.PairedConfiguration(ctx, ((a0, b0), (a1, sf.INFINITY)))
        for n, k in itertools.product(range(1, p), repeat=2):
            word = sf.word_matrix(pcfg, sf.GroupWord(((0, n), (1, k))))
            first = order_p_fixing_by_fractions(ctx, a0, b0, n)
            product = compose_by_fractions(first, order_p_fixing_by_fractions(ctx, a1, sf.INFINITY, k))
            assert proj_eq(word, product) and proj_eq(product, word)
            assert not proj_eq(word, first)


def test_classify_on_integers_matches_the_fraction_route():
    # classify reads the integer trace and det of a map; the reference
    # classifies by field arithmetic and its own valuations.  Generator
    # powers have trace 0 when p = 2.
    rng = random.Random(31)
    kinds = set()
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        maps = [identity(ctx), mobius_by_fractions(ctx, 1, 1, 0, 1), mobius_by_fractions(ctx, ell, 0, 0, 1)]
        while len(maps) < 11:
            try:
                maps.append(mobius_by_fractions(ctx, *(random_value(rng, ctx) for _ in range(4))))
            except ValueError:
                continue
        gens = []
        for b in (sf.INFINITY, sf.PPoint(random_value(rng, ctx)), sf.PPoint(random_value(rng, ctx))):
            a = sf.PPoint(random_value(rng, ctx))
            if a != b:
                gens += [order_p_fixing(ctx, a, b, n) for n in range(1, p)]
        maps += gens + [sf.compose(g, h) for g, h in itertools.product(gens, gens)]
        for m in maps:
            cls = sf.classify(ctx, m)
            assert cls == classify_by_fractions(ctx, m)
            kinds.add(cls.kind)
    assert kinds == set(sf.MapKind)
