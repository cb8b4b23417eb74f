"""Properties of the verdict under a change of the input, by Hypothesis.

A test draws its set from ``helpers.sample_paired`` through a seed, at
times with one Nielsen move (``helpers.nielsen_move``), so a counterexample
shrinks to a field, a genus, a seed, the move and the coefficients of the
change.  The runs are derandomized and keep no example database: every
run draws the same examples.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import schottkyfold as sf
from helpers import affine_image, nielsen_move, sample_paired
from reference import field_sub, field_zero

# one field of each flavour: rational, split and ramified
FIELDS = ((2, 2), (3, 7), (3, 3))

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

coefficients = st.builds(Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 4, 7, 9, 49)))


def elements(ctx, nonzero=False):
    """Field elements of ``ctx``: a Fraction, or p - 1 of them over Q(zeta_p)."""
    coeffs = st.lists(coefficients, min_size=ctx.degree, max_size=ctx.degree)
    if nonzero:
        coeffs = coeffs.filter(any)
    return coeffs.map(lambda c: c[0] if ctx.degree == 1 else tuple(c))


def summary(verdict):
    return type(verdict), getattr(verdict, "failure", None), len(verdict.trace)


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_an_affine_map_keeps_the_verdict(field, g, seed, data):
    # z -> az + b fixes infinity and conjugates the group, so the verdict's
    # kind, its failure and its fold count stay
    ctx = sf.field_context(*field)
    cfg, pcfg = sample_paired(random.Random(seed), ctx, g)
    if data.draw(st.booleans()):
        # a finite pair moved by a generator power: a set that folds back
        i = data.draw(st.integers(0, g - 1))
        j = data.draw(st.integers(0, g).filter(lambda j: j != i))
        cfg = nielsen_move(pcfg, i, j, data.draw(st.integers(1, ctx.p - 1)))
    a, b = data.draw(elements(ctx, nonzero=True)), data.draw(elements(ctx))
    image = affine_image(cfg, a, b)
    assert summary(sf.run_algorithm(ctx, image)) == summary(sf.run_algorithm(ctx, cfg))


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_a_nielsen_move_keeps_good(field, g, seed, data):
    # a Nielsen move of S^min conjugates one generator by another, so the
    # group, and a Good verdict, stay
    ctx = sf.field_context(*field)
    cfg, _ = sample_paired(random.Random(seed), ctx, g)
    verdict = sf.run_algorithm(ctx, cfg)
    assume(isinstance(verdict, sf.Good))
    i = data.draw(st.integers(0, g - 1))
    j = data.draw(st.integers(0, g).filter(lambda j: j != i))
    moved = nielsen_move(verdict.s_min, i, j, data.draw(st.integers(1, ctx.p - 1)))
    assert isinstance(sf.run_algorithm(ctx, moved), sf.Good)


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
def test_moving_a_finite_point_to_infinity_keeps_the_kind(field, g, seed, data):
    # z -> 1/(z - c), for a finite point c of the set, carries c to infinity
    # and infinity to 0; it conjugates the group, so the verdict's kind
    # stays.  The fold count and the failure may change: the loop never
    # folds the pair that holds infinity, and the map moves infinity to
    # another pair
    ctx = sf.field_context(*field)
    cfg, pcfg = sample_paired(random.Random(seed), ctx, g)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, g - 1))
        j = data.draw(st.integers(0, g).filter(lambda j: j != i))
        cfg = nielsen_move(pcfg, i, j, data.draw(st.integers(1, ctx.p - 1)))
    c = data.draw(st.sampled_from([pt.value for pt in cfg.points if not pt.is_infinity]))
    m = sf.mobius(ctx, 0, 1, 1, field_sub(ctx, field_zero(ctx), c))
    image = sf.Configuration(ctx, tuple(sf.apply(m, pt) for pt in cfg.points))
    assert type(sf.run_algorithm(ctx, image)) is type(sf.run_algorithm(ctx, cfg))
