"""Valuation arithmetic across the three field flavours."""

from __future__ import annotations

import copy
import itertools
import json
import operator
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest

import schottkyfold as sf
from schottkyfold import valfield
from schottkyfold.valfield import (INF, INF_STEPS, _MR_BOUND, FieldContext, Val,
                                   _CyclotomicIntegers, _is_prime, decimal_to_int,
                                   int_to_decimal)
from helpers import TEST_FIELDS, module_env
from reference import (
    at_least,
    cyclo_inv,
    cyclo_mul,
    cyclo_valuation,
    field_add,
    field_div,
    field_is_zero,
    field_one,
    field_sub,
    field_zero,
    split_root,
    times_one_minus_zeta,
    zeta_power_by_definition,
)


def test_rational_valuation_examples():
    ctx = sf.field_context(2, 5)
    assert ctx.valuation(Fraction(350)) == Val(Fraction(2))
    assert ctx.valuation(Fraction(625)) == Val(Fraction(4))
    assert ctx.valuation(Fraction(0)).is_infinite

    ctx7 = sf.field_context(2, 7)
    # 224 = 2^5 * 7 and 935 = 5 * 11 * 17
    assert ctx7.valuation(Fraction(224, 935)) == Val(Fraction(1))
    assert ctx7.integral_valuation(-224 * 49) == 3
    with pytest.raises(ValueError):
        ctx7.integral_valuation(0)


def _valuation_by_single_divisions(n, ell):
    n, v = abs(n), 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 1000000000039])
def test_int_valuation_matches_the_plain_loop(ell):
    # past 8 single divisions the kernel strips blocks ell^(2^k) and comes
    # back down.  Every valuation tried up to 10^4 (the first 70, each side
    # of every block boundary 2^k, and 10^4 itself), of +-ell^v u for units
    # u (five up to 69, two past it), is v.  The plain loop, quadratic in
    # the size, checks it too where ell^v has at most 2^15 bits (every v
    # for ell <= 7).  Random integers of either sign agree with the loop as
    # well.
    rng = random.Random(ell)
    vs = list(range(70)) + [(1 << k) + d for k in range(6, 14) for d in (-1, 0, 1)] + [10**4]
    for v in vs:
        power = ell**v
        units = [-1, rng.randrange(1, 10**30) * ell + rng.randrange(1, ell)]
        for u in units + ([1, ell + 1, -(ell - 1)] if v < 70 else []):
            n = u * power
            assert valfield.int_valuation(n, ell) == v
            if power.bit_length() <= 1 << 15:
                assert _valuation_by_single_divisions(n, ell) == v
    for _ in range(2000):
        n = rng.randrange(-10**40, 10**40) or 1
        n *= ell ** rng.randrange(12)
        assert valfield.int_valuation(n, ell) == _valuation_by_single_divisions(n, ell)


def test_zeta_powers():
    ctx = sf.field_context(2, 5)
    assert ctx.zeta_power(1) == Fraction(-1)
    assert ctx.zeta_power(2) == Fraction(1)

    ctx3 = sf.field_context(3, 3)
    assert ctx3.zeta_power(3) == field_one(ctx3)
    z = ctx3.zeta
    assert ctx3.valuation(field_sub(ctx3, z, field_one(ctx3))) == Val(Fraction(1, 2))


def test_separation_radius():
    assert sf.field_context(2, 5).rho == 0
    assert sf.field_context(2, 2).rho == 1
    assert sf.field_context(3, 3).rho == Fraction(1, 2)
    assert sf.field_context(3, 7).rho == 0


def test_unsupported_field():
    with pytest.raises(sf.UnsupportedFieldError):
        sf.field_context(3, 5)  # 5 is inert modulo 3
    with pytest.raises(sf.UnsupportedFieldError):
        sf.field_context(5, 13)
    with pytest.raises(sf.UnsupportedFieldError):
        sf.field_context(4, 5)  # p must be prime


def test_field_context_is_one_shared_context_per_field():
    assert sf.field_context(3, 7) is sf.field_context(3, 7)
    assert isinstance(sf.field_context.cache_info().maxsize, int)
    contexts = [sf.field_context(p, ell) for p, ell in TEST_FIELDS]
    assert len(set(contexts)) == len(TEST_FIELDS)


def test_division_by_zero_raises():
    # the reference division refuses a zero divisor in both routes, and the
    # field's one division, quotient, gives None (a pole) for den = 0
    for p, ell in ((2, 5), (3, 7)):
        ctx = sf.field_context(p, ell)
        with pytest.raises(ZeroDivisionError):
            field_div(ctx, field_one(ctx), field_zero(ctx))
        assert ctx.quotient(ctx.integers.one, ctx.integers.zero) is None


def _inverse(ctx, x):
    """1/x through the field's one division: L / A for x = A / L."""
    (a,), den = ctx.lower([x])
    return ctx.quotient(ctx.integers.times(ctx.integers.one, den), a)


def _random_element(rng, ctx):
    if ctx.degree == 1:
        num = rng.randint(-400, 400)
        den = rng.choice([1, 1, 2, 3, 5, 7, 9, 25])
        return ctx.from_fraction(Fraction(num, den))
    coeffs = tuple(
        Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3]))
        for _ in range(ctx.degree)
    )
    return coeffs


@pytest.mark.parametrize("p,ell", [(2, 5), (2, 2), (3, 7), (3, 3), (5, 11)])
def test_valuation_is_multiplicative_and_ultrametric(p, ell):
    ctx = sf.field_context(p, ell)
    rng = random.Random(1000 * p + ell)
    checked = 0
    while checked < 200:
        x, y = _random_element(rng, ctx), _random_element(rng, ctx)
        if field_is_zero(ctx, x) or field_is_zero(ctx, y):
            continue
        checked += 1
        vx, vy = ctx.valuation(x), ctx.valuation(y)
        assert ctx.valuation(ctx.mul(x, y)).fraction == vx.fraction + vy.fraction
        s = field_add(ctx, x, y)
        vs = ctx.valuation(s)
        # x + y = 0 has v = +infinity, above both
        assert at_least(vs, min(vx.fraction, vy.fraction))
        if vx != vy:
            assert vs.fraction == min(vx.fraction, vy.fraction)


@pytest.mark.parametrize("p,ell", [(2, 5), (2, 2), (3, 7), (3, 3)])
def test_zeta_minus_one_has_valuation_rho(p, ell):
    ctx = sf.field_context(p, ell)
    for n in range(1, p):
        zn = ctx.zeta_power(n)
        assert ctx.valuation(field_sub(ctx, zn, field_one(ctx))) == Val(ctx.rho)


def test_split_valuation_agrees_with_rational_on_rationals():
    split = sf.field_context(3, 7)
    plain = sf.field_context(2, 7)
    rng = random.Random(7)
    for _ in range(100):
        q = Fraction(rng.randint(-500, 500), rng.randint(1, 200))
        if q == 0:
            continue
        assert split.valuation(split.from_fraction(q)) == plain.valuation(q)


def test_cyclotomic_inverse_roundtrip():
    for p, ell in [(3, 7), (3, 3), (5, 11)]:
        ctx = sf.field_context(p, ell)
        rng = random.Random(p * ell)
        for _ in range(25):
            x = _random_element(rng, ctx)
            if field_is_zero(ctx, x):
                continue
            assert ctx.mul(x, _inverse(ctx, x)) == field_one(ctx)


# (17, 103) is above the bound of the straight-line kernels: the loops run
CYCLOTOMIC_FIELDS = [(3, 3), (5, 5), (7, 7), (3, 7), (5, 11), (7, 29), (3, 13), (17, 103)]


def _scaled_elements(rng, ctx, count):
    """Random elements with denominators, times ell^k and (1 - zeta)^m
    (multiplied by the reference's shift, ``times_one_minus_zeta``)."""
    out = []
    while len(out) < count:
        x = tuple(
            Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, ctx.ell, 6 * ctx.ell**2]))
            for _ in range(ctx.degree)
        )
        scale = Fraction(ctx.ell) ** rng.randint(-3, 6)
        x = tuple(c * scale for c in x)
        for _ in range(rng.randint(0, 2 * ctx.p)):
            x = times_one_minus_zeta(ctx, x)
        if not field_is_zero(ctx, x):
            out.append(x)
    return out


@pytest.mark.parametrize("p,ell", CYCLOTOMIC_FIELDS)
def test_cyclotomic_kernels_match_division_over_q(p, ell):
    ctx = sf.field_context(p, ell)
    rng = random.Random(31 * p + ell)
    xs = _scaled_elements(rng, ctx, 60)
    pi = field_sub(ctx, field_one(ctx), ctx.zeta)
    for x in xs[:4]:
        assert times_one_minus_zeta(ctx, x) == cyclo_mul(ctx, x, pi)
    if ctx.kind is sf.FieldKind.CYCLOTOMIC_SPLIT:
        # zeta - r for the root r lifted to ell^12 has valuation >= 12, past
        # the first precisions ell^4 and ell^8 of the evaluation
        near = field_sub(ctx, ctx.zeta, ctx.from_fraction(split_root(ctx, 12)))
        assert at_least(ctx.valuation(near), 12)
        xs += [near, cyclo_mul(ctx, near, xs[0]), cyclo_mul(ctx, near, near)]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        assert ctx.valuation(x) == cyclo_valuation(ctx, x)
        # the integer entry point counts steps of the value group (1/e) Z
        den = lcm(*[c.denominator for c in x])
        a = [c.numerator * (den // c.denominator) for c in x]
        steps = ctx.ramification * cyclo_valuation(ctx, tuple(map(Fraction, a))).fraction
        assert ctx.integral_valuation(a) == steps
        assert ctx.mul(x, y) == cyclo_mul(ctx, x, y)
        assert _inverse(ctx, x) == cyclo_inv(ctx, x)
    with pytest.raises(ValueError):
        ctx.integral_valuation([0] * ctx.degree)


@pytest.mark.parametrize("p,ell", [(2, 3), (3, 7), (5, 11), (7, 29), (17, 103)])
def test_fused_kernels_match_their_compositions(p, ell):
    # matmul, trace_mul and cross of the integer ring against mul, add and
    # sub, and the ring's mul against the reference product, on zero,
    # small and negative coefficients and on entries above 2^64
    ctx = sf.field_context(p, ell)
    ring = ctx.integers
    mul, sub = ring.mul, ring.sub
    add = operator.add if p == 2 else lambda x, y: [a + b for a, b in zip(x, y)]
    rng = random.Random(p)

    def coefficient():
        return rng.choice([0, 1, -1, rng.randint(-9, 9), rng.getrandbits(80) - 2**79])

    def element():
        if p == 2:
            return coefficient()
        return [coefficient() for _ in range(p - 1)] if rng.random() < 0.9 else ring.zero

    for _ in range(60):
        m = a, b, c, d = tuple(element() for _ in range(4))
        n = w, x, y, z = tuple(element() for _ in range(4))
        assert ring.matmul(m, n) == (
            add(mul(a, w), mul(b, y)),
            add(mul(a, x), mul(b, z)),
            add(mul(c, w), mul(d, y)),
            add(mul(c, x), mul(d, z)),
        )
        trace = add(add(mul(a, w), mul(b, y)), add(mul(c, x), mul(d, z)))
        assert ring.trace_mul(m, n) == trace
        assert ring.cross(a, w, b, y) == sub(mul(a, w), mul(b, y))
        assert ring.cross(a, w, a, w) == ring.zero
        if p > 2:
            as_field = lambda v: tuple(map(Fraction, v))
            assert as_field(mul(a, w)) == cyclo_mul(ctx, as_field(a), as_field(w))


@pytest.mark.parametrize(
    "p", [p for p in range(3, valfield._STRAIGHT_LINE_BOUND + 1) if _is_prime(p)]
)
def test_straight_line_kernels_match_the_loops_and_the_reference(p):
    # every p that compiles its kernels, on zero, +-1, small negative and
    # above-2^64 coefficients: the compiled kernels against the loops they
    # replace, and the product against the reference route
    ctx = sf.field_context(p, p)
    ring = _CyclotomicIntegers(p)
    loop = {name: getattr(_CyclotomicIntegers, "_" + name) for name in ("mul", "matmul", "trace_mul", "cross")}
    assert all(getattr(ring, name) is valfield._straight_line_kernels(p)[name] for name in loop)
    rng = random.Random(100 + p)

    def element():
        if rng.random() < 0.1:
            return list(rng.choice([ring.zero, ring.one, ring.times(ring.one, -1)]))
        return [rng.choice([0, 1, -1, rng.randint(-9, 9), rng.getrandbits(80) - 2**79]) for _ in range(p - 1)]

    for _ in range(40):
        m = a, b, c, d = tuple(element() for _ in range(4))
        n = tuple(element() for _ in range(4))
        assert ring.mul(a, b) == loop["mul"](ring, a, b)
        assert tuple(map(Fraction, ring.mul(a, b))) == cyclo_mul(
            ctx, tuple(map(Fraction, a)), tuple(map(Fraction, b))
        )
        product = ring.matmul(m, n)
        assert type(product) is tuple and product == loop["matmul"](ring, m, n)
        assert ring.trace_mul(m, n) == loop["trace_mul"](ring, m, n)
        assert ring.cross(a, b, c, d) == loop["cross"](ring, a, b, c, d)
        assert all(type(x) is list for x in (*product, ring.mul(a, b), ring.cross(a, b, c, d)))


def test_a_ring_compiles_its_kernels_at_their_first_lookup(monkeypatch):
    # building a context multiplies nothing and compiles nothing; the first
    # kernel looked up compiles all four for that p, once per process, and a
    # kernel is stored on the ring at its lookup; above the bound the loops
    # are bound without compiling
    compiled = []
    source = valfield._kernel_source
    monkeypatch.setattr(valfield, "_kernel_source", lambda p: compiled.append(p) or source(p))
    valfield._straight_line_kernels.cache_clear()
    kernels = {"mul", "matmul", "trace_mul", "cross"}
    ctx = FieldContext(7, 29)
    ring = ctx.integers
    assert ctx.zeta == ctx.zeta_power(1) and ctx.valuation(ctx.zeta) == Val(Fraction(0))
    assert compiled == [] and not kernels & vars(ring).keys()
    matmul = ring.matmul
    assert compiled == [7] and vars(ring).keys() & kernels == {"matmul"}
    assert ring.matmul is matmul and ring.mul(ring.one, ring.one) == ring.one
    assert FieldContext(7, 7).integers.cross is ring.cross and compiled == [7]
    large = FieldContext(17, 103).integers
    assert large.mul.__func__ is _CyclotomicIntegers._mul and compiled == [7]


def test_a_ring_misses_every_name_but_its_four_kernels():
    # any other missing name raises AttributeError before p is read and is
    # not stored, so the probes of copy and pickle on a bare ring do not
    # recurse, and a copy or an unpickled ring looks its kernels up anew
    ring = _CyclotomicIntegers(5)
    with pytest.raises(AttributeError):
        ring.nope
    assert not hasattr(ring, "nope") and not hasattr(ring, "_nope")
    assert vars(ring).keys() == {"p", "zero", "one"}
    bare = _CyclotomicIntegers.__new__(_CyclotomicIntegers)
    assert not hasattr(bare, "__setstate__") and vars(bare) == {}
    for twin in (copy.deepcopy(ring), pickle.loads(pickle.dumps(ring))):
        assert twin.p == 5 and twin.mul(twin.one, twin.one) == twin.one
        assert twin.mul is valfield._straight_line_kernels(5)["mul"]


def test_a_ring_above_the_bound_binds_its_loops_without_compiling(monkeypatch):
    # each kernel of a ring above _STRAIGHT_LINE_BOUND is the loop of its
    # name bound to the ring, stored at its first lookup, and nothing compiles
    compiled = []
    source = valfield._kernel_source
    monkeypatch.setattr(valfield, "_kernel_source", lambda p: compiled.append(p) or source(p))
    valfield._straight_line_kernels.cache_clear()
    for p in (17, 53):
        ring = FieldContext(p, p).integers
        for name in ("mul", "matmul", "trace_mul", "cross"):
            kernel = getattr(ring, name)
            assert kernel.__func__ is getattr(_CyclotomicIntegers, "_" + name) and kernel.__self__ is ring
            assert vars(ring)[name] is kernel is getattr(ring, name)
        assert ring.mul(ring.one, ring.one) == ring.one and ring.cross(ring.one, ring.one, ring.one, ring.one) == ring.zero
    assert compiled == []


@pytest.mark.parametrize("p,ell", CYCLOTOMIC_FIELDS)
def test_zeta_power_is_the_rotation_of_one(p, ell):
    # the rotation read as Fractions equals the old quotient of it by one
    ctx = sf.field_context(p, ell)
    ring = ctx.integers
    for n in range(2 * p + 1):
        assert ctx.zeta_power(n) == ctx.quotient(ring.rotate(ring.one, n), ring.one)


def test_val_is_a_record_without_arithmetic_or_order():
    # Val is the printed form of a valuation: every arithmetic and ordering
    # operator raises, with Val, int and Fraction operands on either side,
    # instead of falling through to tuple concatenation or ordering
    values = [INF, Val(Fraction(0)), Val(Fraction(1, 2)), Val(Fraction(-3))]
    ops = (operator.add, operator.sub, operator.mul,
           operator.lt, operator.le, operator.gt, operator.ge)
    for x, y in itertools.product(values + [2, Fraction(1, 2)], repeat=2):
        if isinstance(x, Val) or isinstance(y, Val):
            for op in ops:
                with pytest.raises(TypeError):
                    op(x, y)
    for reduce in (sorted, min, max, sum):
        with pytest.raises(TypeError):
            reduce(values)
    assert Val(Fraction(3, 2)).fraction == Fraction(3, 2) and Val(Fraction(2)).fraction == 2
    assert not Val(Fraction(0)).is_infinite and INF.is_infinite and INF == Val(None)
    with pytest.raises(ValueError):
        _ = INF.fraction
    assert Val(Fraction(1)) != INF and Val(Fraction(1)) != Val(Fraction(2))
    assert len({Val(Fraction(1)), Val(Fraction(1)), INF, Val(None)}) == 2
    assert repr(Val(Fraction(-7, 3))) == "Val(-7/3)" and repr(INF) == "Val(inf)"


def test_inf_steps_compares_above_every_int_by_its_own_methods():
    # +infinity among step counts: above every int (negative, zero, above
    # 2^64) and equal only to itself, with either operand first, under all
    # four operators and inside min, max and sorted
    for n in (-(2**70), -1, 0, 1, 2**64 + 1):
        assert INF_STEPS > n and INF_STEPS >= n and n < INF_STEPS and n <= INF_STEPS
        assert not (INF_STEPS < n or INF_STEPS <= n or n > INF_STEPS or n >= INF_STEPS)
        assert INF_STEPS != n and n != INF_STEPS
        assert min(INF_STEPS, n) == n == min(n, INF_STEPS)
        assert max(INF_STEPS, n) is INF_STEPS is max(n, INF_STEPS)
    assert INF_STEPS <= INF_STEPS and INF_STEPS >= INF_STEPS and INF_STEPS == INF_STEPS
    assert not (INF_STEPS < INF_STEPS or INF_STEPS > INF_STEPS)
    assert min(INF_STEPS, INF_STEPS) is INF_STEPS is max(INF_STEPS, INF_STEPS)
    values = [3, INF_STEPS, -(2**65), 0, 2**64 + 1, INF_STEPS]
    assert sorted(values) == [-(2**65), 0, 3, 2**64 + 1, INF_STEPS, INF_STEPS]
    assert sorted(values, reverse=True)[:2] == [INF_STEPS, INF_STEPS]
    assert min(values) == -(2**65) and max(values) is INF_STEPS
    # each comparison is written in the class body, so an int on either side
    # reaches it in one call, not through functools.total_ordering's fallbacks
    cls = type(INF_STEPS)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert vars(cls)[name].__qualname__ == f"{cls.__name__}.{name}"


def test_decimal_conversion_past_the_int_string_limit():
    for k in (10, 4299, 4300, 4301, 9000):
        n = 10**k + 12
        text = "1" + "0" * (k - 2) + "12"
        assert int_to_decimal(n) == text and int_to_decimal(-n) == "-" + text
        assert decimal_to_int(text) == n and decimal_to_int("-" + text) == -n
    assert sf.format_fraction(Fraction(10**5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
    for bad in ("", "-", "12a", "9" * 5000 + "x"):
        with pytest.raises(ValueError):
            decimal_to_int(bad)


def test_quotient_is_division_on_lowered_elements():
    # quotient converts num / den of integral numerators once; it is div on
    # the elements they lower from, and None for den = 0
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        rng = random.Random(p * ell + 1)
        for _ in range(25):
            x, y = _random_element(rng, ctx), _random_element(rng, ctx)
            (num, den), _ = ctx.lower([x, y])
            if field_is_zero(ctx, y):
                assert ctx.quotient(num, den) is None
                continue
            assert ctx.quotient(num, den) == ctx.mul(x, _inverse(ctx, y)) == field_div(ctx, x, y)
        assert ctx.quotient(num, ctx.integers.zero) is None
        for n in range(-1, p + 2):
            assert ctx.zeta_power(n) == zeta_power_by_definition(ctx, n)


def test_lower_puts_every_element_over_the_lcm_of_its_denominators():
    # lower by its definition: L is the lcm of every coefficient's
    # denominator, and each integer numerator over L is its coefficient
    # again; the empty list, L = 1, mixed denominators and, over Q, ints
    def coefficients(ctx, x):
        return [x] if ctx.degree == 1 else list(x)

    def check(ctx, values):
        nums, den = ctx.lower(values)
        coeffs = [coefficients(ctx, x) for x in values]
        assert den == lcm(*[Fraction(c).denominator for cs in coeffs for c in cs])
        assert len(nums) == len(values)
        for a, cs in zip(nums, coeffs):
            a = coefficients(ctx, a)
            assert len(a) == len(cs) == ctx.degree
            for n, c in zip(a, cs):
                assert type(n) is int and Fraction(n, den) == c
        return den

    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        rng = random.Random(7 * p + ell)
        assert ctx.lower([]) == ([], 1)
        assert check(ctx, [field_zero(ctx), field_one(ctx), ctx.zeta, ctx.from_fraction(-(3**80))]) == 1
        assert check(ctx, [ctx.from_fraction(Fraction(5, 6)), ctx.from_fraction(Fraction(-7, 4))]) == 12
        dens = set()
        for _ in range(20):
            dens.add(check(ctx, [_random_element(rng, ctx) for _ in range(rng.randint(1, 7))]))
        assert len(dens) > 2, dens
    ctx = sf.field_context(2, 5)
    assert ctx.lower([3, -4, 0]) == ([3, -4, 0], 1)
    assert ctx.lower([3, Fraction(1, 6), -4, Fraction(-5, 4)]) == ([36, 2, -48, -15], 12)
    assert check(ctx, [3, Fraction(1, 6), -4, Fraction(-5, 4)]) == 12


def test_primality_is_exact_for_large_primes_and_strong_pseudoprimes():
    sieve = [True] * 5000
    sieve[0] = sieve[1] = False
    for k in range(2, 5000):
        if sieve[k]:
            sieve[k * k :: k] = [False] * len(sieve[k * k :: k])
    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if sieve[n]]
    # Carmichael, strong pseudoprimes to base 2, to bases 2..7, and to
    # every base up to 37 (the first 12 primes)
    for n in (561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    for n in (10**15 + 37, 10**18 + 3, 2**61 - 1, 2**31 - 1):
        assert _is_prime(n)
    # above the proven bound of the bases the test is not exact, but base 2
    # still rejects this composite
    assert not _is_prime(43 * (10**24 + 7))
    with pytest.raises(sf.UnsupportedFieldError):
        sf.field_context(2, 3215031751)
    assert sf.field_context(2, 10**18 + 3).ell == 10**18 + 3


def test_field_context_refuses_p_or_ell_at_or_above_the_primality_bound():
    # primality is exact only below _MR_BOUND, so a larger p or ell is
    # refused at once, naming the bound, rather than tested
    for p, ell in ((2, 10**25 + 13), (2, _MR_BOUND), (10**25 + 13, 10**25 + 13)):
        with pytest.raises(sf.UnsupportedFieldError, match=str(_MR_BOUND)):
            sf.field_context(p, ell)
    assert _is_prime(10**24 + 7) and _MR_BOUND > 10**24 + 7
    assert sf.field_context(2, 10**24 + 7).ell == 10**24 + 7


def _split_primes(p: int, count: int, below: int) -> list[int]:
    """The first ``count`` primes ell = 1 (mod p) below ``below``."""
    found = [ell for ell in range(p + 1, below, p) if _is_prime(ell)]
    assert len(found) >= count
    return found[:count]


def test_split_root_table_matches_the_reference_lift():
    # the root is a power of a^((ell-1)/p) mod ell, the least one, lifted to
    # the p-th root of unity above it; the reference scans for the least
    # root of Phi_p mod ell and lifts it one power of ell at a time
    cases = 0
    for p in (3, 5, 7, 11, 13):
        for ell in _split_primes(p, 25, 3000):
            ctx = sf.field_context(p, ell)
            for prec in (1, 4, 8, 16, 32, 64):
                modulus, powers = ctx._power_table(prec)
                root = split_root(ctx, prec)
                assert modulus == ell**prec
                assert powers == tuple(pow(root, i, modulus) for i in range(p - 1))
                cases += 1
    assert cases == 750
    # the doubling lift far past the precisions above
    for p, ell in ((3, 7), (5, 11)):
        ctx = sf.field_context(p, ell)
        assert ctx._power_table(1000)[1][1] == split_root(ctx, 1000)


def test_split_valuation_with_a_large_ell_finishes_in_a_subprocess():
    # a scan for the root over 2..ell-1 would run for hours at ell = 10^12 + 39;
    # the child process is killed after 60 s, so the test fails, not hangs
    ell = 1000000000039
    script = f"""
from schottkyfold.valfield import Val, field_context
ell = {ell}
ctx = field_context(3, ell)
for k in (1, 4, 8, 64):
    modulus, (_, r) = ctx._power_table(k)
    assert modulus == ell**k and (r * r + r + 1) % modulus == 0, k
r0 = r % ell
assert r0 < ell - 1 - r0, "not the smaller of the two roots mod ell"
assert ctx.valuation(ctx.from_fraction(ell**3)) == Val(3)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=module_env(), capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.dumps({"p": 3, "ell": ell, "points": ["0", str(ell), "1", "inf"]})
    proc = subprocess.run(
        [sys.executable, "-m", "schottkyfold", "--stdin"],
        input=doc.encode(), env=module_env(), capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["verdict"]["kind"] == "good"


def test_an_audit_at_p_101_takes_the_loops_in_a_subprocess():
    # p = 101 is above the bound of the straight-line kernels, whose source
    # grows as p^2: the audit runs on the loops, so the run is quick and
    # small; the child reports its own peak RSS and is killed after 60 s.
    # Its ru_maxrss would not do: on Linux a process started by vfork and
    # exec keeps the peak of the memory it was started from, the test
    # process's, so the child reads VmHWM, the peak of its own memory
    doc = {"p": 101, "ell": 101, "points": ["0", "1030301", "1", "1030302", "2", "inf"],
           "options": {"verify_depth": 2}}
    script = """
import contextlib, io, json, resource
from schottkyfold import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["--stdin"])
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "report": json.loads(out.getvalue()), "maxrss_kib": peak}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(doc).encode(), env=module_env(),
        capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    child = json.loads(proc.stdout)
    assert child["code"] == 0
    assert child["report"]["verdict"]["kind"] == "good"
    assert child["report"]["audit"]["words_checked"] == 600
    # VmHWM, like ru_maxrss on Linux, is in KiB
    assert child["maxrss_kib"] < 64 * 1024
