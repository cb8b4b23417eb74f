"""Valuation arithmetic across the three field flavours."""

from __future__ import annotations

import itertools
import json
import operator
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest

import schottkyfold as sf
from schottkyfold.valfield import (INF, _MR_BOUND, Val, _is_prime, decimal_to_int,
                                   int_to_decimal)
from helpers import TEST_FIELDS, module_env
from reference import (
    at_least,
    cyclo_inv,
    cyclo_mul,
    cyclo_valuation,
    field_div,
    split_root,
    zeta_power_by_definition,
)


def test_rational_valuation_examples():
    ctx = sf.field_context(2, 5)
    assert ctx.valuation(Fraction(350)) == Val.of(2)
    assert ctx.valuation(Fraction(625)) == Val.of(4)
    assert ctx.valuation(Fraction(0)).is_infinite

    ctx7 = sf.field_context(2, 7)
    # 224 = 2^5 * 7 and 935 = 5 * 11 * 17
    assert ctx7.valuation(Fraction(224, 935)) == Val.of(1)
    assert ctx7.integral_valuation(-224 * 49) == 3
    with pytest.raises(ValueError):
        ctx7.integral_valuation(0)


def test_zeta_powers():
    ctx = sf.field_context(2, 5)
    assert ctx.zeta_power(1) == Fraction(-1)
    assert ctx.zeta_power(2) == Fraction(1)

    ctx3 = sf.field_context(3, 3)
    assert ctx3.zeta_power(3) == ctx3.one()
    z = ctx3.zeta
    assert ctx3.valuation(ctx3.sub(z, ctx3.one())) == Val.of(Fraction(1, 2))


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
    ctx = sf.field_context(2, 5)
    with pytest.raises(sf.FieldDivisionError):
        ctx.inv(Fraction(0))
    ctx3 = sf.field_context(3, 7)
    with pytest.raises(sf.FieldDivisionError):
        ctx3.inv(ctx3.zero())


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
        if ctx.is_zero(x) or ctx.is_zero(y):
            continue
        checked += 1
        vx, vy = ctx.valuation(x), ctx.valuation(y)
        assert ctx.valuation(ctx.mul(x, y)).fraction == vx.fraction + vy.fraction
        s = ctx.add(x, y)
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
        assert ctx.valuation(ctx.sub(zn, ctx.one())) == Val.of(ctx.rho)


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
            if ctx.is_zero(x):
                continue
            assert ctx.mul(x, ctx.inv(x)) == ctx.one()


CYCLOTOMIC_FIELDS = [(3, 3), (5, 5), (7, 7), (3, 7), (5, 11), (7, 29), (3, 13)]


def _scaled_elements(rng, ctx, count):
    """Random elements with denominators, times ell^k and (1 - zeta)^m
    (multiplied by the reference route)."""
    pi = ctx.sub(ctx.one(), ctx.zeta)
    out = []
    while len(out) < count:
        x = tuple(
            Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, ctx.ell, 6 * ctx.ell**2]))
            for _ in range(ctx.degree)
        )
        scale = Fraction(ctx.ell) ** rng.randint(-3, 6)
        x = tuple(c * scale for c in x)
        for _ in range(rng.randint(0, 2 * ctx.p)):
            x = cyclo_mul(ctx, x, pi)
        if not ctx.is_zero(x):
            out.append(x)
    return out


@pytest.mark.parametrize("p,ell", CYCLOTOMIC_FIELDS)
def test_cyclotomic_kernels_match_division_over_q(p, ell):
    ctx = sf.field_context(p, ell)
    rng = random.Random(31 * p + ell)
    xs = _scaled_elements(rng, ctx, 60)
    if ctx.kind is sf.FieldKind.CYCLOTOMIC_SPLIT:
        # zeta - r for the root r lifted to ell^12 has valuation >= 12, past
        # the first precisions ell^4 and ell^8 of the evaluation
        near = ctx.sub(ctx.zeta, ctx.from_fraction(split_root(ctx, 12)))
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
        assert ctx.inv(x) == cyclo_inv(ctx, x)
    with pytest.raises(ValueError):
        ctx.integral_valuation([0] * ctx.degree)


@pytest.mark.parametrize("p,ell", [(2, 3), (3, 7), (5, 11), (7, 29)])
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


def test_val_is_a_record_without_arithmetic_or_order():
    # Val is the printed form of a valuation: every arithmetic and ordering
    # operator raises, with Val, int and Fraction operands on either side,
    # instead of falling through to tuple concatenation or ordering
    values = [INF, Val.of(0), Val.of(Fraction(1, 2)), Val.of(-3)]
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
    assert Val.of(Fraction(3, 2)) == Val(Fraction(3, 2)) and Val.of(2).fraction == 2
    assert not Val.of(0).is_infinite and INF.is_infinite and INF == Val(None)
    with pytest.raises(ValueError):
        _ = INF.fraction
    assert Val.of(1) != INF and Val.of(1) != Val.of(2)
    assert len({Val.of(1), Val(Fraction(1)), INF, Val(None)}) == 2
    assert repr(Val.of(Fraction(-7, 3))) == "Val(-7/3)" and repr(INF) == "Val(inf)"


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
            if ctx.is_zero(y):
                assert ctx.quotient(num, den) is None
                continue
            assert ctx.quotient(num, den) == ctx.mul(x, ctx.inv(y)) == field_div(ctx, x, y)
        assert ctx.quotient(num, ctx.integers.zero) is None
        for n in range(-1, p + 2):
            assert ctx.zeta_power(n) == zeta_power_by_definition(ctx, n)


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
assert ctx.valuation(ctx.from_fraction(ell**3)) == Val.of(3)
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
