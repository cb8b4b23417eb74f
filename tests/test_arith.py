"""The benchmark's arithmetic, ``perfbench/arith.py``, against the tests' own.

``tests/reference.py`` takes from ``arith`` every formula the two write
alike: the order-p maps, their products and action, the powers of zeta,
the split root and the count of Gamma-words.  What stays apart is a second
algorithm on each side, and this test makes the two agree: valuations,
products and inverses (``arith`` by Galois conjugates and the norm, the
reference by division over Q and a resultant), cluster sets (discs around
every point, against balls listed in pre-order), even classes (against the
program's ``pair_up``) and axis gaps over Q.
"""

from __future__ import annotations

import ast
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import schottkyfold as sf
from helpers import TEST_FIELDS, lowering_sets
from reference import (arith, axis_gaps_by_valuation, clusters_in_preorder, field_div,
                       field_is_zero, field_mul, field_one, field_sub, field_valuation,
                       split_root, times_one_minus_zeta, zeta_power_by_definition)


def _arith_imports() -> set[str]:
    """The top-level modules ``perfbench/arith.py`` imports, read from its
    AST."""
    names = set()
    for node in ast.walk(ast.parse(Path(arith.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def _draws(rng, ctx, count):
    """Random elements with denominators, times ell^k and, off Q, (1 -
    zeta)^m; in a split field also zeta less its root lifted to ell^12, and
    that times another element, whose valuations reach past the first
    precision of the root."""
    out = []
    while len(out) < count:
        x = tuple(
            Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, ctx.ell, 6 * ctx.ell**2]))
            for _ in range(ctx.degree)
        )
        x = tuple(c * Fraction(ctx.ell) ** rng.randint(-3, 6) for c in x)
        if ctx.degree == 1:
            x = x[0]
        else:
            for _ in range(rng.randint(0, 2 * ctx.p)):
                x = times_one_minus_zeta(ctx, x)
        if not field_is_zero(ctx, x):
            out.append(x)
    if ctx.kind is sf.FieldKind.CYCLOTOMIC_SPLIT:
        near = field_sub(ctx, zeta_power_by_definition(ctx, 1), ctx.from_fraction(split_root(ctx, 12)))
        out += [near, field_mul(ctx, near, out[0])]
    return out


def test_the_benchmark_arithmetic_agrees_with_the_tests_own():
    # arith imports only the standard library, so nothing of the program
    names = _arith_imports()
    assert {"fractions", "math"} <= names
    assert names <= sys.stdlib_module_names, sorted(names - sys.stdlib_module_names)
    rng = random.Random(23)
    for p, ell in TEST_FIELDS:
        ctx, field = sf.field_context(p, ell), arith.field(p)
        xs = _draws(rng, ctx, 40)
        for x, y in zip(xs, xs[1:] + xs[:1]):
            assert sf.Val(arith.valuation(p, ell, x)) == field_valuation(ctx, x), (p, ell, x)
            assert field.mul(x, y) == field_mul(ctx, x, y), (p, ell, x, y)
            assert field.inv(x) == field_div(ctx, field_one(ctx), x), (p, ell, x)
    for ctx, cfg in lowering_sets(5413):
        values = [pt.value for pt in cfg.points if not pt.is_infinity]
        preorder = {members for members, _ in clusters_in_preorder(ctx, values)}
        assert arith.cluster_sets(values, ctx.ell, ctx.p) == preorder, cfg
        pcfg = sf.pair_up(cfg)
        pairs = [tuple(arith.INF if pt.is_infinity else pt.value for pt in pair) for pair in pcfg.pairs]
        points = [x for pair in pairs for x in pair]
        assert {frozenset(c) for c in arith.even_classes(points, ctx.ell, ctx.p)} == set(map(frozenset, pairs))
        if ctx.kind is sf.FieldKind.RATIONAL:
            gaps = tuple(arith.axis_gap(a, b, ctx.ell) for a, b in combinations(pairs, 2))
            assert gaps == axis_gaps_by_valuation(pcfg), cfg
