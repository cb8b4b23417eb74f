"""
Folding walkthrough
===================

The decision procedure: pair the points, look for an index pair (i, j)
and exponent n whose fold strictly shrinks the skeleton, apply it, and
repeat.  A fold that breaks the pairing certifies failure; running out
of folds certifies success and yields an optimal configuration.
"""

from fractions import Fraction

from schottkyfold import (
    Good,
    NotGood,
    configuration,
    field_context,
    run_algorithm,
)


def narrate(ctx, values):
    cfg = configuration(ctx, values)
    print(f"input over (p=2, ell={ctx.ell}):", cfg)
    verdict = run_algorithm(ctx, cfg)
    for k, step in enumerate(verdict.trace, 1):
        print(f"  fold {k}: i={step.i}, j={step.j}, n={step.n}, "
              f"folded pairs {sorted(step.indices)}")
        print(f"    map {step.map}")
        w = step.witness
        print(f"    witness at l={w.l}: {w.lhs} > {w.rhs}")
        print(f"    result {step.after}")
    if isinstance(verdict, Good):
        print("  GOOD; optimal configuration:", verdict.s_min)
    elif isinstance(verdict, NotGood):
        stage = f"after fold {len(verdict.trace)}" if verdict.trace else "before any fold"
        print(f"  NOT GOOD: {verdict.failure.value} {stage}")
    else:
        print("  REDUNDANT; underlying set:", verdict.reduced)
    print()
    return verdict


# A configuration that pairs up but folds badly: the single fold moves
# the pair {7, 12} onto {-5, -10}, which collides with {0, 5} into one
# four-point cluster, so no pairing survives.
narrate(field_context(2, 5), [7, 12, 0, 5, 1, "inf"])

# Two good folds in a row shrink this one onto an optimal configuration.
narrate(field_context(2, 7), [Fraction(1336, 3), -355, -110, 86, 0, 7, 1, "inf"])

# Four points pair up if and only if they are good, always without folds.
narrate(field_context(2, 5), [0, 5, 1, "inf"])

# Residue characteristic two: the fixed tubes have radius one, and the
# fold test carries the +1 margin.  One good fold happens here.
narrate(field_context(2, 2), [5, 133, 29, 157, 1, "inf"])
