"""
Moebius maps and their classification
=====================================

Fractional linear maps act on the projective line; their dynamical type
is read off the Newton polygon of the characteristic polynomial.  The
order-p maps fixing a prescribed pair of points are the generators the
whole theory is built from: ``word_matrix(pcfg, GroupWord(((k, n),)))``
is the n-th power of the one fixing pair k of a paired configuration.
"""

from schottkyfold import (
    INFINITY,
    GroupWord,
    MapKind,
    Mobius,
    PairedConfiguration,
    apply,
    classify,
    compose,
    field_context,
    finite,
    word_matrix,
)

ctx = field_context(2, 5)

# A map holds its integer entries in one canonical scale: coprime, the
# first nonzero one positive over Q.
# z -> 5z is loxodromic over the 5-adics: its eigenvalues 5 and 1 have
# different valuations and it translates its axis by v(5) = 1.
print("diag(5, 1):", classify(ctx, Mobius(ctx, 5, 0, 0, 1)))

# z -> z + 1 has a single eigenvalue: parabolic.
print("unipotent:", classify(ctx, Mobius(ctx, 1, 1, 0, 1)))

# Three pairs, paired by hand: {7, 12}, {0, 5} and {1, infinity}.
pcfg = PairedConfiguration(ctx, (
    (finite(ctx, 7), finite(ctx, 12)),
    (finite(ctx, 0), finite(ctx, 5)),
    (finite(ctx, 1), INFINITY),
))

# The involution fixing 7 and 12.
s0 = word_matrix(pcfg, GroupWord(((0, 1),)))
print("involution fixing {7, 12}:", s0, "->", classify(ctx, s0))
print("  fixes 7:", apply(s0, finite(ctx, 7)) == finite(ctx, 7))

# Involutions fixing {0, 5} and {1, infinity}.
s1 = word_matrix(pcfg, GroupWord(((1, 1),)))
s2 = word_matrix(pcfg, GroupWord(((2, 1),)))
print("involution fixing {0, 5}:", s1)
print("involution fixing {1, inf}:", s2, "(z -> 2 - z)")

# Squaring any of them gives the identity projectively.
print("s0^2 is the identity:", classify(ctx, compose(s0, s0)).kind is MapKind.IDENTITY)

# Products of involutions need not be loxodromic: this one has
# characteristic polynomial proportional to T^2 - 350 T + 625, whose two
# roots share the valuation 2, so the map is elliptic.  Its existence
# shows the configuration {7, 12, 0, 5, 1, inf} cannot be good.
w = word_matrix(pcfg, GroupWord(((1, 1), (2, 1), (0, 1), (2, 1))))
print("s1*s2*s0*s2 =", w)
print("  trace:", w.trace(), " det:", w.det(), "->", classify(ctx, w))
