"""
Brute-force group-word audit
============================

Independent of the folding route, one can enumerate reduced words in the
order-p generators whose exponent sum vanishes mod p and classify each
matrix.  A short non-loxodromic word falsifies goodness; silence up to a
length bound corroborates it.
"""

from fractions import Fraction
from itertools import permutations

from schottkyfold import (
    GroupWord,
    configuration,
    field_context,
    pair_up,
    run_algorithm,
    schottky_audit,
    word_matrix,
)

ctx = field_context(2, 5)

# A word of one involution is odd, and a reduced word of two changes
# generator: the six words below, in the audit's length-lexicographic order.
print("reduced even words on three involutions, up to length 2:")
for i, j in permutations(range(3), 2):
    print("  ", GroupWord(((i, 1), (j, 1))))

# The showcase failure: an elliptic word of length four exists.
bad = pair_up(configuration(ctx, [7, 12, 0, 5, 1, "inf"]))
result = schottky_audit(bad, 4)
word, cls = result.witness
m = word_matrix(bad, word)
print("\nwitness against {7,12,0,5,1,inf}:", word)
print("  class:", cls.kind.value, " trace:", m.trace(), " det:", m.det())
print("  words checked:", result.words_checked)

# The optimal configuration the folding run produces audits clean.
ctx7 = field_context(2, 7)
verdict = run_algorithm(
    ctx7,
    configuration(ctx7, [Fraction(1336, 3), -355, -110, 86, 0, 7, 1, "inf"]),
)
clean = schottky_audit(verdict.s_min, 6)
print("\naudit of the optimal 7-adic configuration to depth 6:")
print("  witness:", clean.witness, " relations:", clean.relations,
      " words checked:", clean.words_checked)
