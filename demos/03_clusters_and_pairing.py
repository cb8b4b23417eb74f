"""
Cluster data and the canonical pairing
======================================

A configuration's clusters are its intersections with ultrametric discs.
Two points are teammates when they lie in exactly the same
even-cardinality clusters, and a configuration is *clustered in pairs*
when every team has size two.  The pairing, when it exists, is unique.
"""

from fractions import Fraction

from schottkyfold import (
    NotClusteredInPairsError,
    NotSeparatedError,
    cluster_data,
    configuration,
    field_context,
    pair_up,
    repetition_report,
)

ctx = field_context(2, 7)
cfg = configuration(ctx, [Fraction(1336, 3), -355, -110, 86, 0, 7, 1, "inf"])

# The skeleton names points by their place among the finite points and
# counts depths in steps of the value group; val_of_steps shows a count as
# a valuation.
print("clusters of the 7-adic showcase configuration:")
sk = cluster_data(cfg)
for c in sorted(sk.clusters, key=lambda c: (-len(c.members), sorted(c.members))):
    names = "{" + ", ".join(ctx.to_str(sk.values[k]) for k in sorted(c.members)) + "}"
    print(f"  depth {ctx.val_of_steps(c.depth)}: {names}")

print("pairing:", pair_up(cfg))

# A set that fails: {-5, -10, 0, 5} is a cluster of size four containing
# no even proper subcluster, so all four points fall into one team.
ctx5 = field_context(2, 5)
try:
    pair_up(configuration(ctx5, [-5, -10, 0, 5, 1, "inf"]))
except NotClusteredInPairsError as exc:
    print("not clustered in pairs:", exc)

# Over the dyadics the separation radius is 1, and pair axes must stay
# more than 2 apart: a shallow pair is rejected.
ctx2 = field_context(2, 2)
try:
    pair_up(configuration(ctx2, [0, 4, 1, "inf"]))
except NotSeparatedError as exc:
    print("not separated:", exc)
print("deep enough instead:", pair_up(configuration(ctx2, [0, 8, 1, "inf"])))

# Repetition accounting distinguishes redundant multisets from broken ones.
print(repetition_report(configuration(ctx5, [0, 0, 5, 5, 1, "inf"])))
print(repetition_report(configuration(ctx5, [0, 0, 5, 7, 1, "inf"])))
