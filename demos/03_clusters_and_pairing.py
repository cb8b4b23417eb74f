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
    PairingError,
    RepeatedPointsError,
    cluster_data,
    configuration,
    field_context,
    pair_up,
)

ctx = field_context(2, 7)
cfg = configuration(ctx, [Fraction(1336, 3), -355, -110, 86, 0, 7, 1, "inf"])

# The skeleton names points by their place among the finite points and
# keeps its cluster tree flat: cluster k's members are the slice
# order[first[k] : first[k] + sizes[k]], and its depth counts steps of the
# value group; val_of_steps shows a count as a valuation.
print("clusters of the 7-adic showcase configuration:")
sk = cluster_data(cfg)
clusters = [(sorted(sk.order[start : start + size]), depth)
            for start, size, depth in zip(sk.first, sk.sizes, sk.depths)]
for members, depth in sorted(clusters, key=lambda c: (-len(c[0]), c[0])):
    names = "{" + ", ".join(ctx.to_str(sk.values[k]) for k in members) + "}"
    print(f"  depth {ctx.val_of_steps(depth)}: {names}")

print("pairing:", pair_up(cfg))

# A set that fails: {-5, -10, 0, 5} is a cluster of size four containing
# no even proper subcluster, so all four points fall into one team.
ctx5 = field_context(2, 5)
try:
    pair_up(configuration(ctx5, [-5, -10, 0, 5, 1, "inf"]))
except PairingError as exc:
    print("not clustered in pairs:", exc)

# Over the dyadics the separation radius is 1, and pair axes must stay
# more than 2 apart: a shallow pair is rejected.
ctx2 = field_context(2, 2)
try:
    pair_up(configuration(ctx2, [0, 4, 1, "inf"]))
except PairingError as exc:
    print("not separated:", exc)
print("deep enough instead:", pair_up(configuration(ctx2, [0, 8, 1, "inf"])))

# Repetition accounting distinguishes redundant multisets from broken ones.
# cluster_data refuses a repeated point, naming the indices of each repeated
# value; an even number of them is redundant, and the underlying set keeps
# each value's first occurrence.
for values in ([0, 0, 5, 5, 1, "inf"], [0, 0, 5, 7, 1, "inf"]):
    multiset = configuration(ctx5, values)
    try:
        cluster_data(multiset)
    except RepeatedPointsError as exc:
        later = {k for _, *rest in exc.classes for k in rest}
        kept = tuple(pt for k, pt in enumerate(multiset.points) if k not in later)
        print((len(exc.classes), multiset._replace(points=kept)))
