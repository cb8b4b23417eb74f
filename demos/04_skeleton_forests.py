"""
Skeleton forests of paired configurations
=========================================

The reduced convex hull collapses a configuration to a finite metric
forest: vertices are the minimal discs of clusters, the kept edges join
even clusters to their parents (an edge is as long as the two discs'
radii differ), and the distinguished vertices are the ones sitting on a
pair axis.  Its shape controls whether foldings exist.
"""

from fractions import Fraction

from schottkyfold import (
    configuration,
    field_context,
    pair_up,
    reduced_convex_hull,
    to_dot,
)

ctx = field_context(2, 7)
pcfg = pair_up(
    configuration(ctx, [Fraction(1336, 3), -355, -110, 86, 0, 7, 1, "inf"])
)
tree = reduced_convex_hull(pcfg)
print("skeleton of the 7-adic showcase:")
for v in tree.vertices:
    role = f"axis {v.pair_index}" if v.distinguished else "branch"
    print(f"  vertex {v.id}: {v.disc} [{role}] valency {tree.valency(v.id)}")
for u, v, length in tree.edges:
    print(f"  edge {u} -- {v} of length {length}")
print("components:", tree.component_count())
tails = all(tree.valency(v.id) <= 1 for v in tree.distinguished())
print("all distinguished vertices are tails:", tails)

# a disconnected example: the odd cluster {0, 125, 5} splits the forest,
# and the axis of the pair at infinity runs through both components
ctx5 = field_context(2, 5)
pcfg2 = pair_up(configuration(ctx5, [0, 125, 5, 1, 6, "inf"]))
tree2 = reduced_convex_hull(pcfg2)
print("\ntwo components:", tree2.component_count())


def show(pt):
    return "inf" if pt.is_infinity else ctx5.to_str(pt.value)


for comp in range(tree2.component_count()):
    met = sorted(v.pair_index for v in tree2.distinguished() if v.component == comp)
    axes = ", ".join("{%s, %s}" % tuple(map(show, pcfg2.pairs[i])) for i in met)
    print(f"  component {comp} meets the axes of {axes}")

print("\nGraphviz DOT of the showcase forest:\n")
print(to_dot(tree))
