"""Exact folding of point configurations on the projective line over a
discretely valued field.

The library decides whether an even-cardinality configuration of points
generates a group of order-p maps all of whose index-p-subgroup elements
are loxodromic (so that the configuration uniformises a split degenerate
superelliptic curve).  The decision runs the folding algorithm on the
configuration's skeleton forest and is cross-checked by a brute-force
group-word audit.

``__all__`` is the public API: each of its names, and each public method
of its records, has a reader in the library or the benchmark, and the
demos use nothing else.  The driver's internal steps
(``select_target``, ``compute_I``, ``find_fold_exponent``,
``apply_folding``, the target loop ``targets``, the ``Skeleton`` that
``cluster_data`` builds) come from their modules.
"""

from .clusters import Configuration, PairedConfiguration, cluster_data, configuration, pair_up
from .errors import (InvalidInputError, PairingError, PairingFailure, RepeatedPointsError,
                     SchottkyFoldError, UnsupportedFieldError)
from .folding import FoldingStep, FoldWitness, Good, NotGood, Redundant, Verdict, run_algorithm
from .hull import Disc, SkeletonTree, SkeletonVertex, reduced_convex_hull, to_dot
from .oracle import AuditResult, GroupWord, schottky_audit, word_matrix
from .projline import (INFINITY, ElementClass, MapKind, Mobius, PPoint, apply,
                       classify, compose, finite)
from .valfield import FieldContext, FieldKind, Val, field_context, format_fraction

__version__ = "0.1.0"

__all__ = [
    # configurations, clusters and the pairing
    "Configuration", "PairedConfiguration", "cluster_data", "configuration",
    "pair_up",
    # errors
    "InvalidInputError", "PairingError", "PairingFailure", "RepeatedPointsError",
    "SchottkyFoldError", "UnsupportedFieldError",
    # the folding driver and its verdicts
    "FoldingStep", "FoldWitness", "Good", "NotGood", "Redundant", "Verdict",
    "run_algorithm",
    # the reduced convex hull
    "Disc", "SkeletonTree", "SkeletonVertex", "reduced_convex_hull", "to_dot",
    # the group-word audit
    "AuditResult", "GroupWord", "schottky_audit", "word_matrix",
    # the projective line and Moebius maps
    "INFINITY", "ElementClass", "MapKind", "Mobius", "PPoint", "apply",
    "classify", "compose", "finite",
    # valued fields
    "FieldContext", "FieldKind", "Val", "field_context", "format_fraction",
]
