"""Exact folding of point configurations on the projective line over a
discretely valued field.

The library decides whether an even-cardinality configuration of points
generates a group of order-p maps all of whose index-p-subgroup elements
are loxodromic (so that the configuration uniformises a split degenerate
superelliptic curve).  The decision runs the folding algorithm on the
configuration's skeleton forest and is cross-checked by a brute-force
group-word audit.
"""

from .clusters import (
    Cluster,
    Configuration,
    PairedConfiguration,
    Skeleton,
    cluster_data,
    configuration,
    pair_up,
    repetition_report,
)
from .errors import (
    DegeneratePairError,
    FieldDivisionError,
    InvalidInputError,
    NotClusteredInPairsError,
    NotPairedError,
    NotSeparatedError,
    PairingError,
    SchottkyFoldError,
    UnsupportedFieldError,
)
from .folding import (
    BadFoldingProduced,
    FoldingStep,
    FoldWitness,
    Good,
    InitialNotPaired,
    NotGood,
    PairingFailure,
    Redundant,
    Verdict,
    apply_folding,
    compute_I,
    d_j_of_i,
    find_fold_exponent,
    run_algorithm,
    select_target,
    tilde_d_j_of_i,
)
from .hull import (
    Disc,
    SkeletonTree,
    SkeletonVertex,
    delta,
    disc,
    disc_image,
    is_trivially_optimal,
    join,
    min_disc,
    pair_disc,
    point_to_axis,
    reduced_convex_hull,
    split_by_components,
    to_dot,
)
from .oracle import (
    AuditResult,
    GroupWord,
    enumerate_gamma_words,
    schottky_audit,
    verify_fold_conjugation,
    word_matrix,
)
from .projline import (
    INFINITY,
    ElementClass,
    MapKind,
    Mobius,
    PPoint,
    apply,
    classify,
    compose,
    finite,
    identity,
    inverse,
    mobius,
    order_p_fixing,
    proj_eq,
)
from .valfield import (
    INF,
    FieldContext,
    FieldKind,
    Val,
    field_context,
    format_fraction,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
