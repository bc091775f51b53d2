"""Vector multispaces over GF(q)^n.

A multispace is a multiset of vectors with subspace support and uniform
member multiplicity q^t; the collection of all of them is a graded
modular lattice extending the subspace lattice.  This package provides
exact finite-field linear algebra, the lattice with its metric and
counting formulas, the linearized-polynomial correspondence, multispace
codes with minimum-distance decoding, and a seeded channel simulator for
random linear network coding.
"""

from .errors import (
    ConfigInvalid,
    ContextMismatch,
    DimensionMismatch,
    DivisionByZero,
    EmptyCode,
    FieldTooLarge,
    FormatError,
    LimitExceeded,
    MultispaceError,
    NotAMultispace,
    NotCanonical,
    NotIrreducible,
    NotPrime,
    RankZero,
    RootsNotInField,
    SamplingFailed,
    ShapeMismatch,
    ShapeViolation,
    TooFewCodewords,
)
from .fields import Embedding, FieldCtx, extension, field, parse_field_spec
from .linalg import (
    DEFAULT_STATE_LIMIT,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    is_rref,
    subspace_distance,
    subspace_leq,
)
from .lattice import (
    BigCount,
    GammaGraph,
    HasseDiagram,
    Multispace,
    RegularityReport,
    VectorMultiset,
    codespace_growth,
    count_covered,
    count_covering,
    count_multispaces,
    covered_neighbors,
    covering_neighbors,
    distance,
    enumerate_multispaces,
    enumerate_multispaces_up_to,
    gamma_graph,
    hasse_dot,
    hasse_edges,
    is_distance_regular,
    join,
    meet,
    mspan,
    multiset_leq,
    pairwise_distances,
    span,
)
from .qpoly import (
    LinearizedPoly,
    VectorFieldIso,
    poly_from_multispace,
    roots_multiset,
    vector_field_iso,
)
from .codes import (
    MultispaceCode,
    ball,
    ball_size,
    decode,
    exhaustive_optimal_code,
    greedy_code,
    min_distance,
    sphere_packing_bound,
)
from .channel import (
    ChannelConfig,
    ChannelRun,
    ChannelSummary,
    TrialRecord,
    apply_transform,
    end_to_end,
    random_full_rank,
    random_matrix,
    random_rank,
    run_trials,
    write_trial_csv,
)

__version__ = "0.1.0"
