"""Symmetric designs, symmetric nets, and resolving sets of their
incidence graphs: constructors, validators, distance machinery, randomized
and exact solvers, and exact probabilistic size bounds."""

__version__ = "0.1.0"

from .fields import FiniteField, make_field, is_prime, prime_power
from .designs import (
    ConstructionError,
    Design,
    HadamardMatrix,
    InvalidDesign,
    SymmetricDesign,
    TransversalDesign,
    ValidationReport,
    biaffine_plane,
    dual,
    from_text,
    hadamard_design,
    hadamard_matrix,
    hadamard_std,
    point_complement_design,
    projective_plane,
    require_valid,
    to_text,
    validate,
    validate_design,
    validate_std,
)
from .incidence import (
    GraphClassification,
    IncidenceGraph,
    IntersectionArray,
    NotDistanceRegular,
    classify,
    design_intersection_array,
    from_edge_text,
    incidence_graph,
    intersection_array,
    net_intersection_array,
    to_edge_text,
)
from .resolve import (
    BudgetExceeded,
    MetricDimensionResult,
    RetriesExhausted,
    SampledSemiResolvingSet,
    SplitResolvingSet,
    clamped_sample_size,
    find_resolving_set,
    greedy_semi_resolving,
    is_resolving,
    is_semi_resolving,
    metric_dimension,
    min_semi_resolving,
    randomized_semi_resolving,
    resolving_witness,
    semi_resolving_sample_size,
    semi_resolving_witness,
    split_resolving,
    symm_diff_sizes,
    verify_witness,
    witness_from_text,
    witness_to_text,
)
from .bounds import (
    ChainLink,
    ChainReport,
    MonteCarloResult,
    OrderBoundsReport,
    design_expected_unresolved,
    exhaustive_expected_unresolved,
    exhaustive_success_rate,
    expected_unresolved,
    expected_unresolved_std,
    inequality_chain,
    monte_carlo_success,
    order_bounds_check,
)
