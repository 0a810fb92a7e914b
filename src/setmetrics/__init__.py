"""Distances between finite subsets of a bounded metric space.

The core quantity is an injection-based distance: match the smaller set
into the larger as cheaply as possible, charging an admissible penalty
for every element left unmatched.  With such a penalty this is a true
metric on the finite subsets.  The package bundles the ground spaces
(words under Hamming distance, boxed Euclidean points, weighted graphs),
the penalty functions with their admissibility checks, an exact
assignment solver with brute-force oracles, classical comparison
distances, and a file-driven CLI.
"""

from .assignment import (Assignment, BRUTE_FORCE_MAX_N,
                         brute_force_assignment, solve_assignment)
from .comparisons import (ComparisonKind, LINK_ORACLE_MAX_PAIRS,
                          SURJECTION_MAX_SET, brute_force_link_distance,
                          comparison_distance, fair_surjective_distance,
                          hausdorff_distance, link_distance,
                          sum_min_distance, surjective_distance)
from .errors import (DomainError, ParseError, SetMetricsError, SizeLimitError,
                     ValidationError)
from .penalties import (ConstantPenalty, DiameterPenalty, EccentricityPenalty,
                        PenaltyFunction, PenaltyValidityReport,
                        PenaltyViolation, TablePenalty, parse_penalty_spec,
                        penalty_from_json, validate_penalty)
from .spaces import (Element, EuclideanBoxSpace, GraphSpace, HammingSpace,
                     REAL_TOL, Space, element_to_json, space_from_json)
from .subset_distance import (BRUTE_FORCE_MAX_SET, DuplicateElementsWarning,
                              Injection, PointSet, SubsetDistanceResult,
                              brute_force_subset_distance, chi_distance,
                              sequence_subset_distance, subset_distance,
                              symmetric_difference_reduce, validate_injection)
from .workspace import (Workspace, certify_penalty, load_sequence_sets,
                        load_workspace, loads_sequence_sets, loads_workspace)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "BRUTE_FORCE_MAX_N", "BRUTE_FORCE_MAX_SET",
    "ComparisonKind", "ConstantPenalty", "DiameterPenalty", "DomainError",
    "DuplicateElementsWarning", "EccentricityPenalty", "Element",
    "EuclideanBoxSpace", "GraphSpace", "HammingSpace", "Injection",
    "LINK_ORACLE_MAX_PAIRS", "ParseError", "PenaltyFunction",
    "PenaltyValidityReport", "PenaltyViolation", "PointSet", "REAL_TOL",
    "SetMetricsError", "SizeLimitError", "Space", "SubsetDistanceResult",
    "SURJECTION_MAX_SET", "TablePenalty", "ValidationError", "Workspace",
    "brute_force_assignment", "brute_force_link_distance",
    "brute_force_subset_distance", "certify_penalty", "chi_distance",
    "comparison_distance", "element_to_json",
    "fair_surjective_distance", "hausdorff_distance", "link_distance",
    "load_sequence_sets", "load_workspace", "loads_sequence_sets",
    "loads_workspace", "parse_penalty_spec", "penalty_from_json",
    "sequence_subset_distance", "solve_assignment", "space_from_json",
    "subset_distance", "sum_min_distance", "surjective_distance",
    "symmetric_difference_reduce", "validate_injection", "validate_penalty",
    "__version__",
]
