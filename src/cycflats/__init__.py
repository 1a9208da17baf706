"""Matroid workbench over the cyclic-flats representation.

A matroid is stored as its ground set plus the lattice of cyclic flats
with their ranks; everything else (rank function, duals, minors, Tutte
polynomials, connectivity, branch-width, t-expansions, positroid orders,
transversal presentations) is computed from that data.

The ``threads`` keyword that some functions still take is ignored; it
stays only so that existing callers keep working.
"""

from .core import (GroundSet, Matroid, from_json, from_json_dict,
                   is_uniform, popcount, uniform, validate_axioms)
from .errors import (AxiomViolation, BudgetExceeded, DecompositionMismatch,
                     HasColoops, HasLoops, InputOrderNotPositroid,
                     InvalidTangle, MalformedTree, MatroidError,
                     NotATExpansion, Z0Violation, Z1Violation, Z2Violation,
                     Z3Violation)
from .expansion import (ExpansionMap, Presentation, deflate,
                        deflate_with_map, expand, expand_presentation,
                        expand_via_union, matroid_union)
from .invariants import (Configuration, TuttePolynomial, config_isomorphic,
                         configuration, tutte_polynomial)
from .connectivity import (ConnectivityResult, ScalingCheck, flats_cover,
                           kappa_scaling_check, tutte_connectivity,
                           two_flats_cover_plus_one, vertical_connectivity)
from .branchwidth import (BranchDecomposition, RankBelow, Tangle,
                          WidthCertificate, branch_width_certified,
                          branch_width_exact, caterpillar_decomposition,
                          decomposition_width, displayed_sets,
                          expand_decomposition, fan_decomposition,
                          rank_bounded_family, three_flats_cover,
                          three_flats_cover_plus_two, verify_tangle)
from .classes import (expansion_positroid_order, is_positroid_order,
                      positroid_search, presentation_matroid,
                      verify_presentation)
from .verify import (CheckResult, VerificationReport, random_matroid,
                     run_suite, run_theorem)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "GroundSet", "Matroid", "from_json", "from_json_dict", "is_uniform",
    "popcount", "uniform", "validate_axioms",
    "AxiomViolation", "BudgetExceeded", "DecompositionMismatch",
    "HasColoops", "HasLoops", "InputOrderNotPositroid", "InvalidTangle",
    "MalformedTree", "MatroidError", "NotATExpansion", "Z0Violation",
    "Z1Violation", "Z2Violation", "Z3Violation",
    "ExpansionMap", "Presentation", "deflate", "deflate_with_map", "expand",
    "expand_presentation", "expand_via_union", "matroid_union",
    "Configuration", "TuttePolynomial", "config_isomorphic",
    "configuration", "tutte_polynomial",
    "ConnectivityResult", "ScalingCheck", "flats_cover",
    "kappa_scaling_check", "tutte_connectivity", "two_flats_cover_plus_one",
    "vertical_connectivity",
    "BranchDecomposition", "RankBelow", "Tangle", "WidthCertificate",
    "branch_width_certified", "branch_width_exact",
    "caterpillar_decomposition", "decomposition_width", "displayed_sets",
    "expand_decomposition", "fan_decomposition", "rank_bounded_family",
    "three_flats_cover", "three_flats_cover_plus_two", "verify_tangle",
    "expansion_positroid_order", "is_positroid_order", "positroid_search",
    "presentation_matroid", "verify_presentation",
    "CheckResult", "VerificationReport", "random_matroid", "run_suite",
    "run_theorem",
    "catalog",
]
