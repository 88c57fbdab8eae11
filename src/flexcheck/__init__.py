"""Flexibility vs. rigidity of surface-group representations.

Centralizer and root-space computations in classical real Lie algebras,
surface-group cohomology with cup products, Toledo invariants from the
signature of the cup-square form, and the balanced convex-geometry
criterion that decides the flexible/rigid verdict.
"""

__version__ = "0.1.0"

from .config import (DEFAULT, ExcludedFamilyError, FlexcheckError, Inconclusive, NumericalAbort,
                     ParseError, Tolerances)
from .scalars import Field, Quaternion, quaternion_multiply, realify
from .linalg import nullspace, rank, simultaneous_eigenspaces
from .liealg import (
    LieAlgebraModel,
    SubalgebraHandle,
    build_classical,
    center_of,
    centralizer,
    conjugation_limit,
    killing_restriction_nondegenerate,
)
from .roots import RootDatum, TorusRootDecomposition, classify_root, decompose
from .surface import (
    CohomologyWorkspace,
    SurfaceGroupPresentation,
    SurfaceRepresentation,
    adjoint_module,
    cohomology,
    correct_relator,
    cup_pairing,
    cup_square,
    fuchsian_genus2,
    standard_presentation,
    surface_representation,
)
from .toledo import (RootFormReport, lagrangian_pair_check, root_cohomology, root_form,
                     scan_invariant_lagrangians, signature)
from .engine import (
    BalanceProblem,
    FlexibilityReport,
    balanced,
    smooth_point_check,
    smoothness_of_rep,
    verdict,
    virtual_dimension,
)
from .catalog import (build_case_representation, default_cases, expected_table, find_case,
                      hom_bracket_closed_form, splitso)

__all__ = [
    "BalanceProblem",
    "CohomologyWorkspace",
    "DEFAULT",
    "ExcludedFamilyError",
    "Field",
    "FlexcheckError",
    "FlexibilityReport",
    "Inconclusive",
    "LieAlgebraModel",
    "NumericalAbort",
    "ParseError",
    "Quaternion",
    "RootDatum",
    "RootFormReport",
    "SubalgebraHandle",
    "SurfaceGroupPresentation",
    "SurfaceRepresentation",
    "Tolerances",
    "TorusRootDecomposition",
    "adjoint_module",
    "balanced",
    "build_case_representation",
    "build_classical",
    "center_of",
    "centralizer",
    "classify_root",
    "cohomology",
    "conjugation_limit",
    "correct_relator",
    "cup_pairing",
    "cup_square",
    "decompose",
    "default_cases",
    "expected_table",
    "find_case",
    "fuchsian_genus2",
    "hom_bracket_closed_form",
    "killing_restriction_nondegenerate",
    "lagrangian_pair_check",
    "nullspace",
    "quaternion_multiply",
    "rank",
    "realify",
    "root_cohomology",
    "root_form",
    "scan_invariant_lagrangians",
    "signature",
    "simultaneous_eigenspaces",
    "smooth_point_check",
    "smoothness_of_rep",
    "splitso",
    "standard_presentation",
    "surface_representation",
    "verdict",
    "virtual_dimension",
    "__version__",
]
