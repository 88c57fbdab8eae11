"""Flexibility vs. rigidity of surface-group representations.

Centralizer and root-space computations in classical real Lie algebras,
surface-group cohomology with cup products, Toledo invariants of root
modules from the relator lifted to the universal cover of Sp(2n, R), and
the balanced convex-geometry criterion that decides the flexible/rigid
verdict.
"""

__version__ = "0.1.0"

from .config import (DEFAULT, ExcludedFamilyError, FlexcheckError, Inconclusive, NumericalAbort,
                     ParseError, Tolerances)
from .scalars import Field, realify
from .linalg import nullspace, rank
from .liealg import (
    LieAlgebraModel,
    SubalgebraHandle,
    build_classical,
    center_of,
    centralizer,
    conjugation_limit,
    killing_restriction_nondegenerate,
)
from .roots import RootDatum, TorusRootDecomposition, decompose
from .surface import (
    CohomologyWorkspace,
    SurfaceGroupPresentation,
    SurfaceRepresentation,
    adjoint_module,
    cohomology,
    correct_relator,
    cup_pairing,
    fuchsian_genus2,
    standard_presentation,
    surface_representation,
)
from .toledo import RootFormReport, root_form
from .engine import BalanceProblem, FlexibilityReport, balanced, verdict
from .catalog import build_case_representation, default_cases, expected_table, find_case

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
    "cohomology",
    "conjugation_limit",
    "correct_relator",
    "cup_pairing",
    "decompose",
    "default_cases",
    "expected_table",
    "find_case",
    "fuchsian_genus2",
    "killing_restriction_nondegenerate",
    "nullspace",
    "rank",
    "realify",
    "root_form",
    "standard_presentation",
    "surface_representation",
    "verdict",
    "__version__",
]
