"""Shared tolerances and error types.

The only module that knows a numerical threshold.  ``Tolerances`` holds
the two a caller may set, the rank cut and the root-value clustering; the
module constants are the checks no caller varies, each with the reason
for its value.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields


# Smallest Tolerances threshold, 100 units of double rounding: the cutoffs are
# relative, and below it rounding decides (at rank 1e-18 su21-cline read flexible).
TOLERANCE_FLOOR = 100 * sys.float_info.epsilon


@dataclass(frozen=True)
class Tolerances:
    """The two numerical decisions a caller may move.

    Both cutoffs are relative: ``rank`` against the largest singular value,
    ``cluster`` against the largest operator norm.  Each must be a finite
    real number (not a bool), at least ``TOLERANCE_FLOOR``; any other value
    raises ``FlexcheckError``.
    """

    rank: float = 1e-9          # singular values below rank * sigma_max count as zero
    cluster: float = 1e-7       # joint eigenvalues closer than this merge

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and TOLERANCE_FLOOR <= value < math.inf):       # NaN fails too
                raise FlexcheckError(
                    f"tolerance {f.name} = {value!r} must be a finite number, not below the "
                    f"floor {TOLERANCE_FLOOR:.1e} (100 units of double rounding)")


DEFAULT = Tolerances()

# Checks that no caller varies, each with the reason for its value.

# Bracket-closure residual of a subalgebra's span, and of a torus's brackets.
SUBALGEBRA_CLOSURE = 1e-9
# Group defining-relation residual of exact model arithmetic; also where
# conjugation_limit reads a growing entry as zero.
MEMBERSHIP = 1e-8
# Generator images: rounded entry by entry, and the relation is quadratic in g.
IMAGE_MEMBERSHIP = MEMBERSHIP * 100
# Invariant subspaces of a module: projecting onto one cut at ``rank`` costs a digit.
SUBSPACE_INVARIANCE = MEMBERSHIP * 10
# Surface relator residual, relative to the prefix scale; every report prints it.
RELATOR = 1e-8
# Module relator, coboundaries, cup-pairing arguments: sums over the 4g letters.
COCYCLE_CHECK = 1e-8 * 10

# Form invariance, for the cup pairing and the lifted Toledo invariant:
# |a^T omega a - omega| relative to |omega| |a|^2, for every module action
# a (the lift also holds |omega + omega^T| / |omega| to it).  The standard
# module's symplectic form and the Killing-valued forms on the adjoint
# module are invariant by construction, up to round-off and the rank
# cutoff of H^0.  Root-module forms are invariant only up to the
# root-space restriction's acceptance, SUBSPACE_INVARIANCE = 1e-7, which
# moves a^T omega a by about twice that; 1e-6 sits about 5x above every case.
FORM_INVARIANCE = 1e-6

# The lifted relator's distance from an integer Toledo invariant, |T - round T|,
# which can reach 1/2.  An exact representation gives 0, and rounding in the
# 4g-letter relator leaves 2.1e-12 at most on the genus-2 catalog and 9.6e-6 on
# perfbench's conjugates (su41-rplane at scale 1.0), except 8.9e-5 (su31-rplane
# at 1.0) and 3.5e-5 (su41-rplane at 0.7), whose root-module relators miss
# COCYCLE_CHECK.  1e-3 accepts them all.  Not a Tolerances field: every report
# prints its tolerances, so a new field would move their bytes.
TOLEDO_LIFT = 1e-3

# Model construction: bracket-closure residual of a classical basis,
# relative to |basis|^2.  Not a Tolerances field: liealg caches each
# model's construction per (family, params) for the whole process, so no
# caller's Tolerances may reach it.  It also stands in for a Jacobi check
# of the structure constants c (bound in liealg._finish_model).  Over the
# 228 groups of positive dimension within the size cap and bracket budget,
# the largest residual is 1.0e-14 (su(p,q), p + q = 4), and the bound keeps
# every Jacobi sum under 1e-10 max(|c|, 1)^2 dim for any value up to
# 8.3e-12 (so(2) and so(1,1); 1.0e-11 at sl(12,R), the tightest of the rest).
MODEL_CLOSURE = 1e-12

# coords' default span residual: the basis is integral, so it only tells in-span from not.
MODEL_SPAN = 1e-8
# Ad(g) span residual: g X g^-1 carries inv(g)'s rounding, a digit over MODEL_SPAN.
ADJOINT_SPAN = 1e-7
# Balanced-LP simplex, run after the rank decisions: rounding bounds of a small dense
# solve for pivots, phase-1 feasibility, the multipliers and the separating functional.
SIMPLEX_PIVOT = 1e-11
SIMPLEX_FEASIBLE = 1e-9
SIMPLEX_MULTIPLIERS = 1e-7
SIMPLEX_SEPARATION = 1e-9
# conjugation_limit's symmetry check on the caller's direction u, not a pipeline decision.
CONJUGATION_SYMMETRY = 1e-10
# correct_relator's stop: four digits under RELATOR, so the result passes.
RELATOR_CORRECTION = 1e-12


class FlexcheckError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FlexcheckError):
    """Malformed problem description or CLI input."""


class NumericalAbort(FlexcheckError):
    """A computation could not be certified at the configured tolerances."""


class Inconclusive(FlexcheckError):
    """The criterion does not apply to this input; the message says why."""


class ExcludedFamilyError(FlexcheckError):
    """Octonionic / exceptional constructions are documented but not computed."""
