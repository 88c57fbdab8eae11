"""Shared tolerances, seeding and error types."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

DEFAULT_SEED_ENV = "FLEXCHECK_SEED"


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the pipeline.

    All cutoffs are relative: ``rank`` against the largest singular value,
    ``cluster`` against the largest operator norm, the rest against the
    natural scale of the quantity they gate.
    """

    rank: float = 1e-9          # singular values below rank * sigma_max count as zero
    cluster: float = 1e-7       # joint eigenvalues closer than this merge
    closure: float = 1e-9       # bracket-closure residual for subalgebras
    membership: float = 1e-8    # group defining-relation residual
    relator: float = 1e-8       # surface relator residual
    cocycle: float = 1e-8       # relator-map residual for cocycles
    gram: float = 1e-6          # Gram eigenvalue separation from zero
    seed: int = 0

    def with_seed(self, seed: int) -> "Tolerances":
        return replace(self, seed=seed)


DEFAULT = Tolerances()

# Cup-pairing form invariance: |a^T omega a - omega| relative to
# |omega| |a|^2, for every module action a.  The standard module's
# symplectic form and the Killing-valued forms on the adjoint module are
# invariant by construction, up to round-off and the rank cutoff of H^0.
# Root-module forms are invariant only up to the root-space restriction's
# acceptance, membership * 10 = 1e-7, which moves a^T omega a by about
# twice that; 1e-6 sits about 5x above every case.
FORM_INVARIANCE = 1e-6

# Model construction: bracket-closure residual of a classical basis,
# relative to |basis|^2.  Not a Tolerances field: liealg caches each
# model's construction per (family, params) for the whole process, so no
# caller's Tolerances may reach it.
MODEL_CLOSURE = 1e-9

# Model construction: Jacobi residual of the structure constants, relative
# to max(|c|, 1)^2 * dim.  Not a Tolerances field, for the same reason as
# MODEL_CLOSURE: the cached construction never sees a caller's Tolerances.
MODEL_JACOBI = 1e-10


def seed_from_env(default: int = 0) -> int:
    raw = os.environ.get(DEFAULT_SEED_ENV)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{DEFAULT_SEED_ENV} must be an integer, got {raw!r}")


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
