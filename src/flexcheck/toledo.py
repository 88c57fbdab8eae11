"""Quadratic forms on root cohomology, signatures and Toledo invariants.

For a representation centralizing the torus, each realified root space is
an invariant module; the cup-square pairing valued in Omega_lambda gives a
quadratic form on H^1 whose signature is four times the Toledo invariant
(Meyer's signature formula, used here as the definition of the computed
invariant).  The pipeline reads T from the Gram signature alone, and the
report carries the Milnor-Wood bound 4|T| <= -chi dim it is held to.  Real
roots force T = 0, and so does an invariant Lagrangian pair; the search
for one is a cross-check in the tests (``tests/reference.py``), not a
pipeline stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT, NumericalAbort, Tolerances
from .roots import MIXED, REAL, RootDatum
from .surface import (
    CohomologyWorkspace,
    Module,
    SurfaceRepresentation,
    cohomology,
    cup_pairing,
    restricted_module,
)


@dataclass(frozen=True)
class RootFormReport:
    root: RootDatum | None            # None for a module that is not a root space
    module_dim: int
    h1_dim: int
    milnor_wood_bound: int            # -chi dim: 4|T| may not exceed it
    signature: int | None = None
    toledo: int | None = None
    definite: bool = False
    min_eig_separation: float | None = None   # min |eig| / scale of the real Gram (None for mixed)
    status: str = "ok"                # "ok" | "degenerate"

    @property
    def classification(self) -> str:
        return self.root.classification

    @property
    def milnor_wood_slack(self) -> int | None:
        return None if self.toledo is None else self.milnor_wood_bound - 4 * abs(self.toledo)


def _form_report(ws: CohomologyWorkspace, root: RootDatum | None = None, **fields) -> RootFormReport:
    """A report on ``ws``'s module, with its Milnor-Wood bound -chi dim."""
    bound = -ws.rep.presentation.euler_characteristic * ws.module_dim
    return RootFormReport(root=root, module_dim=ws.module_dim, h1_dim=ws.h1_dim,
                          milnor_wood_bound=bound, **fields)


def gram_matrix(ws: CohomologyWorkspace, omega: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Symmetrized Gram matrix of the omega-valued cup pairing on H^1."""
    gram = cup_pairing(ws, omega, ws.h1, ws.h1, tol)
    return 0.5 * (gram + gram.T)


def root_cohomology(
    rep: SurfaceRepresentation,
    adjoint: Module,
    root: RootDatum,
    tol: Tolerances = DEFAULT,
) -> CohomologyWorkspace:
    """H^* of the realified root space of ``root`` in the adjoint module; aborts if not invariant."""
    mod = restricted_module(adjoint, root.real_basis, tol)
    return cohomology(rep, mod, tol)


def symplectic_form_report(
    ws: CohomologyWorkspace,
    omega: np.ndarray,
    tol: Tolerances = DEFAULT,
) -> RootFormReport:
    """Read T off the cup form of a real invariant symplectic form on H^1.

    The Gram matrix of ``omega``'s cup pairing on ``ws.h1`` is degenerate
    when its smallest |eigenvalue| is within ``tol.gram`` of its largest
    entry (at least 1); the report then has no signature, T or slack.
    Otherwise T is a quarter of the signature, and a signature that 4 does
    not divide, or a violated Milnor-Wood bound 4|T| <= -chi dim, aborts.
    The report's root is None; ``root_form`` fills it in.
    """
    gram = gram_matrix(ws, omega, tol)
    scale = max(float(np.abs(gram).max(initial=0.0)), 1.0)
    ev = np.linalg.eigvalsh(gram)
    sep = float(np.abs(ev).min()) / scale if ev.size else np.inf
    if sep <= tol.gram:
        return _form_report(ws, min_eig_separation=sep, status="degenerate")

    sig = int(np.sum(ev > 0)) - int(np.sum(ev < 0))
    if sig % 4 != 0:
        raise NumericalAbort(f"signature {sig} is not divisible by 4; pipeline inconsistency")
    report = _form_report(ws, signature=sig, toledo=sig // 4,
                          definite=abs(sig) == ws.h1_dim, min_eig_separation=sep)
    if report.milnor_wood_slack < 0:
        raise NumericalAbort(
            f"Milnor-Wood violated: 4|T| = {4 * abs(report.toledo)} > {report.milnor_wood_bound}")
    return report


def root_form(
    ws: CohomologyWorkspace,
    root: RootDatum,
    tol: Tolerances = DEFAULT,
) -> RootFormReport:
    """Build Q_lambda on H^1 of the realified root space and read off T.

    ``ws`` is the cohomology of the root module (see ``root_cohomology``).
    Precondition: H^0 of the root module vanishes; a violation aborts.
    A real or imaginary root is read by ``symplectic_form_report`` from
    the real or imaginary part of Omega_lambda.  A mixed root is never in
    P: it enters the balanced test through its values alone, so its
    report builds no form.
    """
    if ws.h0_dim != 0:
        raise NumericalAbort(
            "H^0 is nonzero on a nonzero root space; the torus is not the "
            "center of the centralizer of this representation")

    if root.classification == MIXED:
        return _form_report(ws, root)

    omega_real = root.omega.real if root.classification == REAL else root.omega.imag
    return replace(symplectic_form_report(ws, omega_real, tol), root=root)
