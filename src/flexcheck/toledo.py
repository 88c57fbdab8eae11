"""Quadratic forms on root cohomology, signatures and Toledo invariants.

For a representation centralizing the torus, each realified root space is
an invariant module; the cup-square pairing valued in Omega_lambda gives a
quadratic form on H^1 whose signature is four times the Toledo invariant
(Meyer's signature formula, used here as the definition of the computed
invariant).  The pipeline reads T from the Gram signature alone.  Real
roots force T = 0, and so does an invariant Lagrangian pair:
``scan_invariant_lagrangians`` and ``lagrangian_pair_check`` look for and
check one, as a cross-check outside the pipeline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT, NumericalAbort, Tolerances
from .linalg import nullspace, orthonormal_columns, rank
from .roots import MIXED, REAL, RootDatum, _real_span_basis
from .surface import (
    CohomologyWorkspace,
    Module,
    SurfaceRepresentation,
    cohomology,
    cup_pairing,
    restricted_module,
)


def signature(mat: np.ndarray, tol: float = DEFAULT.gram) -> int:
    """Signature of a symmetric matrix; warns on near-zero eigenvalues."""
    mat = np.asarray(mat, dtype=float)
    scale = max(float(np.abs(mat).max(initial=0.0)), 1.0)
    if np.abs(mat - mat.T).max(initial=0.0) > 1e-8 * scale:
        raise NumericalAbort("signature needs a symmetric matrix")
    ev = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    band = tol * scale
    degenerate = int(np.sum(np.abs(ev) <= band))
    if degenerate:
        warnings.warn(f"{degenerate} eigenvalue(s) inside the degeneracy band", stacklevel=2)
    return int(np.sum(ev > band)) - int(np.sum(ev < -band))


@dataclass(frozen=True)
class RootFormReport:
    root: RootDatum | None            # None for a module that is not a root space
    module_dim: int
    h1_dim: int
    gram: np.ndarray | None           # real symmetric Gram matrix (None for mixed)
    signature: int | None
    toledo: int | None
    definite: bool
    milnor_wood_slack: int | None
    min_eig_separation: float | None  # min |eig| / scale of the real Gram (None for mixed)
    status: str                       # "ok" | "degenerate"

    @property
    def classification(self) -> str:
        return self.root.classification


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
    mod = restricted_module(adjoint, root.real_basis, tol=tol.membership * 10)
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
    chi = ws.rep.presentation.euler_characteristic
    mdim = ws.module_dim
    gram = gram_matrix(ws, omega, tol)
    scale = max(float(np.abs(gram).max(initial=0.0)), 1.0)
    ev = np.linalg.eigvalsh(gram)
    sep = float(np.abs(ev).min()) / scale if ev.size else np.inf
    if sep <= tol.gram:
        return RootFormReport(
            root=None, module_dim=mdim, h1_dim=ws.h1_dim, gram=gram,
            signature=None, toledo=None, definite=False,
            milnor_wood_slack=None, min_eig_separation=sep, status="degenerate")

    sig = int(np.sum(ev > 0)) - int(np.sum(ev < 0))
    if sig % 4 != 0:
        raise NumericalAbort(f"signature {sig} is not divisible by 4; pipeline inconsistency")
    toledo = sig // 4
    slack = -chi * mdim - 4 * abs(toledo)
    if slack < 0:
        raise NumericalAbort(
            f"Milnor-Wood violated: 4|T| = {4 * abs(toledo)} > {-chi * mdim}")
    return RootFormReport(
        root=None, module_dim=mdim, h1_dim=ws.h1_dim, gram=gram,
        signature=sig, toledo=toledo, definite=abs(sig) == ws.h1_dim,
        milnor_wood_slack=slack, min_eig_separation=sep, status="ok")


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
        return RootFormReport(
            root=root, module_dim=ws.module_dim, h1_dim=ws.h1_dim, gram=None,
            signature=None, toledo=None, definite=False,
            milnor_wood_slack=None, min_eig_separation=None, status="ok")

    omega_real = root.omega.real if root.classification == REAL else root.omega.imag
    return replace(symplectic_form_report(ws, omega_real, tol), root=root)


def lagrangian_pair_check(
    module: Module,
    omega: np.ndarray,
    l1: np.ndarray,
    l2: np.ndarray,
    tol: Tolerances = DEFAULT,
) -> bool:
    """True iff l1, l2 are complementary, omega-isotropic and invariant.

    l1, l2 are column bases inside the module's coordinate space; omega is
    the real symplectic form on that space.
    """
    m = module.dim
    if l1.shape[0] != m or l2.shape[0] != m:
        raise NumericalAbort("Lagrangian candidate dimensions do not match the module")
    if l1.shape[1] + l2.shape[1] != m:
        return False
    if rank(np.hstack([l1, l2]), tol.rank) != m:
        return False
    scale = max(float(np.abs(omega).max(initial=0.0)), 1.0)
    for sub in (l1, l2):
        if np.abs(sub.T @ omega @ sub).max(initial=0.0) > 1e-8 * scale:
            return False
        try:
            restricted_module(module, orthonormal_columns(sub, tol.rank), tol.membership * 10)
        except NumericalAbort:
            return False
    return True


def scan_invariant_lagrangians(
    module: Module,
    omega: np.ndarray,
    rng: np.random.Generator,
    tries: int = 12,
    tol: Tolerances = DEFAULT,
):
    """Heuristic search for an invariant Lagrangian pair.

    Draws random elements of the module's commutant and tests splittings
    of the space into sums of their eigenspaces.  Returns (l1, l2) or
    None; absence of a find is not a proof of absence.
    """
    m = module.dim
    rows = []
    for a in module.actions:
        rows.append(np.kron(np.eye(m), a) - np.kron(a.T, np.eye(m)))
    comm = nullspace(np.vstack(rows), tol.rank)  # vectorized commutant
    if comm.shape[1] == 0:
        return None
    for _ in range(tries):
        coeff = rng.standard_normal(comm.shape[1])
        k = (comm @ coeff).reshape(m, m)        # invariant operator
        ev, vecs = np.linalg.eig(k)
        real_mask = np.abs(ev.imag) < 1e-9 * max(np.abs(ev).max(), 1.0)
        rounded = np.round(ev.real, 7)
        reals = np.unique(rounded[real_mask])
        # split along each cut between real values: the real eigenvalues up
        # to the cut against the rest; a repeated real eigenvalue may come
        # with complex eigenvectors, so each side is the span of real and
        # imaginary parts
        for cut in reals[:-1]:
            sel = real_mask & (rounded <= cut)
            l1, l2 = (_real_span_basis(v, tol.rank) for v in (vecs[:, sel], vecs[:, ~sel]))
            if l1.shape[1] == l2.shape[1] == m // 2:
                if lagrangian_pair_check(module, omega, l1, l2, tol):
                    return l1, l2
    return None
