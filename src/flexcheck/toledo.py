"""Quadratic forms on root cohomology, signatures and Toledo invariants.

For a representation centralizing the torus, each realified root space is
an invariant module; the cup-square pairing valued in Omega_lambda gives a
quadratic form on H^1 whose signature is four times the Toledo invariant
(Meyer's signature formula, used here as the definition of the computed
invariant).  Real roots force T = 0; an invariant Lagrangian pair also
forces T = 0 and is verified directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, NumericalAbort, Tolerances
from .linalg import complex_half_basis, orthonormal_columns, rank
from .roots import MIXED, REAL, RootDatum
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
    root: RootDatum
    module_dim: int
    h1_dim: int
    gram: np.ndarray | None           # real symmetric Gram matrix (None for mixed)
    gram_complex: np.ndarray | None   # complex-bilinear Gram (mixed roots)
    signature: int | None
    toledo: int | None
    definite: bool
    milnor_wood_slack: int | None
    min_eig_separation: float         # min |eig| / scale of the real Gram
    status: str                       # "ok" | "degenerate"
    lagrangian_note: str | None = None

    @property
    def classification(self) -> str:
        return self.root.classification


def gram_matrix(ws: CohomologyWorkspace, omega: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Symmetrized Gram matrix of the omega-valued cup pairing on H^1."""
    h = ws.h1
    k = h.shape[1]
    out = np.zeros((k, k), dtype=complex if np.iscomplexobj(omega) else float)
    for i in range(k):
        for j in range(i, k):
            out[i, j] = cup_pairing(ws, omega, h[:, i], h[:, j], tol)
            if j > i:
                out[j, i] = cup_pairing(ws, omega, h[:, j], h[:, i], tol)
    return 0.5 * (out + out.T)


def root_cohomology(
    rep: SurfaceRepresentation,
    adjoint: Module,
    root: RootDatum,
    tol: Tolerances = DEFAULT,
) -> CohomologyWorkspace:
    """H^* of the realified root space of ``root`` in the adjoint module; aborts if not invariant."""
    mod = restricted_module(adjoint, root.real_basis, tol=tol.membership * 10)
    return cohomology(rep, mod, tol)


def root_form(
    ws: CohomologyWorkspace,
    root: RootDatum,
    tol: Tolerances = DEFAULT,
) -> RootFormReport:
    """Build Q_lambda on H^1 of the realified root space and read off T.

    ``ws`` is the cohomology of the root module (see ``root_cohomology``).
    Precondition: H^0 of the root module vanishes; a violation aborts.
    """
    if ws.h0_dim != 0:
        raise NumericalAbort(
            "H^0 is nonzero on a nonzero root space; the torus is not the "
            "center of the centralizer of this representation")
    chi = ws.rep.presentation.euler_characteristic
    mdim = root.real_dim

    if root.classification == MIXED:
        gramc = gram_matrix(ws, root.omega, tol)
        # J acts on cohomology classes; nondegeneracy of a J-bilinear form
        # is read off a complex half basis, not the full real Gram.
        j_coch = np.kron(np.eye(ws.rep.presentation.generator_count), root.j_matrix)
        j_cls = ws.h1.T @ j_coch @ ws.h1
        half = complex_half_basis(j_cls)
        half_gram = half.T @ gramc @ half
        s = np.linalg.svd(half_gram, compute_uv=False)
        sep = float(s[-1] / max(s[0], 1e-300)) if s.size else 0.0
        status = "ok" if (s.size and s[-1] > tol.gram * s[0]) else "degenerate"
        if status != "ok":
            raise NumericalAbort("complex-bilinear root form is numerically degenerate")
        return RootFormReport(
            root=root, module_dim=mdim, h1_dim=ws.h1_dim, gram=None,
            gram_complex=gramc, signature=None, toledo=None, definite=False,
            milnor_wood_slack=None, min_eig_separation=sep, status=status)

    omega_real = root.omega.real if root.classification == REAL else root.omega.imag
    gram = gram_matrix(ws, omega_real, tol)
    scale = max(float(np.abs(gram).max(initial=0.0)), 1.0)
    ev = np.linalg.eigvalsh(gram)
    sep = float(np.abs(ev).min()) / scale if ev.size else np.inf
    if sep <= tol.gram:
        return RootFormReport(
            root=root, module_dim=mdim, h1_dim=ws.h1_dim, gram=gram,
            gram_complex=None, signature=None, toledo=None, definite=False,
            milnor_wood_slack=None, min_eig_separation=sep, status="degenerate")

    sig = int(np.sum(ev > 0)) - int(np.sum(ev < 0))
    if sig % 4 != 0:
        raise NumericalAbort(f"signature {sig} is not divisible by 4; pipeline inconsistency")
    toledo = sig // 4
    slack = -chi * mdim - 4 * abs(toledo)
    if slack < 0:
        raise NumericalAbort(
            f"Milnor-Wood violated: 4|T| = {4 * abs(toledo)} > {-chi * mdim}")
    definite = abs(sig) == ws.h1_dim
    return RootFormReport(
        root=root, module_dim=mdim, h1_dim=ws.h1_dim, gram=gram,
        gram_complex=None, signature=sig, toledo=toledo, definite=definite,
        milnor_wood_slack=slack, min_eig_separation=sep, status="ok")


def milnor_wood_check(report: RootFormReport) -> int:
    """Slack of the Milnor-Wood inequality; negative slack is a pipeline bug."""
    if report.milnor_wood_slack is None:
        raise NumericalAbort("no Milnor-Wood slack for this root (mixed or degenerate)")
    if report.milnor_wood_slack < 0:
        raise NumericalAbort("negative Milnor-Wood slack")
    return report.milnor_wood_slack


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
    joint = np.hstack([l1, l2])
    if rank(joint, DEFAULT.rank) != m:
        return False
    scale = max(float(np.abs(omega).max(initial=0.0)), 1.0)
    for sub in (l1, l2):
        if np.abs(sub.T @ omega @ sub).max(initial=0.0) > 1e-8 * scale:
            return False
        on = orthonormal_columns(sub)
        for a in module.actions:
            moved = a @ on
            resid = np.abs(moved - on @ (on.T @ moved)).max(initial=0.0)
            if resid > tol.membership * 10 * max(float(np.abs(moved).max(initial=0.0)), 1.0):
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
    from .linalg import nullspace as _ns
    comm = _ns(np.vstack(rows), tol.rank)       # vectorized commutant
    if comm.shape[1] == 0:
        return None
    for _ in range(tries):
        coeff = rng.standard_normal(comm.shape[1])
        k = (comm @ coeff).reshape(m, m)        # invariant operator
        ev, vecs = np.linalg.eig(k)
        real_mask = np.abs(ev.imag) < 1e-9 * max(np.abs(ev).max(), 1.0)
        reals = np.unique(np.round(ev[real_mask].real, 7))
        # split eigenvalues into two groups along each cut between real values
        for cut in reals[:-1]:
            sel = ev.real <= cut + 1e-9
            l1 = orthonormal_columns(vecs[:, sel].real) if sel.any() else None
            l2 = orthonormal_columns(vecs[:, ~sel].real) if (~sel).any() else None
            if l1 is None or l2 is None:
                continue
            if l1.shape[1] == l2.shape[1] == m // 2:
                if lagrangian_pair_check(module, omega, l1, l2, tol):
                    return l1, l2
    return None
