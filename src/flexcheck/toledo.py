"""Toledo invariants of root modules, from the relator lifted to the universal cover.

For a representation centralizing the torus, each realified root space is
an invariant module.  A real or imaginary root carries a real invariant
symplectic form omega, the real or imaginary part of Omega_lambda, so its
module acts through Sp(omega).  Its Toledo invariant T is the rotation
number of the relator lifted to the universal cover of Sp(2n, R)
(Burger-Iozzi-Wienhard 2010), read off the cocycle of that cover in the
complex picture (Rawnsley 2012); no cohomology is computed.  Once the
centralizer lies in g_0 (``roots.check_in_g0``), H^0 and H^2 of a root
module vanish, so h1 = -chi dim by the Euler characteristic (Goldman
1984), and 4|T| <= -chi dim is the Milnor-Wood bound the report is held
to.  Real roots force T = 0, and so does an invariant Lagrangian pair;
the search for one is a cross-check in the tests (``tests/reference.py``).

``symplectic_form_report`` reads T the older way, as a quarter of the
signature of the omega-valued cup-square form on H^1 (Meyer's signature
formula).  It serves ``flexcheck toledo --standard-module``, and the
tests hold the lift to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import (DEFAULT, FORM_INVARIANCE, TOLEDO_LIFT, FlexcheckError, NumericalAbort,
                     Tolerances)
from .linalg import relative_residual, singular_rank
from .roots import IMAGINARY, MIXED, REAL, RootDatum
from .surface import (
    CohomologyWorkspace,
    SurfaceGroupPresentation,
    SurfaceRepresentation,
    action_stack,
    check_invariant_form,
    cup_pairing,
    restricted_module,
)


@dataclass(frozen=True)
class RootFormReport:
    root: RootDatum | None            # None for a module that is not a root space
    real_dim: int                     # the module's real dimension
    h1_dim: int
    milnor_wood_bound: int            # -chi dim: 4|T| may not exceed it
    toledo: int | None = None
    lift_margin: float | None = None  # |T - round T| of the lifted relator (root forms)
    min_eig_separation: float | None = None   # min |eig| / scale of the real Gram (Gram reader)
    status: str = "ok"                # "ok" | "degenerate"

    @property
    def classification(self) -> str | None:
        return None if self.root is None else self.root.classification

    @property
    def signature(self) -> int | None:
        """Signature of the cup form on H^1, which is 4T."""
        return None if self.toledo is None else 4 * self.toledo

    @property
    def definite(self) -> bool:
        """Whether the cup form on H^1 is definite: 4|T| = h^1."""
        return self.toledo is not None and 4 * abs(self.toledo) == self.h1_dim

    @property
    def milnor_wood_slack(self) -> int | None:
        return None if self.toledo is None else self.milnor_wood_bound - 4 * abs(self.toledo)

    @property
    def in_P(self) -> bool:
        """Whether the root is in P: imaginary, with a definite cup form."""
        return self.classification == IMAGINARY and self.definite


def _within_milnor_wood(report: RootFormReport) -> RootFormReport:
    """``report``, unless its T breaks the Milnor-Wood bound 4|T| <= -chi dim."""
    if report.milnor_wood_slack is not None and report.milnor_wood_slack < 0:
        raise NumericalAbort(
            f"Milnor-Wood violated: 4|T| = {4 * abs(report.toledo)} > {report.milnor_wood_bound}")
    return report


def _complex_picture(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P and Q of each [[A, B], [C, D]] in a (K, 2n, 2n) stack: in the coordinates
    z = x + iy it acts as z -> P z + Q conj(z)."""
    a, b, c, d = x[:, :n, :n], x[:, :n, n:], x[:, n:, :n], x[:, n:, n:]
    return 0.5 * (a + d + 1j * (c - b)), 0.5 * (a - d + 1j * (c + b))


def lifted_toledo(
    actions,
    omega: np.ndarray,
    presentation: SurfaceGroupPresentation,
    tol: Tolerances = DEFAULT,
) -> tuple[int, float]:
    """T of a symplectic module, the rotation number of its lifted relator, and its margin.

    ``actions`` is the (2g, 2n, 2n) stack of generator actions and
    ``omega`` a real alternating form that they preserve, both to
    ``FORM_INVARIANCE``.  The Darboux basis S, with
    S^T omega S = J0 = [[0, I], [-I, 0]], comes from
    ``eigh`` of i omega: each positive eigenvalue l with eigenvector v
    gives e = Im v sqrt(2/l) and f = Re v sqrt(2/l).  In S's coordinates
    an action is M = -J0 S^T omega A S, with complex picture
    [[P, Q], [conj Q, conj P]] (``_complex_picture``).  The cover's
    cocycle is eta(M, N) = sum_i arg(1 + mu_i), the mu_i the eigenvalues of
    P_M^-1 Q_M conj(Q_N) P_N^-1, all inside the unit disk.  An inverse
    letter is the exact symplectic inverse -J0 M^T J0, whose P is P_M^H:
    then I + X = (P_M^H P_M)^-1 is positive definite, eta(M, M^-1) = 0,
    and each generator's own phase cancels its inverse's.  So
    2 pi T = sum_k eta(R_(k-1), L_k) over the relator's letters L_k,
    k = 2..4g, with R_k the product of the first k: one loop over the
    prefixes, one batched ``solve`` and one batched ``eigvals``.

    The margin is |T - round T|, 0 for an exact representation; one above
    ``TOLEDO_LIFT`` aborts.  A wrong stack shape, an odd module dimension
    or an omega that is not a real matrix of the module's size raises
    FlexcheckError.  An omega that is not alternating or that the actions
    do not preserve aborts, and so does a degenerate one, where ``eigh``
    does not give n eigenvalues of each sign clear of the rank cut.
    """
    acts = action_stack(actions, presentation.generator_count)
    m = acts.shape[-1]
    omega = np.asarray(omega)
    if omega.shape != (m, m) or m % 2 or omega.dtype.kind not in "biuf":
        raise FlexcheckError(f"need a real ({m}, {m}) form on an even-dimensional module, "
                             f"got {omega.dtype} of shape {omega.shape}")
    if relative_residual(omega + omega.T, omega) > FORM_INVARIANCE:
        raise NumericalAbort("the lifted Toledo invariant needs an alternating form")
    check_invariant_form(acts, omega)
    n = m // 2
    lam, vecs = np.linalg.eigh(1j * omega)               # ascending, in +- pairs
    if singular_rank(np.sort(np.abs(lam))[::-1], tol.rank) < m:
        raise NumericalAbort("the module's symplectic form is degenerate")
    half = np.sqrt(2.0 / lam[n:])
    darboux = np.hstack([vecs[:, n:].imag * half, vecs[:, n:].real * half])
    j0 = np.eye(m, k=n) - np.eye(m, k=-n)
    gens = j0.T @ (darboux.T @ omega) @ acts @ darboux      # S^-1 A S, as J0^-1 = J0^T
    invs = j0.T @ np.swapaxes(gens, 1, 2) @ j0
    index, signs = np.array(presentation.letters).T
    letters = np.where((signs > 0)[:, None, None], gens[index], invs[index])
    prefixes = [letters[0]]                               # R_1 .. R_(4g-1)
    for letter in letters[1:-1]:
        prefixes.append(prefixes[-1] @ letter)
    p, q = _complex_picture(np.concatenate([prefixes, letters[1:]]), n)
    k = len(prefixes)
    try:
        # P_A^-1 Q_A conj(Q_B) P_B^-1 is similar to (P_A P_B)^-1 Q_A conj(Q_B)
        mu = np.linalg.eigvals(np.linalg.solve(p[:k] @ p[k:], q[:k] @ q[k:].conj()))
    except np.linalg.LinAlgError as exc:
        raise NumericalAbort(f"the lifted relator is undefined: {exc}") from exc
    turns = float(np.angle(1.0 + mu).sum()) / (2.0 * np.pi)
    if not np.isfinite(turns):
        raise NumericalAbort("the lifted relator is not finite")
    toledo = round(turns)
    margin = abs(turns - toledo)
    if margin > TOLEDO_LIFT:
        raise NumericalAbort(f"the lifted relator is {margin:.3e} turns from an integer "
                             f"Toledo invariant (bound {TOLEDO_LIFT:.0e})")
    return toledo, margin


def root_form(
    rep: SurfaceRepresentation,
    adjoint: np.ndarray,
    root: RootDatum,
    tol: Tolerances = DEFAULT,
) -> RootFormReport:
    """T of a root's module, read from its lifted relator, with h1 = -chi dim.

    ``adjoint`` is the (2g, dim, dim) stack of Ad of the generator images;
    ``restricted_module`` cuts the root's module from it, and aborts
    unless the root space is invariant.  Precondition: the centralizer
    lies in g_0 (``roots.check_in_g0``), so the module's H^0 and H^2
    vanish.  A real or imaginary root is read by ``lifted_toledo`` from
    the real or imaginary part of Omega_lambda, and a violated Milnor-Wood
    bound aborts.  A mixed root is never in P: it enters the balanced test
    through its values alone, so its report has no T.
    """
    module = restricted_module(adjoint, root.real_basis, tol)
    h1 = -rep.presentation.euler_characteristic * root.real_dim
    report = RootFormReport(root=root, real_dim=root.real_dim, h1_dim=h1, milnor_wood_bound=h1)
    if root.classification == MIXED:
        return report
    omega = root.omega.real if root.classification == REAL else root.omega.imag
    toledo, margin = lifted_toledo(module, omega, rep.presentation, tol)
    return _within_milnor_wood(replace(report, toledo=toledo, lift_margin=margin))


def gram_matrix(ws: CohomologyWorkspace, omega: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Symmetrized Gram matrix of the omega-valued cup pairing on H^1."""
    gram = cup_pairing(ws, omega, ws.h1, ws.h1, tol)
    return 0.5 * (gram + gram.T)


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
    The report's root is None.
    """
    bound = -ws.rep.presentation.euler_characteristic * ws.module_dim
    report = RootFormReport(root=None, real_dim=ws.module_dim, h1_dim=ws.h1_dim,
                            milnor_wood_bound=bound)
    gram = gram_matrix(ws, omega, tol)
    scale = max(float(np.abs(gram).max(initial=0.0)), 1.0)
    ev = np.linalg.eigvalsh(gram)
    sep = float(np.abs(ev).min()) / scale if ev.size else np.inf
    if sep <= tol.gram:
        return replace(report, min_eig_separation=sep, status="degenerate")

    sig = int(np.sum(ev > 0)) - int(np.sum(ev < 0))
    if sig % 4 != 0:
        raise NumericalAbort(f"signature {sig} is not divisible by 4; pipeline inconsistency")
    return _within_milnor_wood(replace(report, toledo=sig // 4, min_eig_separation=sep))
