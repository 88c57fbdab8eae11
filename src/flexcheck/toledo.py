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

``standard_form`` reads the standard module of a representation into
Sp(2n, R) the same way.  Its H^0 need not vanish, but omega makes the
module self-dual, so h2 = h0 and h1 = 2 h0 - chi m by Poincare
duality (Goldman 1984, section 1), with no basis of H^1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import (DEFAULT, FORM_INVARIANCE, TOLEDO_LIFT, FlexcheckError, NumericalAbort,
                     Tolerances)
from .linalg import numeric_array, object_argument, rank, relative_residual, singular_rank
from .roots import IMAGINARY, MIXED, REAL, RootDatum
from .surface import (
    SurfaceGroupPresentation,
    SurfaceRepresentation,
    action_stack,
    check_invariant_form,
    check_module_relator,
    relator_prefixes,
    restricted_module,
)


@dataclass(frozen=True)
class RootFormReport:
    root: RootDatum | None            # None for a module that is not a root space
    real_dim: int                     # the module's real dimension
    h1_dim: int
    milnor_wood_bound: int            # -chi dim: 4|T| may not exceed it
    toledo: int | None = None
    lift_margin: float | None = None  # |T - round T| of the lifted relator

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
    ``FORM_INVARIANCE``.  Precondition: the relator acts as I
    (``surface.check_module_relator``).  The lift does not check it: a
    relator of -I, as a central lift has, still reads as an integer.  The
    Darboux basis S, with S^T omega S = J0 = [[0, I], [-I, 0]], comes from
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
    k = 2..4g, with R_k the product of the first k from
    ``surface.relator_prefixes`` with these inverses: one walk of the
    relator, one batched ``solve`` and one batched ``eigvals``.

    The margin is |T - round T|, 0 for an exact representation; one above
    ``TOLEDO_LIFT`` aborts.  A wrong stack shape, an odd module dimension
    or an omega that is not a real matrix of the module's size raises
    FlexcheckError.  An omega that is not alternating or that the actions
    do not preserve aborts, and so does a degenerate one, where ``eigh``
    does not give n eigenvalues of each sign clear of the rank cut.
    """
    object_argument(presentation, SurfaceGroupPresentation, "presentation")
    object_argument(tol, Tolerances, "tol")
    acts = action_stack(actions, presentation.generator_count)
    m = acts.shape[-1]
    omega = numeric_array(omega, "the module's symplectic form", (m, m))
    if m % 2:
        raise FlexcheckError(f"a symplectic module is even-dimensional, got dimension {m}")
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
    index, signs = presentation.letter_columns
    letters = np.where((signs > 0)[:, None, None], gens[index], invs[index])
    prefixes = relator_prefixes(presentation, gens, invs)[1:-1]     # R_1 .. R_(4g-1)
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
    object_argument(rep, SurfaceRepresentation, "rep")
    object_argument(root, RootDatum, "root")
    object_argument(tol, Tolerances, "tol")
    module = restricted_module(adjoint, root.real_basis)
    h1 = -rep.presentation.euler_characteristic * root.real_dim
    report = RootFormReport(root=root, real_dim=root.real_dim, h1_dim=h1, milnor_wood_bound=h1)
    if root.classification == MIXED:
        return report
    omega = root.omega.real if root.classification == REAL else root.omega.imag
    toledo, margin = lifted_toledo(module, omega, rep.presentation, tol)
    return _within_milnor_wood(replace(report, toledo=toledo, lift_margin=margin))


def standard_form(rep: SurfaceRepresentation, tol: Tolerances = DEFAULT) -> RootFormReport:
    """T of the standard module of ``rep``, against its group's own form, with h1 by a count.

    The form omega is the model's: J2 = [[0, 1], [-1, 0]] for sl(2,R) and
    ``model.form`` for sp(2n,R); any other group raises FlexcheckError.
    The module's relator must act as I (``check_module_relator``): the
    lift cannot tell a relator of -I, a central lift's, from I.  h0 is
    the nullity of the stacked A_s - I, cut as in ``surface.cohomology``;
    omega makes the module self-dual, so h2 = h0 and h1 = 2 h0 - chi m.
    T is ``lifted_toledo``'s, and a violated Milnor-Wood bound aborts.
    The report's root is None.
    """
    object_argument(rep, SurfaceRepresentation, "rep")
    object_argument(tol, Tolerances, "tol")
    model = rep.model
    if model.family == "spr":
        omega = model.form
    elif model.family == "sl" and model.ambient == 2:
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    else:
        raise FlexcheckError(
            f"the standard module needs an sl(2,R) or sp(2n,R) ambient group, got {model.name}")
    pres = rep.presentation
    acts = action_stack(rep.images, pres.generator_count)
    check_module_relator(relator_prefixes(pres, acts))
    m = acts.shape[-1]
    h0 = m - rank((acts - np.eye(m)).reshape(-1, m), tol.rank, scale=1.0)
    bound = -pres.euler_characteristic * m
    toledo, margin = lifted_toledo(acts, omega, pres, tol)
    return _within_milnor_wood(RootFormReport(root=None, real_dim=m, h1_dim=2 * h0 + bound,
                                              milnor_wood_bound=bound, toledo=toledo,
                                              lift_margin=margin))
