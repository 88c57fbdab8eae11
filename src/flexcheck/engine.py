"""P/N classification, the balanced criterion as LP feasibility, verdicts.

The center of the centralizer is balanced when 0 lies in the interior of
conv(Im P) + span(Re N, Im N) inside its dual.  Operationally: quotient
by the span of the N-vectors, then ask whether the projected P-vectors
positively span the quotient, i.e. they span it linearly and some
combination with all weights >= 1 sums to zero.  The weights certify
success; a functional that is nonnegative on every projected P-vector
certifies failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import (DEFAULT, SIMPLEX_FEASIBLE, SIMPLEX_MULTIPLIERS, SIMPLEX_PIVOT,
                     SIMPLEX_SEPARATION, FlexcheckError, Inconclusive, NumericalAbort, Tolerances)
from .liealg import SubalgebraHandle, center_of, centralizer, killing_restriction_nondegenerate
from .linalg import nullspace, numeric_array, orthonormal_columns, rank
from .roots import MIXED, TorusRootDecomposition, check_in_g0, decompose
from .surface import SurfaceRepresentation, adjoint_module
from .toledo import RootFormReport, root_form


@dataclass(frozen=True)
class BalanceProblem:
    dim: int                                  # dimension of c*
    p_vectors: tuple[np.ndarray, ...]         # Im(lambda) for definite imaginary roots
    n_vectors: tuple[np.ndarray, ...]         # Re/Im parts of all other roots


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    multipliers: np.ndarray | None            # weights >= 1 on P-vectors (success)
    separating: np.ndarray | None             # functional >= 0 on projected P (failure)
    quotient_dim: int


def _phase1(a: np.ndarray, b: np.ndarray):
    """Phase-1 simplex for {x >= 0 : a x = b}.

    Returns (feasible, x, farkas_y); on infeasibility y satisfies
    y^T a <= 0 and y^T b > 0.
    """
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    tab = np.hstack([a, np.eye(m)])
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    x_b = b.copy()

    for _ in range(2000):
        y = np.linalg.solve(tab[:, basis].T, cost[basis])
        reduced = cost - y @ tab
        enter = -1
        for j in range(n + m):                  # Bland's rule
            if j not in basis and reduced[j] < -SIMPLEX_PIVOT:
                enter = j
                break
        if enter < 0:
            break
        d = np.linalg.solve(tab[:, basis], tab[:, enter])
        ratios = [(x_b[i] / d[i], basis[i], i) for i in range(m) if d[i] > SIMPLEX_PIVOT]
        if not ratios:
            raise NumericalAbort("phase-1 simplex is unbounded; numerical trouble")
        _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
        basis[leave] = enter
        x_b = np.linalg.solve(tab[:, basis], b)
    else:
        raise NumericalAbort("phase-1 simplex did not terminate")

    objective = float(cost[basis] @ x_b)
    x = np.zeros(n + m)
    x[basis] = x_b
    if objective <= SIMPLEX_FEASIBLE * max(1.0, float(np.abs(b).max(initial=0.0))):
        return True, x[:n], None
    y = np.linalg.solve(tab[:, basis].T, cost[basis])
    y[flip] *= -1.0
    return False, None, y


def balanced(problem: BalanceProblem, tol: Tolerances = DEFAULT) -> BalanceResult:
    """Decide the interior-point criterion with a certificate."""
    r = problem.dim
    if not (isinstance(r, (int, np.integer)) and r >= 0):
        raise FlexcheckError(f"a balance problem needs an integer dim >= 0, got {r!r}")
    vectors = [numeric_array(v, "a P- or N-vector", (r,))
               for v in problem.p_vectors + problem.n_vectors]
    numeric_array(vectors, "the P- and N-vectors", finite=True)        # after every shape
    if r == 0:
        return BalanceResult(True, None, None, 0)
    nmat = np.stack(problem.n_vectors, axis=1) if problem.n_vectors else np.zeros((r, 0))
    span_n = orthonormal_columns(nmat, tol.rank)
    k = r - span_n.shape[1]
    if k == 0:
        return BalanceResult(True, None, None, 0)
    u = nullspace(span_n.T, tol.rank)           # orthonormal basis of the quotient model
    proj = [u.T @ p for p in problem.p_vectors]
    if not proj:
        return BalanceResult(False, None, u[:, 0], k)
    pmat = np.stack(proj, axis=1)               # (k, |P|)
    # floored by the unprojected P: one inside span(N) projects to rounding noise
    pscale = max(float(np.abs(p).max(initial=0.0)) for p in problem.p_vectors)
    if rank(pmat, tol.rank, scale=pscale) < k:
        compl = nullspace(pmat.T, tol.rank, scale=pscale)
        return BalanceResult(False, None, u @ compl[:, 0], k)
    feasible, nu, y = _phase1(pmat, -pmat.sum(axis=1))
    if feasible:
        mu = nu + 1.0
        resid = np.abs(pmat @ mu).max(initial=0.0)
        scale = max(float(np.abs(pmat).max(initial=0.0)), 1.0)
        if resid > SIMPLEX_MULTIPLIERS * scale * max(float(mu.max(initial=1.0)), 1.0):
            raise NumericalAbort(f"balanced certificate fails to verify ({resid:.3e})")
        return BalanceResult(True, mu, None, k)
    f = u @ (-y)
    worst = min(float((-y) @ p) for p in proj)
    if worst < -SIMPLEX_SEPARATION * max(float(np.abs(pmat).max(initial=0.0)), 1.0):
        raise NumericalAbort("separating functional fails to verify")
    return BalanceResult(False, None, f, k)


def classify_PN(
    reports: list[RootFormReport],
) -> tuple[tuple[RootFormReport, ...], list[np.ndarray], BalanceProblem]:
    """Split roots into P (``RootFormReport.in_P``, T > 0 representative) and N.

    Returns the reports in input order, each P member re-selected so its
    form is positive definite; the value tuples of every root in N, its
    whole orbit (2 values, or 4 for a mixed root: distinct, as a root is
    nonzero and a mixed one has nonzero real and imaginary parts); and
    the assembled balance problem.
    """
    selected: list[RootFormReport] = []
    n_values: list[np.ndarray] = []
    p_vectors: list[np.ndarray] = []
    n_vectors: list[np.ndarray] = []
    dim = None
    for rep in reports:
        root = rep.root
        dim = len(root.values)
        if rep.in_P:
            if rep.toledo < 0:
                rep = _negate(rep)
            p_vectors.append(rep.root.values.imag.copy())
        else:
            orbit = [root.values, -root.values]
            if root.classification == MIXED:
                orbit += [root.values.conj(), -root.values.conj()]
            for v in orbit:
                n_values.append(v)
                for part in (v.real, v.imag):
                    if part.any():
                        n_vectors.append(part.copy())
        selected.append(rep)
    problem = BalanceProblem(dim or 0, tuple(p_vectors), tuple(n_vectors))
    return tuple(selected), n_values, problem


def _negate(rep: RootFormReport, values: bool = True) -> RootFormReport:
    """-lambda: Omega, T, values and t_lambda negated.  With ``values=False``
    the values and t_lambda stay: lambda on the negated center vector."""
    root = rep.root
    if values:
        root = replace(root, values=-root.values, t_vector=-root.t_vector)
    return replace(rep, root=replace(root, omega=-root.omega),
                   toledo=None if rep.toledo is None else -rep.toledo)


@dataclass(frozen=True)
class FlexibilityReport:
    verdict: str                                   # "flexible" | "rigid" | "inconclusive"
    centralizer_dim: int
    reductive: bool
    reductive_condition: float
    center_dim: int
    roots: tuple[RootFormReport, ...]              # oriented, P members with T > 0
    balance: BalanceResult | None
    genus_threshold: int
    caveats: tuple[str, ...]
    message: str


TUBE_TYPE_MESSAGE = (
    "rigid: some maximal symplectic root representation persists; the Zariski "
    "closure acts transitively on a tube type Hermitian symmetric space")

NON_REDUCTIVE_MESSAGE = (
    "inconclusive: the Killing form degenerates on the centralizer, "
    "so the Zariski closure is likely non-reductive; apply "
    "conjugation_limit with a suitable direction and retry")


@dataclass(frozen=True, eq=False)
class Pipeline:
    """The decision chain for one representation; each stage runs once, on first use."""

    rep: SurfaceRepresentation
    tol: Tolerances = DEFAULT

    @cached_property
    def z(self) -> SubalgebraHandle:
        """Lie algebra of the centralizer of the image, from the adjoint module's Ad matrices."""
        return centralizer(self.rep.model, self.adjoint, self.tol)

    @cached_property
    def reductivity(self) -> tuple[bool, float]:
        """Killing-form nondegeneracy on the centralizer and its condition number."""
        return killing_restriction_nondegenerate(self.z, self.tol)

    @cached_property
    def center(self) -> SubalgebraHandle:
        """Center of the centralizer; raises Inconclusive if the centralizer is not reductive."""
        if not self.reductivity[0]:
            raise Inconclusive(NON_REDUCTIVE_MESSAGE)
        return center_of(self.z, self.tol)

    @cached_property
    def decomposition(self) -> TorusRootDecomposition:
        """The roots of the center, once the centralizer lies in g_0: every root
        module then has H^0 = H^2 = 0, so h1 = -chi dim (``roots.check_in_g0``)."""
        check_in_g0(self.center, self.z, self.tol)
        return decompose(self.center, self.tol)

    @cached_property
    def adjoint(self) -> np.ndarray:
        """The (2g, dim, dim) stack of Ad of the generator images."""
        return adjoint_module(self.rep)

    @cached_property
    def forms(self) -> tuple[RootFormReport, ...]:
        """Every root's form, on a center vector signed so the first nonzero T is positive.

        The vector's SVD sign picks which of lambda and -lambda names each
        root in ``decompose``, so T would follow LAPACK.  A negative first
        T negates the vector: the printed values stay and name the chosen
        root.  If every T is 0, ``decompose``'s key rule stands, and so
        does a center of dimension >= 2 (no computable catalog case has one).
        """
        forms = tuple(root_form(self.rep, self.adjoint, r, self.tol)
                      for r in self.decomposition.roots)
        if self.center.dim == 1 and next((f.toledo for f in forms if f.toledo), 0) < 0:
            forms = tuple(_negate(f, values=False) for f in forms)
        return forms

    @cached_property
    def split(self) -> tuple[tuple[RootFormReport, ...], list[np.ndarray], BalanceProblem]:
        """``classify_PN`` of the root forms: forms, N values, balance problem."""
        return classify_PN(list(self.forms))

    @cached_property
    def balance(self) -> BalanceResult:
        return balanced(self.split[2], self.tol)


def verdict(rep: SurfaceRepresentation, tol: Tolerances = DEFAULT) -> FlexibilityReport:
    """Full pipeline: centralizer, center, roots, P/N, balanced, verdict."""
    genus = rep.presentation.genus
    threshold = 2 * rep.model.dim ** 2
    caveats = []
    if genus < threshold:
        caveats.append(
            f"genus {genus} is below the theorem threshold 2 dim(G)^2 = {threshold}; "
            "the criterion is evaluated anyway")

    pipe = Pipeline(rep, tol)
    reductive, cond = pipe.reductivity
    if not reductive:
        return FlexibilityReport(
            verdict="inconclusive",
            centralizer_dim=pipe.z.dim, reductive=False, reductive_condition=cond,
            center_dim=-1, roots=(), balance=None,
            genus_threshold=threshold, caveats=tuple(caveats), message=NON_REDUCTIVE_MESSAGE)

    flexible = pipe.balance.balanced
    return FlexibilityReport(
        verdict="flexible" if flexible else "rigid",
        centralizer_dim=pipe.z.dim, reductive=True, reductive_condition=cond,
        center_dim=pipe.center.dim, roots=pipe.split[0], balance=pipe.balance,
        genus_threshold=threshold, caveats=tuple(caveats),
        message="flexible: the center of the centralizer is balanced"
        if flexible else TUBE_TYPE_MESSAGE)
