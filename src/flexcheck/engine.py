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

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import (DEFAULT, SIMPLEX_FEASIBLE, SIMPLEX_MULTIPLIERS, SIMPLEX_PIVOT,
                     SIMPLEX_SEPARATION, Inconclusive, NumericalAbort, Tolerances)
from .liealg import SubalgebraHandle, center_of, centralizer, killing_restriction_nondegenerate
from .linalg import nullspace, orthonormal_columns, rank, value_key
from .roots import IMAGINARY, MIXED, TorusRootDecomposition, decompose
from .surface import CohomologyWorkspace, Module, SurfaceRepresentation, adjoint_module
from .toledo import RootFormReport, root_cohomology, root_form


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

    def certificate(self) -> dict:
        if self.balanced:
            mult = None if self.multipliers is None else [float(x) for x in self.multipliers]
            return {"kind": "multipliers", "multipliers": mult}
        return {"kind": "separating_functional",
                "functional": [float(x) for x in self.separating]}


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
    if r == 0:
        return BalanceResult(True, None, None, 0)
    nmat = (np.stack(problem.n_vectors, axis=1)
            if problem.n_vectors else np.zeros((r, 0)))
    span_n = orthonormal_columns(nmat, tol.rank)
    k = r - span_n.shape[1]
    if k == 0:
        return BalanceResult(True, None, None, 0)
    if span_n.shape[1]:
        u = nullspace(span_n.T, tol.rank)       # orthonormal basis of the quotient model
    else:
        u = np.eye(r)
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
    tol: Tolerances = DEFAULT,
) -> tuple[list[RootFormReport], list[bool], list[np.ndarray], BalanceProblem]:
    """Split roots into P (definite imaginary, T > 0 representative) and N.

    Returns the reports in input order, each P member re-selected so its
    form is positive definite; one flag per report, true for the P
    members; the value tuples of every root in N; and the assembled
    balance problem.
    """
    for rep in reports:
        if rep.status != "ok":
            raise NumericalAbort(
                "a root form is numerically indefinite; P-membership is uncertain")
    selected: list[RootFormReport] = []
    in_p: list[bool] = []
    n_values: list[np.ndarray] = []
    p_vectors: list[np.ndarray] = []
    n_vectors: list[np.ndarray] = []
    dim = None
    for rep in reports:
        root = rep.root
        dim = len(root.values)
        member = rep.classification == IMAGINARY and rep.definite
        if member:
            if rep.toledo < 0:
                rep = _flip_representative(rep)
            p_vectors.append(rep.root.values.imag.copy())
        else:
            orbit = [root.values, -root.values]
            if root.classification == MIXED:
                orbit += [root.values.conj(), -root.values.conj()]
            seen = set()
            for v in orbit:
                key = value_key(v)
                if key in seen:
                    continue
                seen.add(key)
                n_values.append(v)
                for part in (v.real, v.imag):
                    if np.abs(part).max(initial=0.0) > tol.cluster:
                        n_vectors.append(part.copy())
        selected.append(rep)
        in_p.append(member)
    problem = BalanceProblem(dim or 0, tuple(p_vectors), tuple(n_vectors))
    return selected, in_p, n_values, problem


def _flip_representative(rep: RootFormReport) -> RootFormReport:
    """Replace lambda by -lambda: Omega and the form change sign."""
    root = rep.root
    flipped_root = replace(root, values=-root.values, t_vector=-root.t_vector, omega=-root.omega)
    return replace(
        rep,
        root=flipped_root,
        signature=None if rep.signature is None else -rep.signature,
        toledo=None if rep.toledo is None else -rep.toledo,
    )


def _orient(rep: RootFormReport, sign: int) -> RootFormReport:
    """``rep`` after the center's basis vector is multiplied by ``sign``.

    For -1 the root is lambda's negative, whose values on the negated
    vector are the same numbers as lambda's on the old one.
    """
    if sign > 0:
        return rep
    flipped = _flip_representative(rep)
    return replace(flipped, root=replace(flipped.root, values=rep.root.values,
                                         t_vector=rep.root.t_vector))


@dataclass(frozen=True)
class RootSummary:
    values: list                       # complex values on the torus basis
    classification: str
    real_dim: int
    h1_dim: int
    signature: int | None
    toledo: int | None
    definite: bool
    milnor_wood_slack: int | None
    in_P: bool


@dataclass(frozen=True)
class FlexibilityReport:
    verdict: str                                   # "flexible" | "rigid" | "inconclusive"
    centralizer_dim: int
    reductive: bool
    reductive_condition: float
    center_dim: int
    roots: tuple[RootSummary, ...]
    balance: BalanceResult | None
    genus: int
    genus_threshold: int
    caveats: tuple[str, ...]
    message: str
    decomposition: TorusRootDecomposition | None = field(repr=False, default=None)


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
        return centralizer(self.rep.model, self.adjoint.actions, self.tol)

    @cached_property
    def reductivity(self) -> tuple[bool, float]:
        """Killing-form nondegeneracy on the centralizer and its condition number."""
        return killing_restriction_nondegenerate(self.rep.model, self.z, self.tol)

    @cached_property
    def center(self) -> SubalgebraHandle:
        """Center of the centralizer; raises Inconclusive if the centralizer is not reductive."""
        if not self.reductivity[0]:
            raise Inconclusive(NON_REDUCTIVE_MESSAGE)
        return center_of(self.z, self.tol)

    @cached_property
    def decomposition(self) -> TorusRootDecomposition:
        return decompose(self.rep.model, self.center, self.tol)

    @cached_property
    def adjoint(self) -> Module:
        return adjoint_module(self.rep)

    @cached_property
    def workspaces(self) -> tuple[CohomologyWorkspace, ...]:
        """Each root's cohomology, in ``decomposition`` order."""
        return tuple(root_cohomology(self.rep, self.adjoint, r, self.tol)
                     for r in self.decomposition.roots)

    @cached_property
    def _built_forms(self) -> tuple[RootFormReport, ...]:
        """Each root's form, as ``decompose`` orients the center."""
        return tuple(root_form(ws, r, self.tol)
                     for ws, r in zip(self.workspaces, self.decomposition.roots))

    @cached_property
    def orientation(self) -> int:
        """Sign to put on the center's basis vector so the first nonzero T is positive.

        The basis vector comes out of an SVD with an arbitrary sign, and
        ``decompose`` names each root by the larger of the value keys of
        lambda and -lambda in those coordinates, so T would follow LAPACK's
        sign.  With -1 the vector is negated and every root lambda swapped
        for -lambda: the printed values still name the chosen root.  If
        every T is 0, ``decompose``'s key rule stands, and so does a
        center of dimension >= 2 (no computable catalog case has one).
        """
        if self.center.dim == 1:
            for form in self._built_forms:
                if form.toledo:
                    return -1 if form.toledo < 0 else 1
        return 1

    @cached_property
    def forms(self) -> tuple[RootFormReport, ...]:
        """Every root's form, in the canonical orientation."""
        return tuple(_orient(form, self.orientation) for form in self._built_forms)

    @cached_property
    def oriented(self) -> TorusRootDecomposition:
        """``decomposition`` in the canonical orientation (see ``orientation``)."""
        dec = self.decomposition
        if self.orientation > 0:
            return dec
        torus = replace(dec.torus, matrices=-dec.torus.matrices, coords=-dec.torus.coords)
        return replace(dec, torus=torus, roots=tuple(f.root for f in self.forms))

    @cached_property
    def split(self) -> tuple[list[RootFormReport], list[bool], list[np.ndarray], BalanceProblem]:
        """``classify_PN`` of the root forms: forms, P flags, N values, balance problem."""
        return classify_PN(list(self.forms), self.tol)

    @cached_property
    def balance(self) -> BalanceResult:
        return balanced(self.split[3], self.tol)


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
            center_dim=-1, roots=(), balance=None, genus=genus,
            genus_threshold=threshold, caveats=tuple(caveats), message=NON_REDUCTIVE_MESSAGE)

    forms, in_p = pipe.split[:2]
    summaries = [RootSummary(
        values=[complex(v) for v in rr.root.values],
        classification=rr.classification,
        real_dim=rr.module_dim,
        h1_dim=rr.h1_dim,
        signature=rr.signature,
        toledo=rr.toledo,
        definite=rr.definite,
        milnor_wood_slack=rr.milnor_wood_slack,
        in_P=member,
    ) for rr, member in zip(forms, in_p)]

    flexible = pipe.balance.balanced
    return FlexibilityReport(
        verdict="flexible" if flexible else "rigid",
        centralizer_dim=pipe.z.dim, reductive=True, reductive_condition=cond,
        center_dim=pipe.center.dim, roots=tuple(summaries), balance=pipe.balance,
        genus=genus, genus_threshold=threshold, caveats=tuple(caveats),
        message="flexible: the center of the centralizer is balanced"
        if flexible else TUBE_TYPE_MESSAGE,
        decomposition=pipe.oriented)
