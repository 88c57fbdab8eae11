"""Surface groups, representations, and cohomology via Fox calculus.

Cocycles are kernel vectors of the Fox-calculus relator map on V^{2g};
cup products of cocycles are evaluated against a fundamental 2-chain
built from the relator prefixes (a fan chain corrected by one term per
generator so that its boundary vanishes).  The orientation is calibrated
so that the dual basis classes of a genus-2 surface pair to the standard
symplectic intersection matrix: <a1* cup b1*> = +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, FlexcheckError, NumericalAbort, Tolerances
from .liealg import LieAlgebraModel, build_classical
from .linalg import matrix_scale, nullspace, orthonormal_columns


@dataclass(frozen=True)
class SurfaceGroupPresentation:
    """Standard presentation <a1,b1,...,ag,bg | prod [ai,bi]>."""

    genus: int
    letters: tuple[tuple[int, int], ...]   # (generator index, +-1), length 4g

    @property
    def generator_count(self) -> int:
        return 2 * self.genus

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus


def standard_presentation(genus: int) -> SurfaceGroupPresentation:
    if genus < 2:
        raise FlexcheckError("closed surface of genus >= 2 required")
    letters = []
    for i in range(genus):
        a, b = 2 * i, 2 * i + 1
        letters += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return SurfaceGroupPresentation(genus, tuple(letters))


@dataclass(frozen=True)
class SurfaceRepresentation:
    presentation: SurfaceGroupPresentation
    model: LieAlgebraModel
    images: tuple[np.ndarray, ...]
    central_lift: bool
    relator_sign: int
    relator_residual: float


def relator_product(presentation: SurfaceGroupPresentation, images) -> np.ndarray:
    invs = [np.linalg.inv(g) for g in images]
    n = images[0].shape[0]
    out = np.eye(n)
    for s, sign in presentation.letters:
        out = out @ (images[s] if sign > 0 else invs[s])
    return out


def surface_representation(
    presentation: SurfaceGroupPresentation,
    model: LieAlgebraModel,
    images,
    central_lift: bool = False,
    tol: Tolerances = DEFAULT,
) -> SurfaceRepresentation:
    """Validate generator images and the relator, then freeze the data."""
    if len(images) != presentation.generator_count:
        raise FlexcheckError(
            f"need {presentation.generator_count} generator images, got {len(images)}")
    images = tuple(np.asarray(g, dtype=float) for g in images)
    for i, g in enumerate(images):
        res = model.group_membership_residual(g)
        if res > tol.membership * 100:
            raise NumericalAbort(
                f"generator image {i} violates the group relations (residual {res:.3e})")
    rel = relator_product(presentation, images)
    n = rel.shape[0]
    res_plus = float(np.abs(rel - np.eye(n)).max())
    res_minus = float(np.abs(rel + np.eye(n)).max())
    if res_plus <= tol.relator:
        sign, res = 1, res_plus
    elif central_lift and res_minus <= tol.relator:
        sign, res = -1, res_minus
    else:
        raise NumericalAbort(
            f"relator residual {min(res_plus, res_minus):.3e} exceeds {tol.relator:.1e}"
            + ("" if central_lift else " (relator = -identity requires central_lift=True)"))
    return SurfaceRepresentation(presentation, model, images, central_lift, sign, res)


# ---------------------------------------------------------------------------
# Fuchsian genus-2 representation: regular hyperbolic octagon side pairing
# ---------------------------------------------------------------------------

def _mobius(m: np.ndarray, z: complex) -> complex:
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])

def _disk_point(r: float, phi: float) -> complex:
    """Point at hyperbolic distance r from the center in direction phi (UHP)."""
    w = np.tanh(r / 2.0) * np.exp(1j * phi)
    return 1j * (1 + w) / (1 - w)

def _normalizer(p1: complex, p2: complex) -> np.ndarray:
    """SL(2,R) map with p1 -> i and p2 -> the imaginary axis above i."""
    shift = np.array([[1.0, -p1.real], [0.0, 1.0]])
    scale = np.diag([1.0 / np.sqrt(p1.imag), np.sqrt(p1.imag)])
    s = scale @ shift
    z2 = _mobius(s, p2)
    theta = -np.angle((z2 - 1j) / (z2 + 1j))
    t = theta / 2.0
    rot = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    out = rot @ s
    z2r = _mobius(out, p2)
    if abs(z2r.real) > 1e-9 or z2r.imag <= 1.0:
        raise NumericalAbort("octagon normalizer failed")
    return out

def _pair_map(src: tuple[complex, complex], dst: tuple[complex, complex]) -> np.ndarray:
    return np.linalg.inv(_normalizer(*dst)) @ _normalizer(*src)


def fuchsian_genus2(tol: Tolerances = DEFAULT) -> SurfaceRepresentation:
    """Discrete cocompact genus-2 representation into SL(2,R).

    Side-pairing maps of the regular hyperbolic octagon (all vertex angles
    pi/4, one vertex cycle of total angle 2 pi).  The vertex-cycle relation
    of the pairing system is exactly [A1,B1][A2,B2] = 1 for the generators
    chosen below; all four are hyperbolic of trace 2 + sqrt(2).
    """
    circum = np.arccosh(3.0 + 2.0 * np.sqrt(2.0))
    verts = [_disk_point(circum, k * np.pi / 4.0 + np.pi / 8.0) for k in range(8)]

    def side(k: int) -> tuple[complex, complex]:
        return (verts[(k - 1) % 8], verts[k % 8])

    def pairing(src_k: int, dst_k: int) -> np.ndarray:
        u1, u2 = side(src_k)
        v1, v2 = side(dst_k)
        return _pair_map((u1, u2), (v2, v1))   # endpoint-reversing gluing

    # boundary labels: s0..s7 = a b a^-1 b^-1 c d c^-1 d^-1
    g_a = pairing(2, 0)
    g_b = pairing(3, 1)
    g_c = pairing(6, 4)
    g_d = pairing(7, 5)
    images = [g_c, np.linalg.inv(g_d), g_a, np.linalg.inv(g_b)]
    model = build_classical("sl", 2, tol=tol)
    return surface_representation(standard_presentation(2), model, images, tol=tol)


# ---------------------------------------------------------------------------
# Coefficient modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Module:
    """Per-generator action matrices of a real coefficient module."""

    actions: tuple[np.ndarray, ...]
    kind: str = "generic"

    @property
    def dim(self) -> int:
        return self.actions[0].shape[0]


def adjoint_module(rep: SurfaceRepresentation) -> Module:
    acts = tuple(rep.model.adjoint_group_matrix(g) for g in rep.images)
    return Module(acts, kind="adjoint")


def standard_module(rep: SurfaceRepresentation) -> Module:
    """The generator images acting on the ambient column space."""
    return Module(tuple(rep.images), kind="standard")


def restricted_module(module: Module, basis: np.ndarray, tol: float = 1e-8) -> Module:
    """Restrict a module to an invariant subspace with orthonormal basis columns."""
    acts = []
    for a in module.actions:
        moved = a @ basis
        small = basis.T @ moved
        resid = np.abs(moved - basis @ small).max(initial=0.0)
        if resid > tol * max(np.abs(moved).max(initial=0.0), 1.0):
            raise NumericalAbort(
                f"subspace is not invariant under the module action (residual {resid:.3e})")
        acts.append(small)
    return Module(tuple(acts), kind=f"{module.kind}|restricted")


def trivial_module(rep: SurfaceRepresentation, dim: int) -> Module:
    return Module(tuple(np.eye(dim) for _ in rep.images), kind="trivial")


# ---------------------------------------------------------------------------
# Cohomology workspace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyWorkspace:
    rep: SurfaceRepresentation
    module: Module
    relator_map: np.ndarray          # (m, 2g m) Fox-calculus map
    prefix_actions: tuple            # module actions of relator prefixes, length 4g+1
    z1: np.ndarray                   # orthonormal columns, cocycles
    b1: np.ndarray                   # orthonormal columns, coboundaries
    h1: np.ndarray                   # orthonormal columns, harmonic representatives
    h0_basis: np.ndarray             # invariant vectors of the module
    h0_dim: int
    h1_dim: int
    h2_dim: int

    @property
    def module_dim(self) -> int:
        return self.module.dim

    def generator_values(self, u: np.ndarray) -> list[np.ndarray]:
        m = self.module.dim
        return [u[s * m : (s + 1) * m] for s in range(self.rep.presentation.generator_count)]

    def cocycle_residual(self, u: np.ndarray) -> float:
        scale = max(float(np.abs(u).max(initial=0.0)), 1.0)
        return float(np.abs(self.relator_map @ u).max(initial=0.0)) / scale


def cohomology(rep: SurfaceRepresentation, module: Module, tol: Tolerances = DEFAULT) -> CohomologyWorkspace:
    """Z^1, B^1, H^1 and the dimension bookkeeping for one module."""
    pres = rep.presentation
    m = module.dim
    ngen = pres.generator_count
    acts = [np.asarray(a, dtype=float) for a in module.actions]
    if len(acts) != ngen:
        raise FlexcheckError("module action count does not match generator count")
    invs = [np.linalg.inv(a) for a in acts]

    prefixes = [np.eye(m)]
    for s, sign in pres.letters:
        step = acts[s] if sign > 0 else invs[s]
        prefixes.append(prefixes[-1] @ step)
    scale = max(max(np.abs(p).max() for p in prefixes), 1.0)
    if np.abs(prefixes[-1] - np.eye(m)).max() > tol.cocycle * scale * 10:
        raise NumericalAbort(
            "module action does not kill the relator "
            "(central lift with a module that sees the center?)")

    relator_map = np.zeros((m, ngen * m))
    for k, (s, sign) in enumerate(pres.letters):
        p = prefixes[k]
        block = p if sign > 0 else -p @ invs[s]
        relator_map[:, s * m : (s + 1) * m] += block

    z1 = nullspace(relator_map, tol.rank, scale=scale)
    cob = np.vstack([a - np.eye(m) for a in acts])       # (2g m, m)
    b1 = orthonormal_columns(cob, tol.rank, scale=1.0)
    if b1.shape[1]:
        worst = np.abs(relator_map @ b1).max() / scale
        if worst > tol.cocycle * 10:
            raise NumericalAbort(f"coboundaries fail the cocycle condition ({worst:.3e})")

    if b1.shape[1]:
        overlap = b1.T @ z1
        kern = nullspace(overlap, tol.rank) if overlap.size else np.eye(z1.shape[1])
    else:
        kern = np.eye(z1.shape[1])
    h1 = z1 @ kern

    fixed = nullspace(np.vstack([a - np.eye(m) for a in acts]), tol.rank, scale=1.0)
    cofixed = nullspace(np.vstack([a.T - np.eye(m) for a in acts]), tol.rank, scale=1.0)
    h0, h2 = fixed.shape[1], cofixed.shape[1]
    chi = pres.euler_characteristic

    zdim, bdim, hdim = z1.shape[1], b1.shape[1], h1.shape[1]
    if bdim != m - h0:
        raise NumericalAbort(f"dim B1 = {bdim} != dim V - dim H0 = {m - h0}")
    if zdim != hdim + bdim:
        raise NumericalAbort(f"dim Z1 = {zdim} != dim H1 + dim B1 = {hdim + bdim}")
    if h0 - hdim + h2 != chi * m:
        raise NumericalAbort(
            f"Euler identity fails: {h0} - {hdim} + {h2} != chi * dim = {chi * m}")
    if zdim != h2 + (1 - chi) * m:
        raise NumericalAbort(f"dim Z1 = {zdim} != dim H2 + (1 - chi) dim = {h2 + (1 - chi) * m}")

    return CohomologyWorkspace(
        rep=rep, module=module, relator_map=relator_map,
        prefix_actions=tuple(prefixes), z1=z1, b1=b1, h1=h1,
        h0_basis=fixed, h0_dim=h0, h1_dim=hdim, h2_dim=h2)


def _check_invariant_form(ws: CohomologyWorkspace, omega: np.ndarray) -> None:
    scale = max(float(np.abs(omega).max(initial=0.0)), 1.0)
    for a in ws.module.actions:
        resid = np.abs(a.T @ omega @ a - omega).max()
        if resid > 1e-6 * scale * max(matrix_scale(a) ** 2, 1.0):
            raise NumericalAbort("cup pairing needs a module-invariant bilinear form")


def cup_pairing(
    ws: CohomologyWorkspace,
    omega: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    tol: Tolerances = DEFAULT,
):
    """Evaluate <omega(u cup v), [Sigma]> for cocycles u, v.

    omega may be a single (m, m) bilinear form (real or complex) or a
    stack (k, m, m); the result is a scalar or a length-k vector.
    """
    omega = np.asarray(omega)
    stacked = omega.ndim == 3
    for sl in omega if stacked else [omega]:
        _check_invariant_form(ws, sl)
    for w in (u, v):
        if ws.cocycle_residual(w) > tol.cocycle * 10:
            raise NumericalAbort("cup_pairing arguments must be cocycles")

    pres = ws.rep.presentation
    m = ws.module.dim
    acts = ws.module.actions
    invs = [np.linalg.inv(a) for a in acts]
    us = ws.generator_values(u)
    vs = ws.generator_values(v)

    def letter_value(vals, s, sign):
        return vals[s] if sign > 0 else -(invs[s] @ vals[s])

    def pair(x, y):
        if stacked:
            return np.einsum("a,kab,b->k", x, omega, y)
        return x @ omega @ y

    total = 0.0 if not stacked else np.zeros(omega.shape[0], dtype=omega.dtype)
    if np.iscomplexobj(omega):
        total = 0.0j if not stacked else np.zeros(omega.shape[0], dtype=complex)
    uacc = np.zeros(m)
    for k, (s, sign) in enumerate(pres.letters):
        p = ws.prefix_actions[k]
        if k > 0:
            total = total + pair(uacc, p @ letter_value(vs, s, sign))
        uacc = uacc + p @ letter_value(us, s, sign)
    for s in range(pres.generator_count):
        total = total + pair(us[s], vs[s])
    return total


def cup_square(ws: CohomologyWorkspace, u: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Class of [u cup u] in H^2, as Killing pairings against the H^0 basis.

    Requires the adjoint module; H^2 is identified with H^0 through the
    Killing form (the adjoint module is self-dual).
    """
    if not ws.module.kind.startswith("adjoint"):
        raise FlexcheckError("cup_square is defined on the adjoint module")
    model = ws.rep.model
    if ws.h0_dim == 0:
        if ws.cocycle_residual(u) > tol.cocycle * 10:
            raise NumericalAbort("cup_square argument must be a cocycle")
        return np.zeros(0)
    forms = np.stack([
        np.einsum("ijk,k->ij", model.structure, model.killing @ ws.h0_basis[:, j])
        for j in range(ws.h0_dim)
    ])
    return np.asarray(cup_pairing(ws, forms, u, u, tol))


# ---------------------------------------------------------------------------
# Relator correction (Newton least squares on the representation variety)
# ---------------------------------------------------------------------------

def _expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the Taylor series."""
    n = x.shape[0]
    norm = float(np.abs(x).max(initial=0.0))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16) / 0.25))))
    y = x / (2.0 ** squarings)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 20):
        term = term @ y / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def correct_relator(
    images,
    presentation: SurfaceGroupPresentation,
    model: LieAlgebraModel,
    target_sign: int = 1,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> list[np.ndarray]:
    """Move generator images back onto the relator variety.

    Newton iteration on F(g) = relator(g) - sign * I with tangent moves
    g_i -> g_i exp(eps X) along the model basis; each step solves the
    linearized equation in the least-squares sense.
    """
    gens = [np.asarray(g, dtype=float).copy() for g in images]
    n = gens[0].shape[0]
    dim = model.dim
    target = target_sign * np.eye(n)

    def residual(gs):
        return (relator_product(presentation, gs) - target).reshape(-1)

    h = 1e-6
    for _ in range(max_iter):
        f0 = residual(gens)
        scale = max(float(np.abs(f0).max(initial=0.0)), 0.0)
        if scale < tol:
            return gens
        cols = []
        for i in range(len(gens)):
            for k in range(dim):
                step = _expm(h * model.basis[k])
                step_inv = _expm(-h * model.basis[k])
                plus = list(gens)
                plus[i] = gens[i] @ step
                minus = list(gens)
                minus[i] = gens[i] @ step_inv
                cols.append((residual(plus) - residual(minus)) / (2 * h))
        jac = np.stack(cols, axis=1)
        # the relator lives in the group, so the Jacobian is rank deficient
        # as a map into all matrices; truncate firmly
        delta, _, _, _ = np.linalg.lstsq(jac, -f0, rcond=1e-8)
        for i in range(len(gens)):
            move = np.tensordot(delta[i * dim : (i + 1) * dim], model.basis, axes=(0, 0))
            gens[i] = gens[i] @ _expm(move)
    raise NumericalAbort("relator correction did not converge")
