"""Surface groups, representations, and cohomology via Fox calculus.

Cocycles are kernel vectors of the Fox-calculus relator map on V^{2g};
cup products of cocycles are evaluated against a fundamental 2-chain
built from the relator prefixes (a fan chain corrected by one term per
generator so that its boundary vanishes).  The orientation is calibrated
so that the dual basis classes of a genus-2 surface pair to the standard
symplectic intersection matrix: <a1* cup b1*> = +1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import (COCYCLE_CHECK, DEFAULT, FORM_INVARIANCE, IMAGE_MEMBERSHIP,
                     OCTAGON_NORMALIZER, RELATOR, RELATOR_CORRECTION, SUBSPACE_INVARIANCE,
                     FlexcheckError, NumericalAbort, Tolerances)
from .liealg import LieAlgebraModel, build_classical
from .linalg import (nullspace, numeric_array, orthonormal_columns, rank, relative_residual,
                     residual_scale, spectral_norms)


@dataclass(frozen=True)
class SurfaceGroupPresentation:
    """Standard presentation <a1,b1,...,ag,bg | prod [ai,bi]>, set by an integer genus >= 2."""

    genus: int

    def __post_init__(self):
        try:
            genus = operator.index(self.genus)
        except TypeError:
            raise FlexcheckError(f"genus must be an integer, got {self.genus!r}") from None
        if genus < 2:
            raise FlexcheckError("closed surface of genus >= 2 required")
        object.__setattr__(self, "genus", genus)

    @cached_property
    def letters(self) -> tuple[tuple[int, int], ...]:
        """The relator as (generator index, +-1) pairs: ai bi ai^-1 bi^-1 per handle, 4g in all."""
        return tuple((2 * i + j, sign) for i in range(self.genus)
                     for sign in (1, -1) for j in (0, 1))

    @property
    def generator_count(self) -> int:
        return 2 * self.genus

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus


def standard_presentation(genus: int) -> SurfaceGroupPresentation:
    return SurfaceGroupPresentation(genus)


@dataclass(frozen=True)
class SurfaceRepresentation:
    presentation: SurfaceGroupPresentation
    model: LieAlgebraModel
    images: np.ndarray               # (2g, N, N) read-only generator images
    relator_residual: float          # relative to the prefix scale; against -I if lifted


def action_stack(actions, count: int | None = None) -> np.ndarray:
    """A module's generator actions as one (K, m, m) float array, K = ``count`` if given.

    Any other shape, a ragged nesting or entries that are not real
    numbers raise FlexcheckError.
    """
    stack = numeric_array(actions, "generator actions", (count, None, None))
    if stack.shape[1] != stack.shape[2]:
        raise FlexcheckError(f"generator actions must be square, got shape {stack.shape}")
    return stack.astype(float, copy=False)


def relator_prefixes(presentation: SurfaceGroupPresentation, images) -> list:
    """Products of the relator's first k letters, k = 0..4g; the last is the relator.

    ``images`` is the (2g, m, m) stack of generator actions; any other
    shape raises FlexcheckError.
    """
    images = action_stack(images, presentation.generator_count)
    try:
        invs = np.linalg.inv(images)
    except np.linalg.LinAlgError as exc:
        raise NumericalAbort(f"a generator image cannot be inverted: {exc}") from exc
    prefixes = [np.eye(invs.shape[-1])]
    for s, sign in presentation.letters:
        prefixes.append(prefixes[-1] @ (images[s] if sign > 0 else invs[s]))
    return prefixes


def _fox_calculus(presentation: SurfaceGroupPresentation, acts: np.ndarray):
    """Relator prefixes, Fox blocks and relator map of per-generator actions.

    ``acts`` is the (2g, m, m) stack of generator actions.  Returns the
    (4g + 1, m, m) prefixes, the (4g, m, m) Fox block of each letter and
    the (m, 2g m) relator map, the sum of each generator's two blocks.
    """
    ngen, m = presentation.generator_count, acts.shape[-1]
    prefixes = np.array(relator_prefixes(presentation, acts))
    # letter k's Fox block is P_k for a generator and -P_k L^-1 = -P_{k+1}
    # for an inverse; the relator map sums each generator's two.  In the
    # standard word the generator letters, like the inverse letters, come
    # in generator order
    positive = np.array(presentation.letters)[:, 1] > 0
    fox = np.where(positive[:, None, None], prefixes[:-1], -prefixes[1:])
    relator_map = np.swapaxes(fox[positive] + fox[~positive], 0, 1).reshape(m, ngen * m)
    return prefixes, fox, relator_map


def _image_stack(presentation: SurfaceGroupPresentation, model: LieAlgebraModel,
                 images) -> np.ndarray:
    """The images copied into one (2g, N, N) float stack; a wrong count, shape or type raises."""
    ngen, n = presentation.generator_count, model.realified_size
    try:
        count = len(images)
    except TypeError:
        raise FlexcheckError(f"generator images must be a sequence, got {images!r}") from None
    if count != ngen:
        raise FlexcheckError(f"need {ngen} generator images, got {count}")
    for i, g in enumerate(images):
        shape = numeric_array(g, f"generator image {i}").shape
        if shape != (n, n):
            raise FlexcheckError(f"generator image {i} has shape {shape}, not the "
                                 f"realified size {(n, n)} of {model.name}")
    return np.array(images, dtype=float)


def surface_representation(
    presentation: SurfaceGroupPresentation,
    model: LieAlgebraModel,
    images,
    central_lift: bool = False,
) -> SurfaceRepresentation:
    """Validate generator images and the relator, then freeze the data.

    The images are copied into one read-only (2g, N, N) stack, N the
    model's realified size; a wrong count or shape raises FlexcheckError.
    The relator residual is relative to the largest entry of the relator's
    prefix products (at least 1), the rounding scale of the product, as in
    ``cohomology``: conjugating the images leaves it about the same.
    """
    n = model.realified_size
    images = _image_stack(presentation, model, images)
    images.flags.writeable = False
    bad = np.flatnonzero(~np.isfinite(images).all(axis=(-2, -1)))
    if bad.size:
        raise NumericalAbort(f"generator image {bad[0]} has a non-finite entry")
    residuals = model.group_membership_residual(images)
    bad = np.flatnonzero(~(residuals <= IMAGE_MEMBERSHIP))     # NaN is bad too
    if bad.size:
        i = bad[0]
        raise NumericalAbort(
            f"generator image {i} violates the group relations (residual {residuals[i]:.3e})")
    prefixes = relator_prefixes(presentation, images)
    res_plus, res_minus = (relative_residual(prefixes[-1] - s * np.eye(n), prefixes)
                           for s in (1, -1))
    res = res_minus if central_lift and res_plus > RELATOR else res_plus
    if not res <= RELATOR:                                      # NaN fails too
        raise NumericalAbort(
            f"relator residual {min(res_plus, res_minus):.3e} exceeds {RELATOR:.1e}"
            + ("" if central_lift else " (relator = -identity requires central_lift=True)"))
    return SurfaceRepresentation(presentation, model, images, res)


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
    if abs(z2r.real) > OCTAGON_NORMALIZER or z2r.imag <= 1.0:
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
    return surface_representation(standard_presentation(2), model, images)


# ---------------------------------------------------------------------------
# Coefficient modules
# ---------------------------------------------------------------------------

def adjoint_module(rep: SurfaceRepresentation) -> np.ndarray:
    """The (2g, dim, dim) stack of Ad of every generator image, from one batched call."""
    return rep.model.adjoint_group_matrix(rep.images)


def restricted_module(actions, basis: np.ndarray) -> np.ndarray:
    """Restrict a (2g, m, m) action stack to an invariant subspace with orthonormal basis columns."""
    actions = action_stack(actions)
    basis = numeric_array(basis, "a module basis", (actions.shape[-1], None))
    moved = actions @ basis
    small = basis.T @ moved
    resid = relative_residual(moved - basis @ small, moved, axis=(1, 2))
    if np.any(resid > SUBSPACE_INVARIANCE):
        raise NumericalAbort(
            f"subspace is not invariant under the module action (residual {resid.max():.3e})")
    return small


# ---------------------------------------------------------------------------
# Cohomology workspace
# ---------------------------------------------------------------------------

def check_module_relator(prefixes) -> float:
    """Abort unless a module's relator, the last of its ``relator_prefixes``, acts as I;
    return the prefixes' ``residual_scale``, the one its residual is relative to."""
    prefixes = action_stack(prefixes)
    scale = residual_scale(prefixes)
    if relative_residual(prefixes[-1] - np.eye(len(prefixes[-1])), scale) > COCYCLE_CHECK:
        raise NumericalAbort(
            "module action does not kill the relator "
            "(central lift with a module that sees the center?)")
    return scale


@dataclass(frozen=True)
class CohomologyWorkspace:
    rep: SurfaceRepresentation
    actions: np.ndarray              # (2g, m, m) the module's generator actions
    relator_map: np.ndarray          # (m, 2g m) Fox-calculus map
    fox_blocks: np.ndarray           # (4g, m, m) each letter's Fox block
    h1: np.ndarray                   # orthonormal columns, harmonic representatives
    h0_dim: int
    h1_dim: int
    h2_dim: int

    @property
    def module_dim(self) -> int:
        return self.actions.shape[-1]

    def cocycle_residual(self, u: np.ndarray):
        """Relator-map residual of a cochain, relative to its largest entry.

        A ``(2g m,)`` vector gives a float; a ``(2g m, k)`` column block
        gives a length-k array, one residual per column.  Any other shape
        raises FlexcheckError.
        """
        u, width = numeric_array(u, "cochains", kinds="biufc"), self.relator_map.shape[1]
        numeric_array(u, "cochains", (width,) if u.ndim < 2 else (width, None), "biufc")
        return relative_residual(self.relator_map @ u, u, axis=0)


def cohomology(rep: SurfaceRepresentation, actions,
               tol: Tolerances = DEFAULT) -> CohomologyWorkspace:
    """H^1 (the cocycles orthogonal to B^1) and the dimension bookkeeping of a module.

    ``actions`` is the (2g, m, m) stack of the module's generator actions
    (``action_stack``).
    """
    pres = rep.presentation
    actions = action_stack(actions, pres.generator_count)
    ngen, m = pres.generator_count, actions.shape[-1]
    eye = np.eye(m)

    prefixes, fox, relator_map = _fox_calculus(pres, actions)
    scale = check_module_relator(prefixes)

    # B^1 is the span and H^0 the kernel of the coboundary map v -> ((A_s - 1) v)_s
    coboundary = (actions - eye).reshape(ngen * m, m)
    b1 = orthonormal_columns(coboundary, tol.rank, scale=1.0)
    fixed = nullspace(coboundary, tol.rank, scale=1.0)
    worst = relative_residual(relator_map @ b1, scale)
    if worst > COCYCLE_CHECK:
        raise NumericalAbort(f"coboundaries fail the cocycle condition ({worst:.3e})")
    # H^1 = ker [J / scale; B^1^T]: scaled, J's rows share the orthonormal B^1^T
    # rows' cutoff tol.rank * max(sigma_max, 1), the one ker J alone gets
    h1 = nullspace(np.vstack([relator_map / scale, b1.T]), tol.rank, scale=1.0)

    # H^2 is dual to the coinvariants: only its dimension is needed.  With
    # B^1 in ker J, the Euler identity is the rank condition rank J = m - h2
    h0, hdim = fixed.shape[1], h1.shape[1]
    h2 = m - rank((np.swapaxes(actions, 1, 2) - eye).reshape(ngen * m, m), tol.rank, scale=1.0)
    chi = pres.euler_characteristic
    if h0 - hdim + h2 != chi * m:
        raise NumericalAbort(
            f"Euler identity fails: {h0} - {hdim} + {h2} != chi * dim = {chi * m}")

    return CohomologyWorkspace(
        rep=rep, actions=actions, relator_map=relator_map, fox_blocks=fox, h1=h1,
        h0_dim=h0, h1_dim=hdim, h2_dim=h2)


def check_invariant_form(actions: np.ndarray, omega: np.ndarray) -> None:
    """Abort unless every slice of an (..., m, m) ``omega`` is invariant under the
    (K, m, m) ``actions``: a^T omega a = omega, relative to |omega| |a|^2."""
    actions = action_stack(actions)
    m = actions.shape[-1]
    forms = numeric_array(omega, "the form", (..., m, m), "biufc").reshape(-1, m, m)
    acts = actions[:, None]                                 # (K, 1, m, m) against (F, m, m)
    resid = relative_residual(np.swapaxes(acts, -1, -2) @ forms @ acts - forms, forms, (-2, -1))
    if np.all(resid <= FORM_INVARIANCE):        # the bound is at least FORM_INVARIANCE
        return
    norms = np.maximum(spectral_norms(actions) ** 2, 1.0)
    if np.any(resid > FORM_INVARIANCE * norms[:, None]):
        raise NumericalAbort("the bilinear form is not module-invariant")


def cup_pairing(
    ws: CohomologyWorkspace,
    omega: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
):
    """Evaluate <omega(u cup v), [Sigma]> for cocycles u, v.

    omega may be a single (m, m) bilinear form (real or complex) or a
    stack (..., m, m).  u and v are (2g m,) cocycles or (2g m, k) blocks of
    cocycle columns.  The pairing is bilinear: the result is u^T C v for
    the cochain-level cup matrix C = I (x) omega + sum_k S_k^T omega A_k
    (A_k the letter-k Fox block, S_k the sum of the A_j with j < k),
    evaluated without forming C.  A vector pair gives a scalar, a block
    pair a (ku, kv) matrix, each behind the stack's leading axes; a
    vector on one side drops that side's axis.  Any other shape raises
    FlexcheckError.
    """
    m = ws.module_dim
    omega = numeric_array(omega, "omega", (..., m, m), "biufc")
    # cocycle_residual raises FlexcheckError on a wrong kind or shape
    for w in (u, v):
        if np.any(ws.cocycle_residual(w) > COCYCLE_CHECK):
            raise NumericalAbort("cup_pairing arguments must be cocycles")
    u, v = np.asarray(u), np.asarray(v)
    check_invariant_form(ws.actions, omega)

    pres = ws.rep.presentation
    gens = np.array(pres.letters)[:, 0]

    def letter_blocks(w):
        """Y_k = A_k w_{s_k}: each letter's Fox block applied to its generator's value."""
        blocks = w.reshape(pres.generator_count, ws.module_dim, -1)
        return blocks, ws.fox_blocks @ blocks[gens]

    ublocks, yu = letter_blocks(u)
    vblocks, yv = letter_blocks(v)
    # exclusive prefix sums X_k = sum_{j<k} Y_j(u); X_0 = 0
    xu = np.zeros_like(yu)
    np.cumsum(yu[:-1], axis=0, out=xu[1:])
    # sum_k X_k^T omega Y_k(v) plus the generator-diagonal sum_s u_s^T omega v_s
    left = np.concatenate([xu, ublocks]).reshape(-1, xu.shape[-1])
    right = omega[..., None, :, :] @ np.concatenate([yv, vblocks])
    out = left.T @ right.reshape(*omega.shape[:-2], len(left), right.shape[-1])
    return out.reshape(omega.shape[:-2] + u.shape[1:] + v.shape[1:])[()]


# ---------------------------------------------------------------------------
# Relator correction (Newton least squares on the representation variety)
# ---------------------------------------------------------------------------

def _expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the Taylor series."""
    n = x.shape[0]
    norm = float(np.abs(x).max(initial=0.0))
    squarings = int(np.ceil(np.log2(max(norm, 0.25) / 0.25)))
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
) -> list[np.ndarray]:
    """Move generator images back onto the relator variety R = I.

    Newton iteration on the relator R(g) with left moves
    g_s -> exp(X_s) g_s.  To first order the moved relator is
    (I + J x) R, J the Fox-calculus relator map of the adjoint module
    (as in ``cohomology``), so each step solves J x = R^-1 - I in
    model coordinates by least squares, cut at ``DEFAULT.rank``.  It
    stops when the residual, relative to the input's prefix scale (as in
    ``surface_representation``), is below ``RELATOR_CORRECTION``; a scale
    taken from each iterate would grow with images that run off and
    accept them.  It returns only images that ``surface_representation``
    accepts; a singular, overflowing or non-finite iterate aborts, and so
    does one that a step has moved out of the group, or no convergence
    in 60 steps.
    """
    gens = _image_stack(presentation, model, images)
    eye = np.eye(gens.shape[-1])
    try:
        with np.errstate(over="raise", invalid="raise"):
            scale = residual_scale(relator_prefixes(presentation, gens))
            for step in range(60):
                prefixes = relator_prefixes(presentation, gens)
                if not np.isfinite(prefixes).all():
                    raise NumericalAbort("relator correction diverged: non-finite generator images")
                rel = prefixes[-1]
                if relative_residual(rel - eye, scale) < RELATOR_CORRECTION:
                    fixed = list(gens)
                    surface_representation(presentation, model, fixed)
                    return fixed
                try:
                    ads = model.adjoint_group_matrix(gens)
                except NumericalAbort as exc:
                    if step == 0:       # the caller's own images
                        raise
                    raise NumericalAbort(
                        f"relator correction left the group after Newton step {step}: "
                        "the undamped step moved an image off the model span") from exc
                jac = _fox_calculus(presentation, ads)[2]
                # least squares onto the model span: the residual lies in the
                # algebra only to first order, so no span check
                rhs = model._pinv @ (np.linalg.inv(rel) - eye).reshape(-1)
                x = np.linalg.lstsq(jac, rhs, rcond=DEFAULT.rank)[0]
                moves = model.matrix(x.reshape(len(gens), model.dim))
                gens = np.array([_expm(move) @ g for move, g in zip(moves, gens)])
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise NumericalAbort(f"relator correction failed: {exc}") from exc
    raise NumericalAbort("relator correction did not converge")
