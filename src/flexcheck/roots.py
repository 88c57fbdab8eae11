"""Root-space decomposition of a Lie algebra under a torus.

The complexified algebra splits into joint eigenspaces of the adjoint
operators of a commuting torus basis.  Nonzero eigenvalue functionals
(roots) are grouped into orbits {l, -l, conj(l), -conj(l)}; each orbit
representative carries a realified root space, the Killing-dual root
vector t_l and a complex-valued alternating form Omega_l whose real part
of Omega_l(X,Y) t_l reproduces the torus component of the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, SUBALGEBRA_CLOSURE, FlexcheckError, NumericalAbort, Tolerances
from .liealg import SubalgebraHandle
from .linalg import (joint_eigenspace, joint_eigenvalues, rank, relative_residual,
                     singular_rank, value_keys)

REAL, IMAGINARY, MIXED = "real", "imaginary", "mixed"


@dataclass(frozen=True, eq=False)
class RootDatum:
    values: np.ndarray               # complex values of the root on the torus basis
    classification: str              # "real" | "imaginary" | "mixed"
    complex_dim: int                 # dim_C of g_lambda
    real_basis: np.ndarray           # (D, m) orthonormal real basis of g_{lambda,R}
    t_vector: np.ndarray             # coords of t_lambda in the (complex) torus basis
    omega: np.ndarray                # (m, m) complex alternating matrix on real_basis

    @property
    def real_dim(self) -> int:
        return self.real_basis.shape[1]


@dataclass(frozen=True)
class TorusRootDecomposition:
    g0_dim: int                      # dim g_0, the widths of the zero clusters
    roots: tuple[RootDatum, ...]     # one representative per orbit


def decompose(torus: SubalgebraHandle, tol: Tolerances = DEFAULT) -> TorusRootDecomposition:
    """Split the torus's model into g_0 and realified root spaces under the torus.

    One SVD of the stacked torus ad's gives every cutoff's scale and dim
    g_0, their joint kernel, which must match the zero clusters' widths.
    A root orbit costs one kernel SVD per eigenspace that is not another's
    conjugate (one for an imaginary root, two otherwise) and one SVD for
    its real basis and Omega.  A part within tol.cluster * max(sigma_max, 1)
    is 0, decided here only: classification and the N-vectors read it.
    """
    r = torus.dim
    model = torus.model
    dim = model.dim
    if r == 0:
        return TorusRootDecomposition(dim, ())

    ads = model.ad(torus.coords)
    sv = np.linalg.svd(ads.reshape(-1, dim), compute_uv=False)
    scale = float(sv[0])
    for i in range(r):
        for j in range(i + 1, r):
            # [t_i, t_j] = ad(t_i) t_j is at most scale |t_j|; relative to that
            # size, the brackets of an abelian torus are closure residuals
            size = max(scale * float(np.linalg.norm(torus.coords[j])), 1.0)
            if np.abs(ads[i] @ torus.coords[j]).max() > SUBALGEBRA_CLOSURE * size:
                raise NumericalAbort("torus is not abelian")

    gram = torus.coords @ model.killing @ torus.coords.T
    sg = np.sort(np.abs(np.linalg.eigvalsh(gram)))[::-1]   # a symmetric matrix's singular values
    if singular_rank(sg, tol.rank) < r:
        raise NumericalAbort("Killing form is degenerate on the torus")

    clusters = joint_eigenvalues(ads, tol, scale)
    snap = tol.cluster * max(scale, 1.0)
    zero = [max(map(abs, v)) <= snap for v, _ in clusters]
    g0_dim = sum(k for (_, k), z in zip(clusters, zero) if z)
    kernel_dim = dim - singular_rank(sv, tol.rank)
    if g0_dim != kernel_dim:
        raise NumericalAbort(
            f"g_0 has dimension {g0_dim} by its eigenvalue clusters but {kernel_dim} as the "
            "torus's kernel: the torus is defective, or the cluster tolerance merges roots with 0")

    raw = np.array([v for (v, _), z in zip(clusters, zero) if not z], dtype=complex).reshape(-1, r)
    widths = [k for (_, k), z in zip(clusters, zero) if not z]
    parts = raw.view(np.float64)       # re, im interleaved
    vals = np.where(np.abs(parts) <= snap, 0.0, parts).view(complex)
    shifts = np.where(vals.imag == 0, raw.real, raw)    # kernels at the raw means, real if real
    keys = value_keys(vals)
    points = vals.tolist()

    def partner(target) -> int:
        # two cluster means, each up to a cluster width off the root's value
        d, j = min((max(abs(a - b) for a, b in zip(p, target)), j) for j, p in enumerate(points))
        if d > 2.0 * snap:
            raise NumericalAbort(f"root orbit incomplete: no eigenvalue cluster at {target}")
        return j

    order = sorted(range(len(points)), key=keys.__getitem__)
    roots: list[tuple[tuple, RootDatum]] = []
    used: set = set()
    for i in order:
        if i in used:
            continue
        v = points[i]
        orbit = [partner(t) for t in (v, [-x for x in v], [x.conjugate() for x in v],
                                      [-x.conjugate() for x in v])]    # l, -l, conj l, -conj l
        if any(widths[j] != widths[i] for j in orbit):
            raise NumericalAbort(f"root orbit of {v} has eigenspaces of unequal dimension")
        used.update(orbit)
        t = max(range(4), key=lambda a: keys[orbit[a]])
        plus, minus = orbit[t], orbit[t ^ 1]    # the representative and its negative
        roots.append((keys[plus], _build_root(model, ads, gram, vals[plus], shifts[plus],
                                              shifts[minus], widths[i], tol, scale)))

    total = g0_dim + sum(rd.real_dim for _, rd in roots)
    if total != dim:
        raise NumericalAbort(f"direct sum check failed: {total} != {dim}")
    roots.sort(key=lambda kr: kr[0])
    return TorusRootDecomposition(g0_dim, tuple(rd for _, rd in roots))


def check_in_g0(torus: SubalgebraHandle, sub: SubalgebraHandle,
                tol: Tolerances = DEFAULT) -> None:
    """Abort unless ``sub`` lies in g_0 of ``torus``: ad(t) kills it, to the rank cut.

    The pipeline passes the centralizer z of the image and its center.
    z is ad(t)-invariant, so it lies in g_0 exactly when it meets no root
    space; then H^0 = z meet g_lambda of every root module vanishes, and
    so does H^2, dual to H^0 through the Killing form, which pairs g_lambda
    with g_-lambda inside the module.  One product gives every bracket
    [t_i, z_j]; the cut's floor is the Frobenius norm of the stacked
    ad(t), as in ``center_of``.  Handles of two models raise FlexcheckError.
    """
    if torus.model.name != sub.model.name:
        raise FlexcheckError(f"torus on {torus.model.name} but subalgebra on {sub.model.name}")
    ads = torus.model.ad(torus.coords)
    brackets = (ads @ sub.coords.T).reshape(torus.dim * sub.model.dim, sub.dim)
    if rank(brackets, tol.rank, scale=max(float(np.linalg.norm(ads)), 1.0)):
        raise NumericalAbort(
            "H^0 is nonzero on a nonzero root space; the torus is not the "
            "center of the centralizer of this representation")


def _build_root(model, ads, gram, rep, shift_plus, shift_minus, k: int,
                tol: Tolerances, scale: float) -> RootDatum:
    """The root datum of ``rep``, whose g_l and g_-l are the eigenspaces at the two shifts.

    A real root's g_-l is its own real kernel, an imaginary root's is
    conj(g_l); a mixed root's g_conj(l), g_-conj(l) are conj(g_l), conj(g_-l).
    One SVD P = U S V^T gives the real basis U, with W = [w_plus, w_minus]
    for a real or mixed root and W = w_plus for an imaginary one: P = W
    for a real root, [Re W, Im W] otherwise.  With U = P Z, Z = V S^-1 on
    the kept singular values, U = W Z for a real root; otherwise Z's rows
    on Re W and Im W give z = (Z_re - i Z_im) / 2 and U = W z + conj(W z).
    Either way U is split into its g_l and g_-l parts.
    """
    re, im = rep.real.any(), rep.imag.any()     # decompose snapped the zero parts
    if not (re or im):
        raise NumericalAbort("a nonzero cluster has every part within the cluster cutoff")
    cls = MIXED if re and im else REAL if re else IMAGINARY
    w_plus = joint_eigenspace(ads, shift_plus, k, tol, scale)
    if cls == IMAGINARY:
        p = np.hstack([w_plus.real, w_plus.imag])
    else:
        w_minus = joint_eigenspace(ads, shift_minus, k, tol, scale)
        p = np.hstack([w_plus, w_minus] if cls == REAL else
                      [w_plus.real, w_minus.real, w_plus.imag, w_minus.imag])
    u, s, vh = np.linalg.svd(p, full_matrices=False)
    found = singular_rank(s, tol.rank)
    expected = 4 * k if cls == MIXED else 2 * k
    if found != expected:
        raise NumericalAbort(f"realified root space has dimension {found}, expected {expected}")
    u, z = u[:, :found], vh[:found].T / s[:found]
    if cls == REAL:
        plus, minus = w_plus @ z[:k], w_minus @ z[k:]
    else:
        half = len(z) // 2
        z = 0.5 * (z[:half] - 1j * z[half:])
        plus = w_plus @ z[:k]
        # an imaginary root's g_-l part is the conjugate of its g_l part
        minus = plus.conj() if cls == IMAGINARY else w_minus @ z[k:]
    # U is the sum of its components up to round-off times P's condition,
    # at most 1 / tol.rank; the eigenspaces are known to cluster accuracy
    total = plus + minus
    resid = relative_residual((2.0 * total.real if cls == MIXED else total) - u, u)
    if resid > tol.cluster:
        raise NumericalAbort(f"root space basis outside its eigenspaces: residual {resid:.3e}")

    omega = (2.0 if cls == MIXED else 1.0) * (plus - minus).T @ model.killing @ (plus + minus)
    # the symmetric part pairs eigenvector errors of cluster accuracy
    asym = relative_residual(omega + omega.T, omega)
    if asym > tol.cluster:
        raise NumericalAbort(f"Omega is not alternating (residual {asym:.3e})")
    return RootDatum(
        values=rep, classification=cls, complex_dim=k, real_basis=u,
        t_vector=np.linalg.solve(gram.astype(complex), rep), omega=0.5 * (omega - omega.T))
