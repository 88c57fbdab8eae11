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

from .config import DEFAULT, NumericalAbort, Tolerances
from .liealg import LieAlgebraModel, SubalgebraHandle
from .linalg import (
    matrix_scale,
    orthonormal_columns,
    simultaneous_eigenspaces,
    solve_in_span,
    value_key,
)

REAL, IMAGINARY, MIXED = "real", "imaginary", "mixed"


@dataclass(frozen=True, eq=False)
class RootDatum:
    values: np.ndarray               # complex values of the root on the torus basis
    classification: str              # "real" | "imaginary" | "mixed"
    complex_dim: int                 # dim_C of g_lambda
    spaces: dict                     # value-key -> complex eigenbasis (coords space)
    real_basis: np.ndarray           # (D, m) orthonormal real basis of g_{lambda,R}
    t_vector: np.ndarray             # coords of t_lambda in the (complex) torus basis
    omega: np.ndarray                # (m, m) complex alternating matrix on real_basis

    @property
    def real_dim(self) -> int:
        return self.real_basis.shape[1]


@dataclass(frozen=True)
class TorusRootDecomposition:
    model: LieAlgebraModel
    torus: SubalgebraHandle
    g0_dim: int                      # dim g_0, the widths of the zero clusters
    roots: tuple[RootDatum, ...]     # one representative per orbit
    all_values: tuple                # every nonzero root value tuple (full list Lambda)
    killing_gram: np.ndarray         # Killing Gram matrix of the torus basis


def classify_root(values: np.ndarray, tol: float = 1e-7) -> str:
    """Classify a nonzero root by the real/imaginary parts of its values."""
    v = np.asarray(values, dtype=complex)
    scale = np.abs(v).max(initial=0.0)
    if scale <= tol:
        raise NumericalAbort("classify_root: zero root")
    if np.abs(v.imag).max() <= tol * max(scale, 1.0):
        return REAL
    if np.abs(v.real).max() <= tol * max(scale, 1.0):
        return IMAGINARY
    return MIXED


def _real_span_basis(cols: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal real basis from real/imaginary parts of complex columns."""
    parts = np.hstack([cols.real, cols.imag])
    return orthonormal_columns(parts, tol)


def decompose(
    model: LieAlgebraModel, torus: SubalgebraHandle, tol: Tolerances = DEFAULT
) -> TorusRootDecomposition:
    """Split the model into g_0 and realified root spaces under the torus."""
    r = torus.dim
    dim = model.dim
    if r == 0:
        return TorusRootDecomposition(model, torus, dim, (), (), np.zeros((0, 0)))

    for i in range(r):
        for j in range(i + 1, r):
            br = model.bracket_coords(torus.coords[i], torus.coords[j])
            if np.abs(br).max() > tol.closure * 10:
                raise NumericalAbort("torus is not abelian")

    ads = model.ad(torus.coords)
    scale = matrix_scale(ads)
    spaces = simultaneous_eigenspaces(list(ads), tol, scale=scale)

    gram = torus.coords @ model.killing @ torus.coords.T
    sg = np.linalg.svd(gram, compute_uv=False)
    if sg[-1] <= tol.rank * sg[0]:
        raise NumericalAbort("Killing form is degenerate on the torus")

    snap = tol.cluster * max(scale, 1.0)
    g0_dim = 0
    nonzero: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for vals, w in spaces:
        v = np.array(vals)
        if np.abs(v).max(initial=0.0) <= snap:
            g0_dim += w.shape[1]
        else:
            re = np.where(np.abs(v.real) <= snap, 0.0, v.real)
            im = np.where(np.abs(v.imag) <= snap, 0.0, v.imag)
            v = re + 1j * im
            nonzero[value_key(v)] = (v, w)

    def find(v: np.ndarray):
        for key, (vv, ww) in nonzero.items():
            if np.abs(vv - v).max() <= 10 * tol.cluster * max(scale, 1.0):
                return key
        return None

    roots: list[RootDatum] = []
    all_values = [v for (v, _) in nonzero.values()]
    used: set = set()
    for key in sorted(nonzero.keys()):
        if key in used:
            continue
        v, _ = nonzero[key]
        orbit_keys = {}
        for name, target in (("+l", v), ("-l", -v), ("+c", v.conj()), ("-c", -v.conj())):
            k2 = find(target)
            if k2 is None:
                raise NumericalAbort(f"root orbit incomplete: missing {name} partner of {v}")
            orbit_keys[name] = k2
        used.update(orbit_keys.values())
        candidates = {nonzero[k][0].tobytes(): nonzero[k][0] for k in set(orbit_keys.values())}
        rep = max(candidates.values(), key=value_key)
        roots.append(_build_root(model, torus, gram, rep, nonzero, find, tol))

    total = g0_dim + sum(rd.real_dim for rd in roots)
    if total != dim:
        raise NumericalAbort(f"direct sum check failed: {total} != {dim}")

    roots.sort(key=lambda rd: value_key(rd.values))
    return TorusRootDecomposition(
        model, torus, g0_dim, tuple(roots), tuple(all_values), gram)


def _build_root(model, torus, gram, rep, nonzero, find, tol: Tolerances) -> RootDatum:
    cls = classify_root(rep, tol.cluster * 10)
    w_plus = nonzero[find(rep)][1]
    w_minus = nonzero[find(-rep)][1]
    spaces = {"+l": w_plus, "-l": w_minus}
    if cls == MIXED:
        spaces["+c"] = nonzero[find(rep.conj())][1]
        spaces["-c"] = nonzero[find(-rep.conj())][1]

    real_basis = _real_span_basis(np.hstack([w_plus, w_minus]), tol.rank)
    k = w_plus.shape[1]
    expected = {REAL: 2 * k, IMAGINARY: 2 * k, MIXED: 4 * k}[cls]
    if real_basis.shape[1] != expected:
        raise NumericalAbort(
            f"realified root space has dimension {real_basis.shape[1]}, expected {expected}")

    t_vec = np.linalg.solve(gram.astype(complex), rep)

    return RootDatum(
        values=rep, classification=cls, complex_dim=k, spaces=spaces,
        real_basis=real_basis, t_vector=t_vec, omega=_omega(model, cls, spaces, real_basis))


def _omega(model, cls: str, spaces: dict, real_basis: np.ndarray) -> np.ndarray:
    """Matrix of Omega_lambda on the real basis."""
    # spaces runs +l, -l (then +c, -c for a mixed root), spanning real_basis
    comp = solve_in_span(np.hstack(list(spaces.values())), real_basis.astype(complex), tol=1e-7)
    ofs = np.concatenate([[0], np.cumsum([w.shape[1] for w in spaces.values()])])
    plus = spaces["+l"] @ comp[ofs[0]:ofs[1]]
    minus = spaces["-l"] @ comp[ofs[1]:ofs[2]]

    K = model.killing.astype(complex)
    diff = plus - minus
    summ = plus + minus
    omega = diff.T @ K @ summ
    if cls == MIXED:
        omega = 2.0 * omega

    asym = np.abs(omega + omega.T).max(initial=0.0)
    if asym > 1e-7 * max(np.abs(omega).max(initial=0.0), 1.0):
        raise NumericalAbort(f"Omega is not alternating (residual {asym:.3e})")
    return 0.5 * (omega - omega.T)

