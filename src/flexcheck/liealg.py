"""Classical real matrix Lie algebras: construction, Killing form, centralizers.

Models hold a real basis of realified matrices together with structure
constants and the Killing matrix of the underlying real Lie algebra.
Subalgebras are handled as orthonormal subspaces with respect to the
reference inner product <X,Y> = Trace(X^T Y), which is positive definite
and basis independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, ExcludedFamilyError, FlexcheckError, NumericalAbort, Tolerances
from .linalg import matrix_scale, nullspace, orthonormal_columns, rank
from .scalars import (
    Field,
    Quaternion,
    field_units,
    imaginary_units,
    realified_entry_block,
    right_multiplication_operator,
)

AMBIENT_CAP = 64  # realified matrix size guard


@dataclass(frozen=True)
class LieAlgebraModel:
    name: str
    field: Field
    ambient: int                 # matrix size over the base field
    family: str
    basis: np.ndarray            # (dim, N, N) realified basis matrices
    structure: np.ndarray        # c[i, j, k]:  [X_i, X_j] = sum_k c[i,j,k] X_k
    killing: np.ndarray          # (dim, dim)
    form: np.ndarray | None      # realified defining form (None for sl)
    params: tuple[int, ...] = ()
    _flat: np.ndarray = field(repr=False, default=None)
    _pinv: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def realified_size(self) -> int:
        return self.basis.shape[1]

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(coords, self.basis, axes=(0, 0))

    def coords(self, mat: np.ndarray, tol: float = 1e-8, check: bool = True) -> np.ndarray:
        vec = np.asarray(mat).reshape(-1)
        c = self._pinv @ vec
        if check:
            resid = self._flat @ c - vec
            scale = max(float(np.abs(vec).max(initial=0.0)), 1.0)
            if np.abs(resid).max(initial=0.0) > tol * scale:
                raise NumericalAbort("matrix does not lie in the model span")
        return c

    def bracket_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def ad(self, coords: np.ndarray) -> np.ndarray:
        """Matrix of ad_X on model coordinates, X given by coordinates."""
        return np.einsum("i,ijk->kj", coords, self.structure)

    def killing_form(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.killing @ y)

    def killing_pairing(self, X: np.ndarray, Y: np.ndarray, tol: float = 1e-8) -> float:
        """Killing form on matrix arguments; raises if either is outside the span."""
        return self.killing_form(self.coords(X, tol), self.coords(Y, tol))

    def adjoint_group_matrix(self, g: np.ndarray, tol: float = 1e-7) -> np.ndarray:
        """Matrix of Ad(g) on model coordinates."""
        ginv = np.linalg.inv(g)
        moved = np.einsum("ab,ibc,cd->iad", g, self.basis, ginv)
        flat = moved.reshape(self.dim, -1).T
        coeff = self._pinv @ flat
        resid = self._flat @ coeff - flat
        scale = max(float(np.abs(flat).max(initial=0.0)), 1.0)
        if np.abs(resid).max(initial=0.0) > tol * scale:
            raise NumericalAbort("Ad(g) does not preserve the model span; g is not in the group")
        return coeff

    def group_membership_residual(self, g: np.ndarray) -> float:
        """Residual of the defining relations of the ambient group at g."""
        res = 0.0
        scale = max(matrix_scale(g) ** 2, 1.0)
        if self.form is not None:
            res = max(res, float(np.abs(g.T @ self.form @ g - self.form).max()) / scale)
        else:
            res = max(res, abs(float(np.linalg.det(g)) - 1.0) / scale)
        for unit in imaginary_units(self.field):
            r = right_multiplication_operator(self.field, self.ambient, unit)
            res = max(res, float(np.abs(g @ r - r @ g).max()) / max(matrix_scale(g), 1.0))
        return res


@dataclass(frozen=True)
class SubalgebraHandle:
    model: LieAlgebraModel
    matrices: np.ndarray        # (k, N, N), orthonormal w.r.t. Trace(X^T Y)
    coords: np.ndarray          # (k, dim)
    closed: bool
    closure_residual: float

    @property
    def dim(self) -> int:
        return self.matrices.shape[0]


def _finish_model(name, fld, n, family, mats, form, params, tol: Tolerances) -> LieAlgebraModel:
    basis = np.array(mats)
    dim, size, _ = basis.shape
    if size > AMBIENT_CAP:
        raise FlexcheckError(f"realified ambient size {size} exceeds the cap {AMBIENT_CAP}")
    flat = basis.reshape(dim, -1).T
    pinv = np.linalg.pinv(flat)
    brackets = np.einsum("iab,jbc->ijac", basis, basis) - np.einsum("jab,ibc->ijac", basis, basis)
    bflat = brackets.reshape(dim * dim, -1)
    c = (pinv @ bflat.T).T.reshape(dim, dim, dim)
    recon = np.einsum("ijk,kab->ijab", c, basis)
    resid = np.abs(recon - brackets).max(initial=0.0)
    scale = max(np.abs(basis).max(), 1.0)
    if resid > 1e-9 * scale * scale:
        raise NumericalAbort(f"{name}: basis is not bracket-closed (residual {resid:.3e})")
    killing = np.einsum("ikl,jlk->ij", c, c)

    # jacobi[i,j,k,l] = sum over cyclic permutations of c[i,j,m] c[m,k,l]
    jacobi = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )
    jresid = np.abs(jacobi).max(initial=0.0)
    if jresid > 1e-10 * max(np.abs(c).max(initial=0.0), 1.0) ** 2 * dim:
        raise NumericalAbort(f"{name}: Jacobi identity fails (residual {jresid:.3e})")

    model = LieAlgebraModel(
        name=name, field=fld, ambient=n, family=family, basis=basis,
        structure=c, killing=killing, form=form, params=params,
        _flat=flat, _pinv=pinv,
    )
    return model


def _indefinite_basis(fld: Field, p: int, q: int, traceless: bool):
    """Basis of {M : M* e + e M = 0} (+ tracelessness for su) via M = e A."""
    n = p + q
    e = np.concatenate([np.ones(p), -np.ones(q)])
    mats = []
    units = field_units(fld)
    # off-diagonal: A = E_kl - E_lk and u (E_kl + E_lk), u imaginary
    for k in range(n):
        for l in range(k + 1, n):
            one = units[0]
            m = realified_entry_block(fld, n, k, l, e[k] * one) \
                - realified_entry_block(fld, n, l, k, e[l] * one)
            mats.append(m)
            for u in imaginary_units(fld):
                m = realified_entry_block(fld, n, k, l, _scale_unit(u, e[k], fld)) \
                    + realified_entry_block(fld, n, l, k, _scale_unit(u, e[l], fld))
                mats.append(m)
    # diagonal: A = u E_kk, u imaginary
    if fld is Field.COMPLEX and traceless:
        for k in range(n - 1):
            m = realified_entry_block(fld, n, k, k, 1j) - realified_entry_block(fld, n, k + 1, k + 1, 1j)
            mats.append(m)
    else:
        for k in range(n):
            for u in imaginary_units(fld):
                mats.append(realified_entry_block(fld, n, k, k, _scale_unit(u, e[k] * e[k], fld)))
    return mats, e


def _scale_unit(u, s: float, fld: Field):
    if fld is Field.COMPLEX:
        return u * s
    return Quaternion(*(np.array(u.components()) * s))


def _form_matrix(fld: Field, p: int, q: int) -> np.ndarray:
    d = fld.dim
    e = np.concatenate([np.ones(p), -np.ones(q)])
    return np.kron(np.diag(e), np.eye(d))


def build_classical(family: str, *params: int, tol: Tolerances = DEFAULT) -> LieAlgebraModel:
    """Construct sl(n,R), su(p,q), so(p,q), sp(p,q) over H, or sp(2n,R).

    Family tags: "sl", "su", "so", "sp" (quaternionic) and "spr" (real
    symplectic).  Octonionic and exceptional requests raise.
    """
    family = family.lower()
    if family in ("f4", "g2", "spin7", "o"):
        raise ExcludedFamilyError(
            f"{family}: octonionic/exceptional constructions are excluded from computation"
        )
    arity = {"sl": 1, "spr": 1, "su": 2, "so": 2, "sp": 2}.get(family)
    if arity is None:
        raise FlexcheckError(f"unknown family {family!r}")
    if len(params) != arity:
        raise FlexcheckError(f"{family} takes {arity} parameter(s), got {len(params)}")
    if family == "sl":
        (n,) = params
        if n < 2:
            raise FlexcheckError("sl(n,R) needs n >= 2")
        mats = []
        for k in range(n):
            for l in range(n):
                if k != l:
                    mats.append(realified_entry_block(Field.REAL, n, k, l, 1.0))
        for k in range(n - 1):
            mats.append(
                realified_entry_block(Field.REAL, n, k, k, 1.0)
                - realified_entry_block(Field.REAL, n, k + 1, k + 1, 1.0)
            )
        model = _finish_model(f"sl({n},R)", Field.REAL, n, family, mats, None, (n,), tol)
        expected = n * n - 1
    elif family in ("su", "so", "sp"):
        p, q = params
        if p < 1 or q < 0:
            raise FlexcheckError("parameters must satisfy p >= 1, q >= 0")
        fld = {"su": Field.COMPLEX, "so": Field.REAL, "sp": Field.QUATERNION}[family]
        mats, _ = _indefinite_basis(fld, p, q, traceless=(family == "su"))
        form = _form_matrix(fld, p, q)
        n = p + q
        model = _finish_model(f"{family}({p},{q})", fld, n, family, mats, form, (p, q), tol)
        expected = {
            "su": n * n - 1,
            "so": n * (n - 1) // 2,
            "sp": n * (2 * n + 1),
        }[family]
    else:
        (n,) = params  # sp(2n, R)
        if n < 1:
            raise FlexcheckError("sp(2n,R) needs n >= 1")
        size = 2 * n
        J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
        mats = []
        for k in range(size):
            for l in range(k, size):
                s = np.zeros((size, size))
                s[k, l] += 1.0
                s[l, k] += 1.0
                mats.append(-J @ s)
        model = _finish_model(f"sp({size},R)", Field.REAL, size, family, mats, J, (n,), tol)
        expected = n * (2 * n + 1)

    if model.dim != expected:
        raise NumericalAbort(f"{model.name}: dimension {model.dim} != classical value {expected}")
    if family != "spr":  # all listed families are semisimple; Cartan self-check
        kr = rank(model.killing, tol.rank)
        if kr != model.dim:
            raise NumericalAbort(f"{model.name}: Killing matrix is singular (rank {kr})")
    return model


def subalgebra_from_matrices(
    model: LieAlgebraModel,
    mats,
    tol: Tolerances = DEFAULT,
    check_closure: bool = True,
) -> SubalgebraHandle:
    """Orthonormalize a spanning set into a SubalgebraHandle."""
    if len(mats) == 0:
        k = 0
        empty = np.zeros((0, model.realified_size, model.realified_size))
        return SubalgebraHandle(model, empty, np.zeros((0, model.dim)), True, 0.0)
    cols = np.stack([np.asarray(m).reshape(-1) for m in mats], axis=1)
    on = orthonormal_columns(cols, tol.rank)
    n = model.realified_size
    matrices = np.array([on[:, j].reshape(n, n) for j in range(on.shape[1])])
    coords = np.array([model.coords(m) for m in matrices]) if on.shape[1] else np.zeros((0, model.dim))
    closed, resid = True, 0.0
    if check_closure and on.shape[1]:
        resid = _closure_residual(matrices, on)
        closed = resid <= tol.closure
    return SubalgebraHandle(model, matrices, coords, closed, resid)


def _closure_residual(matrices: np.ndarray, on_cols: np.ndarray) -> float:
    k = matrices.shape[0]
    worst = 0.0
    proj = on_cols @ on_cols.T
    for i in range(k):
        for j in range(i + 1, k):
            b = matrices[i] @ matrices[j] - matrices[j] @ matrices[i]
            v = b.reshape(-1)
            out = v - proj @ v
            scale = max(float(np.abs(v).max(initial=0.0)), 1.0)
            worst = max(worst, float(np.abs(out).max(initial=0.0)) / scale)
    return worst


def centralizer(
    model: LieAlgebraModel, elements, tol: Tolerances = DEFAULT, kind: str = "auto"
) -> SubalgebraHandle:
    """Lie algebra of the centralizer of a set of algebra or group elements.

    Algebra elements contribute the condition [s, X] = 0, group elements
    Ad(s)X = X.  ``kind`` is "algebra", "group", or "auto" (decide per
    element by membership in the model span; pass explicitly for elements
    that happen to lie in both, e.g. rotations by pi/2 in SO(2)).
    """
    ops = []
    for s in elements:
        s = np.asarray(s, dtype=float)
        use_algebra = kind == "algebra"
        if kind == "auto":
            try:
                model.coords(s, tol=1e-6)
                use_algebra = True
            except NumericalAbort:
                use_algebra = False
        if use_algebra:
            ops.append(model.ad(model.coords(s, tol=1e-6)))
        else:
            ops.append(model.adjoint_group_matrix(s) - np.eye(model.dim))
    if not ops:
        return subalgebra_from_matrices(model, list(model.basis), tol)
    stacked = np.vstack(ops)
    scale = max(matrix_scale(op) for op in ops)
    kern = nullspace(stacked, tol.rank, scale=max(scale, 1.0))
    mats = [model.matrix(kern[:, j]) for j in range(kern.shape[1])]
    sub = subalgebra_from_matrices(model, mats, tol)
    if not sub.closed:
        raise NumericalAbort(f"centralizer is not bracket-closed (residual {sub.closure_residual:.3e})")
    return sub


def center_of(sub: SubalgebraHandle, tol: Tolerances = DEFAULT) -> SubalgebraHandle:
    """Center {x in z : [x, z] = 0} of a bracket-closed subalgebra."""
    if not sub.closed:
        raise NumericalAbort("center_of needs a bracket-closed subalgebra")
    k = sub.dim
    if k == 0:
        return sub
    model = sub.model
    rows = []
    scale = 1.0
    for i in range(k):
        adi = model.ad(sub.coords[i])          # bracket with i-th basis element
        scale = max(scale, matrix_scale(adi))
        rows.append(adi @ sub.coords.T)        # columns: [b_i, b_j] coords
    stacked = np.vstack(rows)                  # maps xi in R^k to all brackets
    kern = nullspace(stacked, tol.rank, scale=scale)
    mats = [model.matrix(sub.coords.T @ kern[:, j]) for j in range(kern.shape[1])]
    return subalgebra_from_matrices(model, mats, tol)


def killing_restriction_nondegenerate(
    model: LieAlgebraModel, sub: SubalgebraHandle, tol: Tolerances = DEFAULT
) -> tuple[bool, float]:
    """Reductivity proxy: is the ambient Killing form nondegenerate on sub?

    Returns (verdict, condition number of the restricted Killing matrix).
    """
    if sub.dim == 0:
        return True, 1.0
    gram = sub.coords @ model.killing @ sub.coords.T
    s = np.linalg.svd(gram, compute_uv=False)
    if s[0] == 0.0:
        return False, np.inf
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return bool(s[-1] > tol.rank * s[0]), cond


def conjugation_limit(
    g: np.ndarray, u: np.ndarray, tol: Tolerances = DEFAULT
) -> np.ndarray:
    """Limit of e^{-tu} g e^{tu} as t -> +infinity.

    u must be symmetric (diagonalizable with real eigenvalues).  In the
    eigenbasis of u the entry (i,j) of the conjugate scales like
    e^{t(mu_j - mu_i)}; decaying entries are zeroed, growing ones must
    vanish or the limit diverges.
    """
    u = np.asarray(u, dtype=float)
    if np.abs(u - u.T).max(initial=0.0) > 1e-10 * max(matrix_scale(u), 1.0):
        raise NumericalAbort("conjugation_limit needs a symmetric direction u")
    vals, vecs = np.linalg.eigh(u)
    scale = max(float(np.abs(vals).max(initial=0.0)), 1.0)
    h = vecs.T @ g @ vecs
    gscale = max(float(np.abs(h).max(initial=0.0)), 1.0)
    out = h.copy()
    n = h.shape[0]
    for i in range(n):
        for j in range(n):
            gap = vals[j] - vals[i]
            if abs(gap) <= tol.cluster * scale:
                continue
            if gap > 0:
                if abs(h[i, j]) > tol.membership * gscale:
                    raise NumericalAbort(
                        f"conjugation limit diverges: growing entry ({i},{j}) = {h[i, j]:.3e}"
                    )
                out[i, j] = 0.0
            else:
                out[i, j] = 0.0
    return vecs @ out @ vecs.T


def subspace_projection_residual(sub: SubalgebraHandle, other: SubalgebraHandle) -> float:
    """Max residual of projecting `other`'s basis onto `sub` (mutual span check)."""
    if other.dim == 0:
        return 0.0
    cols = other.matrices.reshape(other.dim, -1).T
    base = sub.matrices.reshape(sub.dim, -1).T if sub.dim else np.zeros((cols.shape[0], 0))
    proj = base @ (base.T @ cols) if sub.dim else np.zeros_like(cols)
    return float(np.abs(cols - proj).max(initial=0.0))
