"""Classical real matrix Lie algebras: construction, Killing form, centralizers.

Models hold a real basis of realified matrices together with structure
constants and the Killing matrix of the underlying real Lie algebra.
Subalgebras are handled as orthonormal subspaces with respect to the
reference inner product <X,Y> = Trace(X^T Y), which is positive definite
and basis independent.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import (
    ADJOINT_SPAN,
    CONJUGATION_SYMMETRY,
    DEFAULT,
    MEMBERSHIP,
    MODEL_CLOSURE,
    MODEL_SPAN,
    SUBALGEBRA_CLOSURE,
    ExcludedFamilyError,
    FlexcheckError,
    NumericalAbort,
    Tolerances,
)
from .linalg import (matrix_scale, nullspace, numeric_array, object_argument, orthonormal_columns,
                     relative_residual, singular_rank)
from .scalars import Field, realified_entry_block, right_multiplication_operator

# _finish_model holds the brackets of all dim^2 pairs of N x N basis matrices
# (N the realified size), dim^2 N^2 doubles, beside the dim^3 structure
# constants, and rebuilds the brackets from c in dim^3 N^2 multiply-adds.
# For sl(n,R), dim ~ N^2, so memory grows about as N^6 and time as N^8.  The
# budget admits sl(12,R) (2.9e6 entries, 0.7 s and 46 MiB traced on one core)
# and rejects sl(13,R) (4.8e6); the largest catalog group, sp(3,1), needs
# 3.3e5 and builds in under 10 ms.  No group it admits has a realified size
# above 24, so it also bounds the stack of basis matrices.
BRACKET_BUDGET = 2 ** 22
# Ad(g) works on blocks of generators whose (k, dim, N, N) products hold at
# most this many doubles (1 MiB).  The catalog groups at genus <= 8, and
# sp(3,1) up to 14 generators, take one block.
BLOCK_ENTRIES = 2 ** 17


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
    _flat: np.ndarray = field(repr=False, default=None)
    _pinv: np.ndarray = field(repr=False, default=None)
    _killing_sv: np.ndarray = field(repr=False, default=None)  # singular values of killing

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def realified_size(self) -> int:
        return self.basis.shape[1]

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        """Matrix of a coordinate vector; a (k, dim) block gives a (k, N, N) stack."""
        return np.tensordot(numeric_array(coords, f"coordinates on {self.name}",
                                          (..., self.dim), "biufc"), self.basis, axes=(-1, 0))

    def coords(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a matrix; a (k, N, N) stack gives a (k, dim) block."""
        mat = numeric_array(mat, f"matrices on {self.name}", (..., *self.basis.shape[1:]),
                            finite=True)
        vec = mat.reshape(*mat.shape[:-2], -1)
        c = vec @ self._pinv.T
        if np.any(relative_residual(c @ self._flat.T - vec, vec, axis=-1) > MODEL_SPAN):
            raise NumericalAbort("matrix does not lie in the model span")
        return c

    def ad(self, coords: np.ndarray) -> np.ndarray:
        """Matrix of ad_X on model coordinates, X given by coordinates.

        A (k, dim) block of coordinates gives the (k, dim, dim) stack, in one
        matmul against the structure constants: entry (l, j) is sum_i x_i c[i, j, l].
        """
        coords = numeric_array(coords, f"coordinates on {self.name}", (..., self.dim), "biufc")
        flat = coords @ self.structure.reshape(self.dim, -1)
        return np.swapaxes(flat.reshape(*coords.shape[:-1], self.dim, self.dim), -1, -2)

    def adjoint_group_matrix(self, g: np.ndarray) -> np.ndarray:
        """Matrix of Ad(g) on model coordinates.

        A (K, N, N) stack of group elements gives the (K, dim, dim) stack
        of their Ad matrices.  The stack goes through in blocks of
        generators whose (k, dim, N, N) products hold at most BLOCK_ENTRIES
        doubles, one batched inverse and product per block, so memory does
        not grow with K beyond the input and the result.  Each slice's
        arithmetic is the same whatever block it falls in.  A singular
        element, or one with a NaN or inf entry, aborts; one that is not
        N x N raises FlexcheckError.
        """
        g = numeric_array(g, f"group elements on {self.name}", (..., *self.basis.shape[1:]),
                          finite=True)
        n = self.realified_size
        stack = g.reshape(-1, n, n)
        out = np.empty((len(stack), self.dim, self.dim))
        step = max(1, BLOCK_ENTRIES // (self.dim * n * n))
        for k in range(0, len(stack), step):
            out[k:k + step] = self._adjoint_block(stack[k:k + step])
        return out.reshape(*g.shape[:-2], self.dim, self.dim)

    def _adjoint_block(self, g: np.ndarray) -> np.ndarray:
        """Ad matrices of a (k, N, N) block from one batched inverse and product."""
        try:
            inv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise NumericalAbort(f"a group element cannot be inverted: {exc}") from exc
        moved = g[:, None] @ self.basis @ inv[:, None]
        flat = np.swapaxes(moved.reshape(len(g), self.dim, -1), -1, -2)
        coeff = self._pinv @ flat
        resid = self._flat @ coeff
        resid -= flat
        if np.any(relative_residual(resid, flat, axis=(-2, -1)) > ADJOINT_SPAN):
            raise NumericalAbort("Ad(g) does not preserve the model span; g is not in the group")
        return coeff

    def group_membership_residual(self, g: np.ndarray):
        """Residual of the defining relations of the ambient group at g.

        The form relation |g^T F g - F| and the determinant |det g - 1| are
        relative to min(kappa(g), max(|g|^2, 1)), kappa(g) = sigma_max / sigma_min,
        and the imaginary units to max(|g|, 1).  Against |g|^2 alone diag(1e9, 1)
        would pass; against kappa alone so would diag(1, 1e-7), whose det is
        far from 1 but whose kappa is large.  A member of O(F), U(F) or Sp(F),
        F orthogonal, has singular values in pairs sigma, 1/sigma, so there
        kappa = |g|^2.  A singular g, or one whose scale overflows, is rejected
        with an infinite residual.  A (K, N, N) stack gives a length-K array,
        one residual per image, from one batched SVD.  Anything but real
        N x N matrices raises FlexcheckError.
        """
        g = numeric_array(g, f"group elements on {self.name}", (..., *self.basis.shape[1:]))
        sv = np.linalg.svd(g, compute_uv=False)
        norm = sv[..., 0]
        regular = sv[..., -1] > 0
        with np.errstate(over="ignore", invalid="ignore"):  # inf, or nan from inf - inf
            kappa = np.divide(norm, sv[..., -1], out=np.full_like(norm, np.inf), where=regular)
            scale = np.minimum(kappa, np.maximum(norm ** 2, 1.0))
            if self.form is not None:
                res = np.abs(np.swapaxes(g, -1, -2) @ self.form @ g - self.form).max(axis=(-2, -1))
            else:
                res = np.abs(np.linalg.det(g) - 1.0)
        judged = regular & np.isfinite(res) & np.isfinite(scale)
        res = np.divide(res, scale, out=np.full_like(norm, np.inf), where=judged)
        for r in _unit_operators(self.field, self.ambient):
            with np.errstate(over="ignore", invalid="ignore"):
                units = np.abs(g @ r - r @ g).max(axis=(-2, -1)) / np.maximum(norm, 1.0)
            res = np.maximum(res, np.where(np.isnan(units), np.inf, units))
        return float(res) if g.ndim == 2 else res


@functools.lru_cache(maxsize=32)
def _unit_operators(fld: Field, n: int) -> tuple[np.ndarray, ...]:
    """Right multiplications by the imaginary units on F^n, read-only and shared."""
    ops = tuple(right_multiplication_operator(fld, n, u) for u in np.eye(fld.dim)[1:])
    for op in ops:
        op.flags.writeable = False
    return ops


@dataclass(frozen=True)
class SubalgebraHandle:
    """A bracket-closed subalgebra: coordinates of a basis orthonormal w.r.t. Trace(X^T Y)."""

    model: LieAlgebraModel
    coords: np.ndarray          # (k, dim)

    def __post_init__(self) -> None:
        object_argument(self.model, LieAlgebraModel, "model")
        coords = numeric_array(self.coords, f"subalgebra coordinates on {self.model.name}",
                               (None, self.model.dim), finite=True)
        object.__setattr__(self, "coords", coords)      # a nested list becomes an array

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def _brackets(basis: np.ndarray) -> np.ndarray:
    """The (dim^2, N^2) array of all [X_i, X_j], row i * dim + j, C-contiguous.

    The dim rows of X_i come from two GEMMs of the stacked basis, X_i X_j
    and X_j X_i for every j, subtracted straight into the result, so the
    only temporaries are 2 dim N^2 entries.  The basis entries are
    small integers, so every product is exact and the bits do not depend
    on the order of summation.
    """
    dim, n = basis.shape[:2]
    side = basis.transpose(1, 0, 2).reshape(n, dim * n)  # X_0 | X_1 | ...
    stacked = basis.reshape(dim * n, n)                   # X_0 over X_1 over ...
    out = np.empty((dim, dim, n, n))
    for i, x in enumerate(basis):
        np.subtract((x @ side).reshape(n, dim, n).transpose(1, 0, 2),
                    (stacked @ x).reshape(dim, n, n), out=out[i])
    return out.reshape(dim * dim, n * n)


def _finish_model(name, fld, n, family, mats, form) -> LieAlgebraModel:
    basis = np.array(mats)
    dim = basis.shape[0]
    flat = basis.reshape(dim, -1).T
    pinv = np.linalg.pinv(flat)
    bflat = _brackets(basis)
    # one GEMM: split into row blocks, it changes the last bit of some entries
    # of c on su(3,1), su(4,1) and sp(2,1), and with them the reports
    c = (pinv @ bflat.T).T.reshape(dim, dim, dim)
    resid = 0.0
    for i in range(dim):  # rebuild the brackets of row i from c, in place
        recon = c[i] @ flat.T
        recon -= bflat[i * dim:(i + 1) * dim]
        resid = max(resid, float(np.abs(recon, out=recon).max(initial=0.0)))
    del bflat
    # Closure implies Jacobi, so it is the only check of c.  With the closure
    # error E_ij = [X_i, X_j] - sum_m c_ij^m X_m, of largest entry delta, the
    # Jacobi identity of matrix commutators gives the Jacobi sums of c as
    #   J_ijk = -pinv sum_cyc (sum_m c_ij^m E_mk + [E_ij, X_k]),
    # so |J_ijk^l| <= 3 |pinv|_inf (dim max|c| + 2 N max|X|) delta.  At
    # MODEL_CLOSURE that is under 1e-10 max(|c|, 1)^2 dim on every group the
    # budget admits.
    scale = max(np.abs(basis).max(), 1.0)
    if resid > MODEL_CLOSURE * scale * scale:
        raise NumericalAbort(f"{name}: basis is not bracket-closed (residual {resid:.3e})")
    killing = np.einsum("ikl,jlk->ij", c, c)
    # C order makes the (dim, dim^2) matrix that ad() multiplies a view, not a copy
    c = np.ascontiguousarray(c)
    killing_sv = np.linalg.svd(killing, compute_uv=False)

    # the model is shared by every caller of build_classical: freeze it
    for arr in (basis, flat, pinv, c, killing, killing_sv, form):
        if arr is not None:
            arr.flags.writeable = False
    return LieAlgebraModel(
        name=name, field=fld, ambient=n, family=family, basis=basis,
        structure=c, killing=killing, form=form,
        _flat=flat, _pinv=pinv, _killing_sv=killing_sv,
    )


def _indefinite_basis(fld: Field, p: int, q: int, traceless: bool = False):
    """Basis of {M : M* e + e M = 0} (+ tracelessness for su) via M = e A."""
    n = p + q
    e = np.concatenate([np.ones(p), -np.ones(q)])
    units = np.eye(fld.dim)  # components of 1, then of the imaginary units
    mats = []
    # off-diagonal: A = E_kl - E_lk and u (E_kl + E_lk), u imaginary
    for k in range(n):
        for l in range(k + 1, n):
            mats.append(realified_entry_block(fld, n, k, l, e[k] * units[0])
                        - realified_entry_block(fld, n, l, k, e[l] * units[0]))
            for u in units[1:]:
                mats.append(realified_entry_block(fld, n, k, l, e[k] * u)
                            + realified_entry_block(fld, n, l, k, e[l] * u))
    # diagonal: A = u E_kk, u imaginary
    if fld is Field.COMPLEX and traceless:
        for k in range(n - 1):
            mats.append(realified_entry_block(fld, n, k, k, units[1])
                        - realified_entry_block(fld, n, k + 1, k + 1, units[1]))
    else:
        for k in range(n):
            for u in units[1:]:
                mats.append(realified_entry_block(fld, n, k, k, u))
    return mats


def _form_matrix(fld: Field, p: int, q: int) -> np.ndarray:
    d = fld.dim
    e = np.concatenate([np.ones(p), -np.ones(q)])
    return np.kron(np.diag(e), np.eye(d))


def _classical_dim(family: str, params) -> int:
    """Real dimension of the group of a validated family tag and parameters."""
    n = sum(params)
    return {"sl": n * n - 1, "su": n * n - 1, "so": n * (n - 1) // 2,
            "sp": n * (2 * n + 1), "spr": n * (2 * n + 1)}[family]


def build_classical(family: str, *params: int, tol: Tolerances = DEFAULT) -> LieAlgebraModel:
    """Construct sl(n,R), su(p,q), so(p,q), sp(p,q) over H, or sp(2n,R).

    Family tags: "sl", "su", "so", "sp" (quaternionic) and "spr" (real
    symplectic).  Octonionic and exceptional requests raise.  Each group is
    constructed once per process and shared: the model's arrays are
    read-only.  ``tol.rank`` gates the Killing rank check on every call.
    """
    if not isinstance(family, str):
        raise FlexcheckError(f"the family must be a string tag, got {family!r}")
    object_argument(tol, Tolerances, "tol")
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
    try:
        params = tuple(map(operator.index, params))
    except TypeError:
        raise FlexcheckError(f"{family} parameters must be integers, got {params}") from None
    if family == "sl" and params[0] < 2:
        raise FlexcheckError("sl(n,R) needs n >= 2")
    if family in ("su", "so", "sp") and (params[0] < 1 or params[1] < 0):
        raise FlexcheckError("parameters must satisfy p >= 1, q >= 0")
    if family == "spr" and params[0] < 1:
        raise FlexcheckError("sp(2n,R) needs n >= 1")
    dim = _classical_dim(family, params)
    if dim == 0:
        raise FlexcheckError(f"{family}{params}: the group is zero-dimensional")
    # checked before any basis matrix is built: their stack grows as size^4
    size = {"sl": 1, "spr": 2, "so": 1, "su": 2, "sp": 4}[family] * sum(params)
    entries = dim ** 2 * size ** 2
    if entries > BRACKET_BUDGET:
        raise FlexcheckError(
            f"{family}{params}: the model build needs {entries} bracket entries "
            f"(dim^2 N^2), over the budget {BRACKET_BUDGET}")

    model = _construct(family, *params)
    # every listed family is semisimple: Cartan's criterion is a self-check
    kr = singular_rank(model._killing_sv, tol.rank)
    if kr != model.dim:
        raise NumericalAbort(f"{model.name}: Killing matrix is singular (rank {kr})")
    return model


@functools.lru_cache(maxsize=32)
def _construct(family: str, *params: int) -> LieAlgebraModel:
    """Basis, structure constants and self-checks of a validated group.

    Reads no Tolerances, so one construction serves every caller.
    """
    if family == "sl":
        (n,) = params
        mats, one = [], np.ones(1)
        for k in range(n):
            for l in range(n):
                if k != l:
                    mats.append(realified_entry_block(Field.REAL, n, k, l, one))
        for k in range(n - 1):
            mats.append(realified_entry_block(Field.REAL, n, k, k, one)
                        - realified_entry_block(Field.REAL, n, k + 1, k + 1, one))
        model = _finish_model(f"sl({n},R)", Field.REAL, n, family, mats, None)
    elif family in ("su", "so", "sp"):
        p, q = params
        fld = {"su": Field.COMPLEX, "so": Field.REAL, "sp": Field.QUATERNION}[family]
        mats = _indefinite_basis(fld, p, q, traceless=(family == "su"))
        form = _form_matrix(fld, p, q)
        n = p + q
        model = _finish_model(f"{family}({p},{q})", fld, n, family, mats, form)
    else:
        (n,) = params  # sp(2n, R)
        size = 2 * n
        J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
        mats = []
        for k in range(size):
            for l in range(k, size):
                s = np.zeros((size, size))
                s[k, l] += 1.0
                s[l, k] += 1.0
                mats.append(-J @ s)
        model = _finish_model(f"sp({size},R)", Field.REAL, size, family, mats, J)

    expected = _classical_dim(family, params)
    if model.dim != expected:
        raise NumericalAbort(f"{model.name}: dimension {model.dim} != classical value {expected}")
    return model


def subalgebra_from_matrices(
    model: LieAlgebraModel,
    mats,
    tol: Tolerances = DEFAULT,
) -> SubalgebraHandle:
    """Orthonormalize a spanning set into a SubalgebraHandle.

    Aborts unless the span is bracket-closed to within ``SUBALGEBRA_CLOSURE``.
    """
    object_argument(model, LieAlgebraModel, "model")
    object_argument(tol, Tolerances, "tol")
    n = model.realified_size
    if len(mats) == 0:
        return SubalgebraHandle(model, np.zeros((0, model.dim)))
    mats = numeric_array(mats, f"matrices on {model.name}", (..., n, n)).reshape(-1, n, n)
    on = orthonormal_columns(mats.reshape(len(mats), -1).T, tol.rank)
    matrices = on.T.reshape(-1, n, n)
    resid = _closure_residual(matrices, on)
    if resid > SUBALGEBRA_CLOSURE:
        raise NumericalAbort(f"span is not bracket-closed (residual {resid:.3e})")
    return SubalgebraHandle(model, model.coords(matrices))


def _closure_residual(matrices: np.ndarray, on_cols: np.ndarray) -> float:
    """Largest distance of a bracket [X_i, X_j] (i < j) from the span, relative to its size.

    All products X_i X_j come from one batched matmul; the span's
    orthonormal columns project without forming the N^2 x N^2 projector.
    """
    k = matrices.shape[0]
    i, j = np.triu_indices(k, 1)
    if not i.size:
        return 0.0
    prods = matrices[:, None] @ matrices[None]                   # X_i X_j
    brackets = (prods[i, j] - prods[j, i]).reshape(i.size, -1)  # one row per pair
    return float(relative_residual(brackets - brackets @ on_cols @ on_cols.T, brackets, 1).max())


def centralizer(
    model: LieAlgebraModel, adjoint, tol: Tolerances = DEFAULT
) -> SubalgebraHandle:
    """Lie algebra {X : Ad(s) X = X for every s} of the centralizer of group elements s.

    ``adjoint`` is the (K, dim, dim) stack of their Ad matrices on model
    coordinates, as ``adjoint_group_matrix`` returns it; an empty stack
    gives the whole algebra.
    """
    object_argument(model, LieAlgebraModel, "model")
    object_argument(tol, Tolerances, "tol")
    what, d = f"Ad matrices on {model.name}", model.dim
    adjoint = numeric_array(adjoint, what)
    if adjoint.size:                                # an empty stack, [] too, constrains nothing
        adjoint = numeric_array(adjoint, what, (..., d, d))
    ops = adjoint.reshape(-1, d, d) - np.eye(d)
    # sigma_max of the stacked operator bounds each operator's, so only the floor 1 is left
    kern = nullspace(ops.reshape(-1, d), tol.rank, scale=1.0)
    return subalgebra_from_matrices(model, model.matrix(kern.T), tol)


def center_of(sub: SubalgebraHandle, tol: Tolerances = DEFAULT) -> SubalgebraHandle:
    """Center {x in z : [x, z] = 0} of a subalgebra."""
    object_argument(sub, SubalgebraHandle, "sub")
    object_argument(tol, Tolerances, "tol")
    k = sub.dim
    if k == 0:
        return sub
    model = sub.model
    ads = model.ad(sub.coords)                     # ad of each basis element
    # the Frobenius norm of the stack bounds every ad's spectral norm: an
    # absolute floor for the cutoff, when every bracket is noise, with no SVD
    scale = max(float(np.linalg.norm(ads)), 1.0)
    stacked = (ads @ sub.coords.T).reshape(-1, k)  # maps xi in R^k to all brackets [b_i, b_j]
    kern = nullspace(stacked, tol.rank, scale=scale)
    return subalgebra_from_matrices(model, model.matrix(kern.T @ sub.coords), tol)


def killing_restriction_nondegenerate(
    sub: SubalgebraHandle, tol: Tolerances = DEFAULT
) -> tuple[bool, float]:
    """Reductivity proxy: is the ambient Killing form nondegenerate on sub?

    Returns (verdict, condition number of the restricted Killing matrix).
    """
    object_argument(sub, SubalgebraHandle, "sub")
    object_argument(tol, Tolerances, "tol")
    if sub.dim == 0:
        return True, 1.0
    gram = sub.coords @ sub.model.killing @ sub.coords.T
    s = np.linalg.svd(gram, compute_uv=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return singular_rank(s, tol.rank) == sub.dim, cond


def conjugation_limit(
    g: np.ndarray, u: np.ndarray, tol: Tolerances = DEFAULT
) -> np.ndarray:
    """Limit of e^{-tu} g e^{tu} as t -> +infinity.

    u must be symmetric (diagonalizable with real eigenvalues).  In the
    eigenbasis of u the entry (i,j) of the conjugate scales like
    e^{t(mu_j - mu_i)}; decaying entries are zeroed, growing ones must
    vanish or the limit diverges.
    """
    object_argument(tol, Tolerances, "tol")
    g, u = (numeric_array(x, "conjugation_limit's g and u", (None, None)) for x in (g, u))
    if g.shape != u.shape or len(u) != u.shape[1]:
        raise FlexcheckError(f"conjugation_limit needs square g and u of one size, got "
                             f"{g.shape} and {u.shape}")
    numeric_array((g, u), "conjugation_limit's g and u", finite=True)   # after every shape
    if np.abs(u - u.T).max(initial=0.0) > CONJUGATION_SYMMETRY * max(matrix_scale(u), 1.0):
        raise NumericalAbort("conjugation_limit needs a symmetric direction u")
    vals, vecs = np.linalg.eigh(u)
    scale = max(float(np.abs(vals).max(initial=0.0)), 1.0)
    h = vecs.T @ g @ vecs
    gscale = max(float(np.abs(h).max(initial=0.0)), 1.0)
    out = h.copy()
    for i, j in np.ndindex(h.shape):
        gap = vals[j] - vals[i]
        if abs(gap) <= tol.cluster * scale:
            continue
        if gap > 0 and abs(h[i, j]) > MEMBERSHIP * gscale:
            raise NumericalAbort(
                f"conjugation limit diverges: growing entry ({i},{j}) = {h[i, j]:.3e}")
        out[i, j] = 0.0
    return vecs @ out @ vecs.T

