"""Tolerance-controlled numerical linear algebra.

Two rules are stated here and nowhere else.  The rank cut
(:func:`singular_rank`): a singular value counts when it exceeds
``tol * max(sigma_max, scale)``.  The residual rule
(:func:`relative_residual`): a check takes the largest |entry| of a
difference, divided by the larger of 1 and the largest |entry| of the
quantities it came from, and compares that with its own tolerance.  Joint
eigenvalue tuples are merged by a clustering tolerance tied to the
operator norms.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT, FlexcheckError, NumericalAbort, Tolerances


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a ``(..., m, n)`` stack, in one SVD call.

    Each value is bit for bit ``np.linalg.norm(slice, 2)``.
    """
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def matrix_scale(a: np.ndarray) -> float:
    """Spectral norm of a matrix, or the largest over a ``(K, m, n)`` stack."""
    a = np.asarray(a)
    return float(spectral_norms(a).max()) if a.size else 0.0


def residual_scale(ref, axis=None):
    """Largest |ref| over ``axis``, at least 1: the scale of the relative residual."""
    return np.maximum(np.abs(ref).max(axis=axis, initial=0.0), 1.0)


def relative_residual(diff, ref, axis=None):
    """Largest |diff| over ``axis``, divided by :func:`residual_scale` of ``ref``.

    ``ref`` is what ``diff`` came from, or its scale.  A NaN quotient, from
    a NaN entry or from inf / inf, reads inf, so it fails every check.
    """
    with np.errstate(invalid="ignore"):
        out = np.abs(diff).max(axis=axis, initial=0.0) / residual_scale(ref, axis)
    if out.ndim == 0:
        return float(out) if out == out else np.inf
    out[np.isnan(out)] = np.inf
    return out


def singular_rank(s: np.ndarray, tol: float = DEFAULT.rank, scale: float = 0.0) -> int:
    """Numerical rank from descending singular values s: how many exceed tol * max(s[0], scale)."""
    return int(np.count_nonzero(s > tol * max(float(s[0]) if s.size else 0.0, scale)))


def numeric_array(values, what: str, shape: tuple | None = None, kinds: str = "biuf",
                  finite: bool = False) -> np.ndarray:
    """``values`` as an array of dtype kind in ``kinds`` (real numbers by default) and of ``shape``.

    The one input contract of the package.  In ``shape`` an int fixes an
    axis and None leaves it free; a leading ``...`` admits any leading
    axes.  A ragged nesting, entries of another kind or another shape raise
    FlexcheckError naming ``what``.  Then, with ``finite``, a NaN or inf
    entry raises NumericalAbort: LAPACK fails to converge on NaN and gives
    NaN on inf.
    """
    try:
        out = np.asarray(values)
    except ValueError:  # ragged nesting
        raise FlexcheckError(f"{what} must be an array, got a ragged nesting") from None
    if out.dtype.kind not in kinds:
        raise FlexcheckError(f"{what} must be {'' if 'c' in kinds else 'real '}numbers, "
                             f"got {out.dtype}")
    if shape is not None:
        lead = shape[:1] == (...,)
        axes = shape[1:] if lead else shape
        if (out.ndim < len(axes) if lead else out.ndim != len(axes)) or any(
                a is not None and a != b for a, b in zip(axes, out.shape[out.ndim - len(axes):])):
            spec = ", ".join("..." if a is ... else "*" if a is None else str(a) for a in shape)
            raise FlexcheckError(f"{what} must have shape ({spec}), got {out.shape}")
    if finite and not np.isfinite(out).all():
        raise NumericalAbort(f"non-finite entry in {what}")
    return out


def object_argument(value, kind: type, what: str) -> None:
    """Raise FlexcheckError naming ``what`` unless ``value`` is an instance of ``kind``: the
    contract of a public function's object arguments, beside ``numeric_array``'s for arrays."""
    if not isinstance(value, kind):
        raise FlexcheckError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def _cut(tol, scale) -> list:
    """The rank cut's ``tol`` and ``scale`` of ``rank``, ``nullspace`` and
    ``orthonormal_columns``: finite real scalars, or FlexcheckError."""
    cut = numeric_array((tol, scale), "the rank cut's tol and scale", (2,), "iuf").tolist()
    if not all(map(math.isfinite, cut)):
        raise FlexcheckError(f"the rank cut's tol and scale must be finite, got {cut}")
    return cut


def rank(a: np.ndarray, tol: float = DEFAULT.rank, scale: float = 0.0) -> int:
    """Numerical rank from the singular values alone; ``scale`` floors the cutoff as in nullspace."""
    tol, scale = _cut(tol, scale)
    a = numeric_array(a, "singular values' input", kinds="biufc")
    if a.size == 0:                                 # of any shape, [] too
        return 0
    a = numeric_array(a, "singular values' input", (None, None), "biufc", finite=True)
    return singular_rank(np.linalg.svd(a, compute_uv=False), tol, scale)


def nullspace(a: np.ndarray, tol: float = DEFAULT.rank, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of ker(a), columns of the returned matrix.

    Singular values below ``tol * max(sigma_max, scale)`` count as zero;
    pass ``scale`` when the operator may consist entirely of noise (e.g.
    brackets of commuting elements) so the cutoff has an absolute floor.
    A thin SVD serves tall and square input; wide input, such as a
    relator map, needs the full V for its kernel.
    """
    tol, scale = _cut(tol, scale)
    a = numeric_array(a, "singular values' input", (None, None), "biufc", finite=True)
    if a.shape[1] == 0:
        raise NumericalAbort("nullspace of an empty operator is undefined")
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    if max(s[0], scale) == 0.0:
        return np.eye(a.shape[1], dtype=a.dtype)
    return vh[singular_rank(s, tol, scale):].conj().T


def orthonormal_columns(vectors: np.ndarray, tol: float = DEFAULT.rank,
                        scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis for the column span of ``vectors``.

    As in :func:`nullspace`, ``scale`` puts an absolute floor under the
    cutoff so an all-noise input yields an empty basis.
    """
    tol, scale = _cut(tol, scale)
    v = numeric_array(vectors, "singular values' input", (None, None), "biufc", finite=True)
    if v.size == 0:
        return v[:, :0]
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    return u[:, :singular_rank(s, tol, scale)]


def value_keys(values: np.ndarray) -> list[tuple]:
    """Hashable key of each row of a 2-D complex array: real and imaginary parts to 9 digits."""
    v = np.ascontiguousarray(values, dtype=complex)
    parts = np.round(v.view(np.float64), 9)     # re, im interleaved
    return [tuple(row) for row in parts.reshape(len(v), -1).tolist()]


def _cluster_values(values: np.ndarray, tol: float) -> list[list[int]]:
    """Greedy clustering of complex scalars; returns index groups."""
    points = values.tolist()
    groups: list[list[int]] = []
    reps: list[complex] = []
    for idx in np.lexsort((values.imag, values.real)).tolist():
        for g, r in zip(groups, reps):
            if abs(points[idx] - r) <= tol:
                g.append(idx)
                break
        else:
            groups.append([idx])
            reps.append(points[idx])
    return groups


def joint_eigenspace(ops: np.ndarray, values, width: int, tol: Tolerances,
                     scale: float) -> np.ndarray:
    """Orthonormal basis of the joint eigenspace of an ``(r, n, n)`` stack at ``values``.

    The :func:`nullspace` of the stacked ``op_i - values_i I``, cut as a
    cluster (``tol.cluster * scale``, floored by ``tol.rank``); real values
    keep a real kernel.  A kernel thinner than ``width`` means a defective
    operator.
    """
    values = np.asarray(values)
    if not values.imag.any():
        values = values.real
    n = ops.shape[-1]
    kernel = nullspace((ops - values[:, None, None] * np.eye(n)).reshape(-1, n),
                       max(tol.rank, tol.cluster * scale / max(scale, 1.0)), scale)
    if kernel.shape[1] < width:
        raise NumericalAbort(f"defective operator: eigenvalue {np.round(values, 6)} has "
                             f"geometric multiplicity {kernel.shape[1]} < algebraic {width}")
    return kernel[:, :width]


def joint_eigenvalues(ops: np.ndarray, tol: Tolerances, scale: float) -> list[tuple[tuple, int]]:
    """Joint eigenvalue clusters of a commuting ``(r, n, n)`` stack: (values, width) pairs.

    The first operator's eigenvalues are clustered at ``tol.cluster * scale``
    and valued at their means; each later operator, compressed to a
    cluster's joint eigenspace, splits it.  One operator costs no SVD.
    """
    # an eigenspace known to cluster accuracy eps is off by eps * scale / gap:
    # with clusters sqrt(eps) * scale apart, a commuting operator keeps it
    # invariant to sqrt(eps) * scale
    invariance_tol = tol.cluster ** 0.5 * max(scale, 1.0)
    clusters: list = [((), ops.shape[-1])]
    for i, op in enumerate(ops):
        refined = []
        for vals, width in clusters:
            m = op
            if i:
                w = joint_eigenspace(ops[:i], vals, width, tol, scale)
                m = w.conj().T @ op @ w
                invariance = np.abs(op @ w - w @ m).max()
                if invariance > invariance_tol:
                    raise NumericalAbort(f"joint subspace is not invariant (residual "
                                         f"{invariance:.3e}); operators may be defective")
            eigvals = np.linalg.eigvals(m)
            # sum / len is np.mean's own arithmetic, without its overhead
            refined += [(vals + (eigvals[g].sum() / len(g),), len(g))
                        for g in _cluster_values(eigvals, tol.cluster * scale)]
        clusters = refined
    return clusters
