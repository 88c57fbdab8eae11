"""Tolerance-controlled numerical linear algebra.

Rank decisions use a relative singular-value cutoff; joint eigenvalue
tuples are merged by a clustering tolerance tied to the operator norms.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT, NumericalAbort, Tolerances


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a ``(..., m, n)`` stack, in one SVD call.

    Each value is bit for bit ``np.linalg.norm(slice, 2)``.
    """
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def matrix_scale(a: np.ndarray) -> float:
    """Spectral norm of a matrix, or the largest over a ``(K, m, n)`` stack."""
    a = np.asarray(a)
    return float(spectral_norms(a).max()) if a.size else 0.0


def singular_rank(s: np.ndarray, tol: float = DEFAULT.rank, scale: float = 0.0) -> int:
    """Numerical rank from descending singular values s: how many exceed tol * max(s[0], scale)."""
    return int(np.sum(s > tol * max(s[0] if s.size else 0.0, scale)))


def rank(a: np.ndarray, tol: float = DEFAULT.rank, scale: float = 0.0) -> int:
    """Numerical rank from the singular values alone; ``scale`` floors the cutoff as in nullspace."""
    if a.size == 0:
        return 0
    return singular_rank(np.linalg.svd(a, compute_uv=False), tol, scale)


def nullspace(a: np.ndarray, tol: float = DEFAULT.rank, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of ker(a), columns of the returned matrix.

    Singular values below ``tol * max(sigma_max, scale)`` count as zero;
    pass ``scale`` when the operator may consist entirely of noise (e.g.
    brackets of commuting elements) so the cutoff has an absolute floor.
    A thin SVD serves tall and square input; wide input, such as a
    relator map, needs the full V for its kernel.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[1] == 0:
        raise NumericalAbort("nullspace of an empty operator is undefined")
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    if max(s[0], scale) == 0.0:
        return np.eye(a.shape[1], dtype=a.dtype)
    return vh[singular_rank(s, tol, scale):].conj().T


def span_and_kernel(a: np.ndarray, tol: float = DEFAULT.rank,
                    scale: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the column span and of the kernel of a tall matrix.

    Both come from one thin SVD, with the cutoff of :func:`nullspace` and
    :func:`orthonormal_columns`: the left vectors above it span the
    image, the right vectors below it the kernel.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] < a.shape[1] or a.shape[1] == 0:
        raise NumericalAbort("span_and_kernel needs a tall, nonempty matrix")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = singular_rank(s, tol, scale)
    return u[:, :keep], vh[keep:].conj().T


def orthonormal_columns(vectors: np.ndarray, tol: float = DEFAULT.rank,
                        scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis for the column span of ``vectors``.

    As in :func:`nullspace`, ``scale`` puts an absolute floor under the
    cutoff so an all-noise input yields an empty basis.
    """
    v = np.asarray(vectors)
    if v.size == 0:
        return v.reshape(v.shape[0] if v.ndim == 2 else 0, 0)
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    return u[:, :singular_rank(s, tol, scale)]


def solve_in_span(basis: np.ndarray, vectors: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Coordinates of ``vectors`` (columns) in the column span of ``basis``.

    Raises if a vector does not lie in the span to relative tolerance.
    """
    coeff, _, _, _ = np.linalg.lstsq(basis, vectors, rcond=None)
    resid = basis @ coeff - vectors
    scale = max(np.abs(vectors).max(initial=0.0), 1.0)
    worst = np.abs(resid).max(initial=0.0)
    if worst > tol * scale:
        raise NumericalAbort(
            f"vector outside span: residual {worst:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    return coeff


def value_key(values) -> tuple:
    """Hashable key of a tuple of complex values: real and imaginary parts to 9 digits."""
    return tuple(x for v in values for x in (round(v.real, 9), round(v.imag, 9)))


def _cluster_values(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Greedy clustering of complex scalars; returns index groups."""
    order = np.lexsort((values.imag, values.real))
    groups: list[list[int]] = []
    reps: list[complex] = []
    for idx in order:
        v = values[idx]
        placed = False
        for g, r in zip(groups, reps):
            if abs(v - r) <= tol:
                g.append(idx)
                placed = True
                break
        if not placed:
            groups.append([idx])
            reps.append(v)
    return [np.array(g) for g in groups]


def simultaneous_eigenspaces(
    ops: list[np.ndarray],
    tol: Tolerances = DEFAULT,
    dim: int | None = None,
    scale: float | None = None,
) -> list[tuple[tuple[complex, ...], np.ndarray]]:
    """Joint eigenspace decomposition of pairwise-commuting real operators.

    Returns ``[(eigenvalue tuple, complex orthonormal basis), ...]`` whose
    dimensions sum to the full space.  Raises on non-commuting input or
    when some operator is defective on a joint subspace.  An empty
    operator list needs ``dim`` and yields one eigenspace, the whole
    space, with an empty eigenvalue tuple.  ``scale`` is
    ``matrix_scale`` of the stacked operators; a caller that has it
    passes it on.

    On a real joint subspace (the whole space, and each real eigenspace
    of an earlier operator) the restricted operator is real: its
    eigenvalues come in exact conjugate pairs, a real eigenvalue gets a
    real kernel, and the eigenspace of conj(lambda) is the conjugate of
    the eigenspace of lambda, so only Im lambda > 0 needs a complex SVD.
    """
    if not ops:
        if dim is None:
            raise NumericalAbort("empty operator list: pass dim to fix the ambient space")
        return [((), np.eye(dim, dtype=complex))]
    n = ops[0].shape[0]
    for op in ops:
        if op.shape != (n, n):
            raise NumericalAbort("operators must share one square shape")
    if scale is None:
        scale = matrix_scale(np.stack(ops))
    if scale == 0.0:
        return [(tuple(0.0 + 0.0j for _ in ops), np.eye(n, dtype=complex))]
    ctol = tol.cluster * scale
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            comm = ops[i] @ ops[j] - ops[j] @ ops[i]
            if matrix_scale(comm) > tol.cluster * scale * scale:
                raise NumericalAbort(
                    f"operators {i} and {j} do not commute: |[A,B]| = {matrix_scale(comm):.3e}"
                )

    def eigenspace(m: np.ndarray, lam: complex, mult: int) -> np.ndarray:
        sub = nullspace(m - lam * np.eye(m.shape[0]),
                        tol=max(tol.rank, ctol / max(scale, 1.0)), scale=scale)
        if sub.shape[1] < mult:
            raise NumericalAbort(
                f"defective operator: eigenvalue {lam:.6g} has geometric multiplicity "
                f"{sub.shape[1]} < algebraic {mult}"
            )
        return sub[:, :mult]

    spaces: list[tuple[tuple[complex, ...], np.ndarray]] = [((), np.eye(n))]
    for op in ops:
        refined: list[tuple[tuple[complex, ...], np.ndarray]] = []
        for vals, w in spaces:
            real = not np.iscomplexobj(w)
            m = w.T @ op @ w if real else w.conj().T @ op.astype(complex) @ w
            invariance = np.abs(op @ w - w @ m).max()
            if invariance > 1e3 * tol.cluster * max(scale, 1.0):
                raise NumericalAbort(
                    f"joint subspace is not invariant (residual {invariance:.3e}); "
                    "operators may be defective"
                )
            eigvals = np.linalg.eigvals(m)
            groups = _cluster_values(eigvals, ctol)
            lams = [complex(eigvals[g].mean()) for g in groups]
            subs: dict[int, np.ndarray] = {}
            for i, lam in enumerate(lams):
                if real and lam.imag < -ctol:
                    continue                  # conjugated from its partner below
                # a real cluster of a real m keeps a real kernel
                subs[i] = eigenspace(m, lam.real if real and lam.imag <= ctol else lam,
                                     len(groups[i]))
            for i, lam in enumerate(lams):
                if i not in subs:
                    partner = next((j for j, mu in enumerate(lams)
                                    if j in subs and abs(mu - lam.conjugate()) <= ctol
                                    and len(groups[j]) == len(groups[i])), None)
                    subs[i] = (subs[partner].conj() if partner is not None
                               else eigenspace(m, lam, len(groups[i])))
                refined.append((vals + (lam,), w @ subs[i]))
        spaces = refined

    total = sum(w.shape[1] for _, w in spaces)
    if total != n:
        raise NumericalAbort(f"eigenspace dimensions sum to {total}, expected {n}")
    spaces = [(vals, w.astype(complex, copy=False)) for vals, w in spaces]
    spaces.sort(key=lambda item: value_key(item[0]))
    return spaces

