"""Reference constructions that the tests check the pipeline against.

None of these is a verdict stage.  Each is an independent route to a fact
the pipeline also reaches:

- ``splitso`` and ``hom_bracket_closed_form``: the three-block
  decomposition o(m,q,F) = o(m-p,F) + o(p,q,F) + Hom_F(F^{m-p}, F^{p+q})
  and the closed-form bracket of two Hom-block elements;
- ``lagrangian_pair_check`` and ``scan_invariant_lagrangians``: an
  invariant Lagrangian pair, which forces T = 0 (Burger-Iozzi-Wienhard);
- ``cup_square``: the class of [u cup u] in H^2 of the adjoint module;
- ``signature``: the sign count of a symmetric matrix's eigenvalues;
- ``bracket_coords``, ``killing_form``, ``torus_gram``,
  ``root_eigenspace``, ``invariant_vectors`` and ``root_gram``: the
  bracket, Killing pairings, eigenspaces, H^0 and cup-form Gram that the
  pipeline uses internally and does not keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flexcheck.config import DEFAULT, ExcludedFamilyError, FlexcheckError, NumericalAbort, Tolerances
from flexcheck.liealg import _form_matrix, _indefinite_basis
from flexcheck.linalg import nullspace, orthonormal_columns, rank, span_and_kernel
from flexcheck.roots import REAL, RootDatum
from flexcheck.scalars import Field, field_units, left_block, realify
from flexcheck.surface import CohomologyWorkspace, Module, cup_pairing, restricted_module
from flexcheck.toledo import gram_matrix


def signature(mat: np.ndarray) -> int:
    """Positive minus negative eigenvalues of a symmetric matrix."""
    ev = np.linalg.eigvalsh(mat)
    return int(np.sum(ev > 0)) - int(np.sum(ev < 0))


def bracket_coords(model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of [x, y] from the structure constants."""
    return np.einsum("i,j,ijk->k", x, y, model.structure)


def killing_form(model, x: np.ndarray, y: np.ndarray) -> float:
    return float(x @ model.killing @ y)


def torus_gram(dec) -> np.ndarray:
    """Killing Gram matrix of a decomposition's torus basis."""
    return dec.torus.coords @ dec.model.killing @ dec.torus.coords.T


def root_eigenspace(dec, values, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the joint eigenspace of ad(torus) at ``values``."""
    ads = dec.model.ad(dec.torus.coords)
    shifted = ads - np.asarray(values, dtype=complex)[:, None, None] * np.eye(dec.model.dim)
    return nullspace(shifted.reshape(-1, dec.model.dim), tol)


def invariant_vectors(module: Module, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Orthonormal basis of H^0, the vectors every action fixes, cut as in ``cohomology``."""
    cob = np.vstack([a - np.eye(module.dim) for a in module.actions])
    return span_and_kernel(cob, tol.rank, scale=1.0)[1]


def root_gram(ws: CohomologyWorkspace, root: RootDatum, tol: Tolerances = DEFAULT) -> np.ndarray:
    """The Gram matrix whose signature ``root_form`` reads, for a real or imaginary root."""
    return gram_matrix(ws, root.omega.real if root.classification == REAL else root.omega.imag, tol)


# ---------------------------------------------------------------------------
# splitso: o(m,q,F) = o(m-p,F) + o(p,q,F) + Hom_F(F^{m-p}, F^{p+q})
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitsoDecomposition:
    field: Field
    m: int
    q: int
    p: int
    compact_block: list          # realified basis of o(m-p, F), upper-left
    indefinite_block: list       # realified basis of o(p, q, F), lower-right
    hom_block: list              # realified basis of the off-diagonal block
    hom_index: list              # (row k in F^{p+q}, col l in F^{m-p}, unit) per basis element

    @property
    def dims(self) -> tuple[int, int, int]:
        return (len(self.compact_block), len(self.indefinite_block), len(self.hom_block))

    def hom_element(self, b) -> np.ndarray:
        """Realified block matrix for B in F^{(p+q) x (m-p)}.

        ``b`` has shape (p+q, m-p) with entries scalars of the field
        (real or complex numbers, or Quaternion instances).
        """
        return _hom_matrix(self.field, self.m, self.q, self.p, realify(b, self.field))


def _hom_matrix(fld: Field, m: int, q: int, p: int, rb: np.ndarray) -> np.ndarray:
    """[[0, -B* e], [B, 0]] realified, blocks (m-p) + (p+q), from rb = R(B).

    Realification turns B* into R(B)^T and e into the realified form.
    """
    d = fld.dim
    top = d * (m - p)
    out = np.zeros((d * (m + q), d * (m + q)))
    out[top:, :top] = rb
    out[:top, top:] = -rb.T @ _form_matrix(fld, p, q)
    return out


def _on_diagonal(mats, offset: int, total: int, d: int) -> list:
    """Realified square matrices placed at a diagonal offset of a total x total matrix."""
    out = []
    for x in mats:
        big = np.zeros((d * total, d * total))
        block = slice(d * offset, d * offset + len(x))
        big[block, block] = x
        out.append(big)
    return out


def splitso(m: int, q: int, fld: Field | str, p: int) -> SplitsoDecomposition:
    """Three-block decomposition of o(m, q, F) along an F^p x F^{m-p} split."""
    if isinstance(fld, str):
        if fld.strip().upper() == "O":
            raise ExcludedFamilyError("octonionic splitso is excluded")
        fld = Field.parse(fld)
    if not (0 < p < m):
        raise FlexcheckError("splitso needs 0 < p < m")
    total = m + q
    top = m - p
    d = fld.dim
    compact = _on_diagonal(_indefinite_basis(fld, top, 0), 0, total, d)
    lower = _on_diagonal(_indefinite_basis(fld, p, q), top, total, d)
    hom = []
    index = []
    for k in range(p + q):
        for l in range(top):
            for u in field_units(fld):
                rb = np.zeros((d * (p + q), d * top))
                rb[d * k : d * k + d, d * l : d * l + d] = left_block(u, fld)
                hom.append(_hom_matrix(fld, m, q, p, rb))
                index.append((k, l, u))
    dims = (len(compact), len(lower), len(hom))
    formula = {
        Field.REAL: lambda n: n * (n - 1) // 2,
        Field.COMPLEX: lambda n: n * n,
        Field.QUATERNION: lambda n: n * (2 * n + 1),
    }[fld]
    if sum(dims) != formula(total):
        raise NumericalAbort(
            f"splitso dims {dims} do not sum to dim o({m},{q},{fld.value}) = {formula(total)}")
    return SplitsoDecomposition(fld, m, q, p, compact, lower, hom, index)


def hom_bracket_closed_form(dec: SplitsoDecomposition, b, c):
    """Expected bracket of two hom-block elements: diag(C*eB - B*eC, CB*e - BC*e).

    b, c are (p+q) x (m-p) matrices over the field; the closed form is
    evaluated on their realifications, where B* becomes R(B)^T.
    """
    fld = dec.field
    rb, rc = realify(b, fld), realify(c, fld)
    e = _form_matrix(fld, dec.p, dec.q)
    top = fld.dim * (dec.m - dec.p)
    out = np.zeros((fld.dim * (dec.m + dec.q),) * 2)
    out[:top, :top] = rc.T @ e @ rb - rb.T @ e @ rc
    out[top:, top:] = rc @ rb.T @ e - rb @ rc.T @ e
    return out


# ---------------------------------------------------------------------------
# Invariant Lagrangian pairs
# ---------------------------------------------------------------------------

def lagrangian_pair_check(
    module: Module,
    omega: np.ndarray,
    l1: np.ndarray,
    l2: np.ndarray,
    tol: Tolerances = DEFAULT,
) -> bool:
    """True iff l1, l2 are complementary, omega-isotropic and invariant.

    l1, l2 are column bases inside the module's coordinate space; omega is
    the real symplectic form on that space.
    """
    m = module.dim
    if l1.shape[0] != m or l2.shape[0] != m:
        raise NumericalAbort("Lagrangian candidate dimensions do not match the module")
    if l1.shape[1] + l2.shape[1] != m:
        return False
    if rank(np.hstack([l1, l2]), tol.rank) != m:
        return False
    scale = max(float(np.abs(omega).max(initial=0.0)), 1.0)
    for sub in (l1, l2):
        if np.abs(sub.T @ omega @ sub).max(initial=0.0) > 1e-8 * scale:
            return False
        try:
            restricted_module(module, orthonormal_columns(sub, tol.rank), tol)
        except NumericalAbort:
            return False
    return True


def scan_invariant_lagrangians(
    module: Module,
    omega: np.ndarray,
    tol: Tolerances = DEFAULT,
):
    """Search for an invariant Lagrangian pair among commutant eigenspaces.

    Tries each element of an orthonormal basis of the module's commutant,
    then each sum of two of them, and tests the splittings of the space
    into sums of its eigenspaces.  Returns (l1, l2) or None; absence of a
    find is not a proof of absence.  Nothing is drawn at random.
    """
    m = module.dim
    # row-major vec(A X - X A) = (A (x) I - I (x) A^T) vec(X)
    rows = [np.kron(a, np.eye(m)) - np.kron(np.eye(m), a.T) for a in module.actions]
    comm = nullspace(np.vstack(rows), tol.rank)  # vectorized commutant
    d = comm.shape[1]
    candidates = [comm[:, i] for i in range(d)]
    candidates += [comm[:, i] + comm[:, j] for i in range(d) for j in range(i + 1, d)]
    for vec in candidates:
        k = vec.reshape(m, m)                   # invariant operator
        ev, vecs = np.linalg.eig(k)
        real_mask = np.abs(ev.imag) < 1e-9 * max(np.abs(ev).max(), 1.0)
        rounded = np.round(ev.real, 7)
        reals = np.unique(rounded[real_mask])
        # split along each cut between real values: the real eigenvalues up
        # to the cut against the rest; a repeated real eigenvalue may come
        # with complex eigenvectors, so each side is the span of real and
        # imaginary parts
        for cut in reals[:-1]:
            sel = real_mask & (rounded <= cut)
            l1, l2 = (orthonormal_columns(np.hstack([v.real, v.imag]), tol.rank)
                      for v in (vecs[:, sel], vecs[:, ~sel]))
            if l1.shape[1] == l2.shape[1] == m // 2:
                if lagrangian_pair_check(module, omega, l1, l2, tol):
                    return l1, l2
    return None


# ---------------------------------------------------------------------------
# Cup square on the adjoint module
# ---------------------------------------------------------------------------

def cup_square(ws: CohomologyWorkspace, u: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Class of [u cup u] in H^2, as Killing pairings against the H^0 basis.

    Requires the adjoint module; H^2 is identified with H^0 through the
    Killing form (the adjoint module is self-dual).
    """
    if ws.module_dim != ws.rep.model.dim:
        raise FlexcheckError("cup_square is defined on the adjoint module")
    model = ws.rep.model
    h0 = invariant_vectors(ws.module, tol)
    forms = np.einsum("ijk,kl->lij", model.structure, model.killing @ h0)
    return cup_pairing(ws, forms, u, u, tol)
