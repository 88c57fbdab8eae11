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
  ``root_eigenspace``, ``invariant_vectors``, ``coboundaries`` and
  ``cocycles``: the bracket, Killing pairings, eigenspaces, H^0, B^1 and
  Z^1 that the pipeline uses internally and does not keep;
- ``root_cohomology``, ``root_gram`` and ``gram_toledo``: a root module's
  Fox-calculus cohomology and the cup-form Gram on its H^1, whose
  signature is 4T: the route to T that the lifted relator replaced in
  the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flexcheck.config import DEFAULT, ExcludedFamilyError, FlexcheckError, NumericalAbort, Tolerances
from flexcheck.liealg import _form_matrix, _indefinite_basis
from flexcheck.linalg import nullspace, orthonormal_columns, rank, span_and_kernel
from flexcheck.roots import REAL, RootDatum
from flexcheck.scalars import Field, realify
from flexcheck.surface import CohomologyWorkspace, cohomology, cup_pairing, restricted_module
from flexcheck.toledo import gram_matrix, symplectic_form_report


def components(z) -> np.ndarray:
    """The (n, k, 2) components (re, im) of a complex matrix, as realify takes them over C."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1)


def signature(mat: np.ndarray) -> int:
    """Positive minus negative eigenvalues of a symmetric matrix."""
    ev = np.linalg.eigvalsh(mat)
    return int(np.sum(ev > 0)) - int(np.sum(ev < 0))


def bracket_coords(model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of [x, y] from the structure constants."""
    return np.einsum("i,j,ijk->k", x, y, model.structure)


def killing_form(model, x: np.ndarray, y: np.ndarray) -> float:
    return float(x @ model.killing @ y)


def torus_gram(torus) -> np.ndarray:
    """Killing Gram matrix of a torus handle's basis."""
    return torus.coords @ torus.model.killing @ torus.coords.T


def root_eigenspace(torus, values, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the joint eigenspace of ad(torus) at ``values``."""
    model = torus.model
    ads = model.ad(torus.coords)
    shifted = ads - np.asarray(values, dtype=complex)[:, None, None] * np.eye(model.dim)
    return nullspace(shifted.reshape(-1, model.dim), tol)


def _coboundary_svd(actions: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """B^1 and H^0 from the stacked coboundary map v -> ((A_s - 1) v)_s, cut as in ``cohomology``."""
    cob = np.vstack([a - np.eye(actions.shape[-1]) for a in actions])
    return span_and_kernel(cob, tol.rank, scale=1.0)


def invariant_vectors(actions: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Orthonormal basis of H^0, the vectors every action fixes."""
    return _coboundary_svd(actions, tol)[1]


def coboundaries(ws: CohomologyWorkspace, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Orthonormal columns spanning B^1, the ones ``cohomology`` takes H^1 orthogonal to."""
    return _coboundary_svd(ws.actions, tol)[0]


def cocycles(ws: CohomologyWorkspace, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Orthonormal cocycle columns [H^1 | B^1], spanning the kernel of the relator map."""
    return np.hstack([ws.h1, coboundaries(ws, tol)])


def root_cohomology(rep, adjoint: np.ndarray, root: RootDatum,
                    tol: Tolerances = DEFAULT) -> CohomologyWorkspace:
    """H^* of the realified root space of ``root`` under the (2g, dim, dim) adjoint actions."""
    return cohomology(rep, restricted_module(adjoint, root.real_basis, tol), tol)


def _root_omega(root: RootDatum) -> np.ndarray:
    return root.omega.real if root.classification == REAL else root.omega.imag


def root_gram(ws: CohomologyWorkspace, root: RootDatum, tol: Tolerances = DEFAULT) -> np.ndarray:
    """The cup-form Gram matrix on a real or imaginary root's H^1, with signature 4T."""
    return gram_matrix(ws, _root_omega(root), tol)


def gram_toledo(rep, adjoint: np.ndarray, root: RootDatum, tol: Tolerances = DEFAULT):
    """T of a real or imaginary root read off the Gram signature, and the module's H^1 dimension."""
    report = symplectic_form_report(root_cohomology(rep, adjoint, root, tol), _root_omega(root), tol)
    return report.toledo, report.h1_dim


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
    hom_index: list              # (row k in F^{p+q}, col l in F^{m-p}, unit index) per element

    @property
    def dims(self) -> tuple[int, int, int]:
        return (len(self.compact_block), len(self.indefinite_block), len(self.hom_block))

    def hom_element(self, b) -> np.ndarray:
        """Realified block matrix for B in F^{(p+q) x (m-p)}.

        ``b`` is the (p+q, m-p, d) array of the components of B.
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
        tag = fld.strip().upper()
        if tag == "O":
            raise ExcludedFamilyError("octonionic splitso is excluded")
        if tag not in {f.value for f in Field}:
            raise FlexcheckError(f"unknown field tag {tag!r}, expected R, C or H")
        fld = Field(tag)
    if not (0 < p < m):
        raise FlexcheckError("splitso needs 0 < p < m")
    total = m + q
    top = m - p
    d = fld.dim
    compact = _on_diagonal(_indefinite_basis(fld, top, 0), 0, total, d)
    lower = _on_diagonal(_indefinite_basis(fld, p, q), top, total, d)
    units = realify(np.eye(d)[None], fld)  # the blocks of 1, i, j, k side by side
    hom = []
    index = []
    for k in range(p + q):
        for l in range(top):
            for a in range(d):
                rb = np.zeros((d * (p + q), d * top))
                rb[d * k : d * k + d, d * l : d * l + d] = units[:, d * a : d * a + d]
                hom.append(_hom_matrix(fld, m, q, p, rb))
                index.append((k, l, a))
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

    b, c are (p+q) x (m-p) matrices over the field, as arrays of
    components; the closed form is evaluated on their realifications,
    where B* becomes R(B)^T.
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
    actions: np.ndarray,
    omega: np.ndarray,
    l1: np.ndarray,
    l2: np.ndarray,
    tol: Tolerances = DEFAULT,
) -> bool:
    """True iff l1, l2 are complementary, omega-isotropic and invariant.

    l1, l2 are column bases inside the module's coordinate space; omega is
    the real symplectic form on that space.
    """
    m = actions.shape[-1]
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
            restricted_module(actions, orthonormal_columns(sub, tol.rank), tol)
        except NumericalAbort:
            return False
    return True


def scan_invariant_lagrangians(
    actions: np.ndarray,
    omega: np.ndarray,
    tol: Tolerances = DEFAULT,
):
    """Search for an invariant Lagrangian pair among commutant eigenspaces.

    Tries each element of an orthonormal basis of the module's commutant,
    then each sum of two of them, and tests the splittings of the space
    into sums of its eigenspaces.  Returns (l1, l2) or None; absence of a
    find is not a proof of absence.  Nothing is drawn at random.
    """
    m = actions.shape[-1]
    # row-major vec(A X - X A) = (A (x) I - I (x) A^T) vec(X)
    rows = [np.kron(a, np.eye(m)) - np.kron(np.eye(m), a.T) for a in actions]
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
                if lagrangian_pair_check(actions, omega, l1, l2, tol):
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
    h0 = invariant_vectors(ws.actions, tol)
    forms = np.einsum("ijk,kl->lij", model.structure, model.killing @ h0)
    return cup_pairing(ws, forms, u, u, tol)
