"""Rank-one catalog: block embeddings, splitso decompositions, expected tables.

Base cases: a Fuchsian genus-2 group mapped either through the adjoint
SL(2,R) -> SO(2,1) into the real-plane block of o(m,1,F), or through the
Cayley transform SL(2,R) -> SU(1,1) into the complex-line block of
o(m,1,F) for F = C, H.  Expected centralizer/center dimensions come from
the classical descriptions and are compared against computed values in
the test suite.  Octonionic rows are documentation only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, ExcludedFamilyError, FlexcheckError, NumericalAbort, Tolerances
from .liealg import _form_matrix, _indefinite_basis, build_classical
from .scalars import Field, Quaternion, field_units, left_block, realify
from .surface import (
    SurfaceRepresentation,
    fuchsian_genus2,
    standard_presentation,
    surface_representation,
)

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
# Catalog cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogCase:
    name: str
    family: str                  # "so" | "su" | "sp" | "f4"
    m: int
    stabilized: str              # "rplane" | "cline"
    computable: bool
    centralizer_name: str
    centralizer_dim: int
    center_dim: int
    expected_verdict: str
    note: str = ""


def expected_table(family: str, stabilized: str, m: int) -> CatalogCase:
    """Static expectations for the centralizer, its center, and the verdict."""
    if family == "so":
        if stabilized != "rplane":
            raise FlexcheckError("so(m,1) only has the real-plane case")
        zdim = (m - 2) * (m - 3) // 2
        cdim = 1 if m == 4 else 0
        return CatalogCase(
            f"so{m}1-rplane", "so", m, "rplane", True,
            f"O({m - 2})", zdim, cdim, "flexible")
    if family == "su" and stabilized == "rplane":
        zdim = (m - 2) ** 2
        cdim = 0 if m == 2 else 1
        return CatalogCase(
            f"su{m}1-rplane", "su", m, "rplane", True,
            f"S(U(1) x U({m - 2}))", zdim, cdim, "flexible")
    if family == "su" and stabilized == "cline":
        zdim = (m - 1) ** 2
        return CatalogCase(
            f"su{m}1-cline", "su", m, "cline", True,
            f"S(U(1) x U({m - 1}))", zdim, 1, "rigid",
            note="rigid for the Fuchsian (maximal) base representation")
    if family == "sp" and stabilized == "rplane":
        k = m - 2
        zdim = 3 + k * (2 * k + 1)
        return CatalogCase(
            f"sp{m}1-rplane", "sp", m, "rplane", True,
            f"Sp(1) x Sp({m - 2})", zdim, 0, "flexible")
    if family == "sp" and stabilized == "cline":
        k = m - 1
        zdim = 1 + k * (2 * k + 1)
        return CatalogCase(
            f"sp{m}1-cline", "sp", m, "cline", True,
            f"U(1) x Sp({m - 1})", zdim, 1, "flexible")
    if family == "f4":
        if stabilized == "rplane":
            return CatalogCase(
                "f4-rplane", "f4", m, "rplane", False, "G2", 14, 0, "flexible",
                note="octonionic case documented only; not computed")
        return CatalogCase(
            "f4-cline", "f4", m, "cline", False, "Spin(6)", 15, 0, "flexible",
            note="octonionic case documented only; not computed")
    raise FlexcheckError(f"no catalog entry for {family}/{stabilized}")


def default_cases() -> list[CatalogCase]:
    """Classical cases at desk scale plus the documented octonionic rows."""
    cases = []
    for m in (3, 4):
        cases.append(expected_table("so", "rplane", m))
    for m in (2, 3, 4):
        cases.append(expected_table("su", "rplane", m))
        cases.append(expected_table("su", "cline", m))
    for m in (2, 3):
        cases.append(expected_table("sp", "rplane", m))
        cases.append(expected_table("sp", "cline", m))
    cases.append(expected_table("f4", "rplane", 2))
    cases.append(expected_table("f4", "cline", 2))
    return cases


def find_case(name: str) -> CatalogCase:
    for case in default_cases():
        if case.name == name:
            return case
    raise FlexcheckError(f"unknown catalog case {name!r}; see `flexcheck catalog`")


# ---------------------------------------------------------------------------
# Base embeddings
# ---------------------------------------------------------------------------

_SL2_BASIS = [
    np.array([[1.0, 0.0], [0.0, -1.0]]) / np.sqrt(2.0),
    np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0),
    np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0),
]
_SL2_GRAM_INV = np.diag([1.0, 1.0, -1.0])
_CAYLEY = np.array([[1.0, -1.0j], [1.0, 1.0j]])
_CAYLEY_INV = np.linalg.inv(_CAYLEY)


def sl2_to_so21(m: np.ndarray) -> np.ndarray:
    """Adjoint image of SL(2,R) in SO(2,1), basis with trace form diag(1,1,-1)."""
    minv = np.linalg.inv(m)
    out = np.zeros((3, 3))
    for j, x in enumerate(_SL2_BASIS):
        moved = m @ x @ minv
        out[:, j] = _SL2_GRAM_INV @ np.array([np.trace(moved @ y) for y in _SL2_BASIS])
    return out


def sl2_to_su11(m: np.ndarray) -> np.ndarray:
    """Cayley conjugation SL(2,R) -> SU(1,1)."""
    return _CAYLEY @ m.astype(complex) @ _CAYLEY_INV


def embed_base(case: CatalogCase, tol: Tolerances = DEFAULT):
    """(model, embedding) for a catalog case; embedding maps SL(2,R) matrices."""
    if not case.computable:
        raise ExcludedFamilyError(f"{case.name}: {case.note}")
    m = case.m
    fld = {"so": Field.REAL, "su": Field.COMPLEX, "sp": Field.QUATERNION}[case.family]
    model = build_classical(case.family, m, 1, tol=tol)
    n = m + 1
    if case.stabilized == "rplane":
        corner, to_block = 3, sl2_to_so21
    elif fld is Field.REAL:
        raise FlexcheckError("the complex-line case needs F = C or H")
    else:
        corner, to_block = 2, sl2_to_su11

    def embedding(g: np.ndarray) -> np.ndarray:
        image = np.eye(n, dtype=float if fld is Field.REAL else complex)
        image[n - corner:, n - corner:] = to_block(g)
        if fld is Field.QUATERNION:
            image = [[Quaternion(v.real, v.imag, 0.0, 0.0) for v in row] for row in image]
        return realify(image, fld)

    return model, embedding


def build_case_representation(
    case: CatalogCase | str,
    genus: int = 2,
    tol: Tolerances = DEFAULT,
) -> SurfaceRepresentation:
    """Fuchsian genus-2 group composed with the case's block embedding."""
    if isinstance(case, str):
        case = find_case(case)
    if genus != 2:
        raise FlexcheckError(
            "catalog representations are built at genus 2 (octagon construction); "
            "supply explicit generator matrices for other genera")
    model, embedding = embed_base(case, tol)
    base = fuchsian_genus2(tol)
    images = [embedding(g) for g in base.images]
    return surface_representation(standard_presentation(2), model, images, tol=tol)
