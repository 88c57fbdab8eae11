"""Rank-one catalog: block embeddings and expected tables.

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

from .config import DEFAULT, ExcludedFamilyError, FlexcheckError, Tolerances
from .liealg import build_classical
from .scalars import Field, realify
from .surface import (
    SurfaceRepresentation,
    fuchsian_genus2,
    standard_presentation,
    surface_representation,
)

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
        image = np.eye(n, dtype=complex)
        image[n - corner:, n - corner:] = to_block(g)
        zero = np.zeros((n, n))
        return realify(np.stack([image.real, image.imag, zero, zero], axis=-1)[..., :fld.dim], fld)

    return model, embedding


def build_case_representation(
    case: CatalogCase | str,
    *,
    tol: Tolerances = DEFAULT,
) -> SurfaceRepresentation:
    """Fuchsian genus-2 group composed with the case's block embedding."""
    if not isinstance(case, CatalogCase):      # a name; find_case rejects any other value
        case = find_case(case)
    model, embedding = embed_base(case, tol)
    base = fuchsian_genus2(tol)
    images = [embedding(g) for g in base.images]
    return surface_representation(standard_presentation(2), model, images)
