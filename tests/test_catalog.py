from dataclasses import replace

import numpy as np
import pytest

from flexcheck.config import DEFAULT, ExcludedFamilyError, FlexcheckError, NumericalAbort
from flexcheck.catalog import (
    build_case_representation,
    default_cases,
    embed_base,
    expected_table,
    find_case,
)
from flexcheck.scalars import Field
from flexcheck.surface import _expm, adjoint_module
from flexcheck.toledo import root_form
from reference import hom_bracket_closed_form, splitso


def test_splitso_dims():
    assert splitso(4, 1, Field.REAL, 2).dims == (1, 3, 6)
    assert splitso(2, 1, Field.COMPLEX, 1).dims == (1, 4, 4)
    assert splitso(2, 1, Field.QUATERNION, 1).dims == (3, 10, 8)
    with pytest.raises(FlexcheckError):
        splitso(2, 1, Field.REAL, 2)
    with pytest.raises(FlexcheckError):
        splitso(2, 1, "x", 1)
    with pytest.raises(ExcludedFamilyError):
        splitso(2, 1, "O", 1)
    with pytest.raises(ExcludedFamilyError):
        splitso(2, 1, "o", 1)


def test_splitso_blocks_are_subalgebras(rng):
    dec = splitso(4, 1, Field.REAL, 2)
    for block in (dec.compact_block, dec.indefinite_block):
        for x in block:
            for y in block:
                br = x @ y - y @ x
                # bracket stays inside the span of the block
                cols = np.stack([b.reshape(-1) for b in block], axis=1)
                coef, *_ = np.linalg.lstsq(cols, br.reshape(-1), rcond=None)
                assert np.abs(cols @ coef - br.reshape(-1)).max() < 1e-10


@pytest.mark.parametrize("m,q,fld,p", [
    (4, 1, Field.REAL, 2),
    (2, 1, Field.COMPLEX, 1),
    (2, 1, Field.QUATERNION, 1),
])
def test_hom_block_bracket_closed_form(m, q, fld, p, rng):
    dec = splitso(m, q, fld, p)
    rows, cols = p + q, m - p
    for _ in range(100):
        b, c = rng.standard_normal((2, rows, cols, fld.dim))
        x, y = dec.hom_element(b), dec.hom_element(c)
        lhs = x @ y - y @ x
        rhs = hom_bracket_closed_form(dec, b, c)
        assert np.abs(lhs - rhs).max() < 1e-10 * max(np.abs(lhs).max(), 1.0)


def test_expected_table_formulas():
    row = expected_table("so", "rplane", 5)
    assert row.centralizer_name == "O(3)" and row.centralizer_dim == 3
    assert row.center_dim == 0 and row.expected_verdict == "flexible"
    row = expected_table("su", "rplane", 2)
    assert row.center_dim == 0 and row.expected_verdict == "flexible"
    row = expected_table("su", "cline", 3)
    assert row.center_dim == 1 and row.expected_verdict == "rigid"
    row = expected_table("sp", "cline", 3)
    assert row.centralizer_dim == 1 + 10 and row.expected_verdict == "flexible"


def test_expected_table_names_the_integer_m():
    # m goes through operator.index: True was named "soTrue1-rplane", and m = 0 was accepted
    assert expected_table("so", "rplane", True).name == "so11-rplane"
    assert expected_table("su", "rplane", np.int64(3)) == expected_table("su", "rplane", 3)
    with pytest.raises(FlexcheckError, match="m must be at least 1, got 0"):
        expected_table("su", "rplane", 0)


def test_octonionic_rows_are_documented_not_computed():
    f4 = find_case("f4-rplane")
    assert not f4.computable
    with pytest.raises(ExcludedFamilyError):
        embed_base(f4)
    spin = find_case("f4-cline")
    assert spin.centralizer_name == "Spin(6)"


def test_centralizer_table_all_classical_cases(case_pipeline):
    for case in default_cases():
        if not case.computable:
            continue
        rep, z, c, dec = case_pipeline(case.name)
        assert z.dim == case.centralizer_dim, case.name
        assert c.dim == case.center_dim, case.name


def _homomorphism_residual(embedding, rng: np.random.Generator, samples: int = 8) -> float:
    """Largest |e(gh) - e(g) e(h)| over random SL(2,R) pairs g, h."""
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal((2, 2)) * 0.4
        x -= np.trace(x) / 2.0 * np.eye(2)
        y = rng.standard_normal((2, 2)) * 0.4
        y -= np.trace(y) / 2.0 * np.eye(2)
        g, h = _expm(x), _expm(y)
        worst = max(worst, float(np.abs(embedding(g @ h) - embedding(g) @ embedding(h)).max()))
    return worst


def test_embeddings_are_homomorphisms(rng):
    for name in ("su21-cline", "su31-rplane", "sp21-cline", "sp31-rplane", "so41-rplane"):
        model, emb = embed_base(find_case(name))
        assert _homomorphism_residual(emb, rng) < 1e-8


def test_case_model_build_uses_callers_rank_tolerance():
    # a rank cutoff above 1 makes every Killing matrix singular, so the
    # caller's tol.rank must abort the build of su(2,1) itself, before the
    # Fuchsian group's sl(2,R)
    tol = replace(DEFAULT, rank=2.0)
    with pytest.raises(NumericalAbort, match=r"su\(2,1\): Killing matrix is singular"):
        build_case_representation("su21-cline", tol=tol)


def test_composed_relator_residual(case_pipeline):
    for name in ("su21-cline", "so41-rplane", "sp21-cline"):
        rep, *_ = case_pipeline(name)
        assert rep.relator_residual < 1e-8


def test_su_cline_toledo_scaling(case_pipeline):
    rep2, _, _, dec2 = case_pipeline("su21-cline")
    rep3, _, _, dec3 = case_pipeline("su31-cline")
    root2, root3 = dec2.roots[0], dec3.roots[0]
    t2 = root_form(rep2, adjoint_module(rep2), root2).toledo
    t3 = root_form(rep3, adjoint_module(rep3), root3).toledo
    assert abs(t3) == 2 * abs(t2)


def test_sp_cline_has_vanishing_toledo_root(case_pipeline):
    for name in ("sp21-cline", "sp31-cline"):
        rep, _, _, dec = case_pipeline(name)
        adj = adjoint_module(rep)
        reports = [root_form(rep, adj, r) for r in dec.roots]
        assert any(rr.toledo == 0 and rr.signature == 0 for rr in reports), name


def test_catalog_rejects_other_genus():
    # a catalog case is the genus-2 octagon group: the builder takes no genus at all
    for call in (lambda: build_case_representation("su21-cline", genus=2),
                 lambda: build_case_representation("su21-cline", 3)):
        with pytest.raises(TypeError):
            call()


def test_unknown_case():
    with pytest.raises(FlexcheckError):
        find_case("e8-heterotic")
