import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest

from flexcheck import liealg
from flexcheck.config import (MODEL_CLOSURE, ExcludedFamilyError, FlexcheckError, NumericalAbort,
                              Tolerances)
from flexcheck.liealg import (
    build_classical,
    center_of,
    centralizer,
    conjugation_limit,
    killing_restriction_nondegenerate,
    subalgebra_from_matrices,
)
from flexcheck.catalog import build_case_representation, default_cases
from flexcheck.linalg import matrix_scale, nullspace
from flexcheck.scalars import Field, realify, right_multiplication_operator
from flexcheck.surface import _expm, standard_presentation, surface_representation
from reference import bracket_coords, components, killing_form


def test_dimensions(models):
    assert models["sl2"].dim == 3
    assert models["su21"].dim == 8
    assert models["so41"].dim == 10
    assert models["sp21"].dim == 21
    assert build_classical("spr", 2).dim == 10


def test_excluded_families():
    with pytest.raises(ExcludedFamilyError):
        build_classical("f4", 4)
    with pytest.raises(ExcludedFamilyError):
        build_classical("g2", 2)


def test_sl2_killing_signature(models):
    ev = np.linalg.eigvalsh(models["sl2"].killing)
    assert int(np.sum(ev > 0)) == 2 and int(np.sum(ev < 0)) == 1


def test_so3_killing_negative_definite(models):
    ev = np.linalg.eigvalsh(models["so3"].killing)
    assert np.all(ev < 0)


def test_killing_symmetry_and_invariance(models, rng):
    m = models["su21"]
    for _ in range(20):
        x, y, z = (rng.standard_normal(m.dim) for _ in range(3))
        assert abs(killing_form(m, x, y) - killing_form(m, y, x)) < 1e-10
        lhs = killing_form(m, bracket_coords(m, z, x), y)
        rhs = -killing_form(m, x, bracket_coords(m, z, y))
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)


def test_jacobi_residual(models):
    for m in models.values():
        c = m.structure
        jac = (np.einsum("ijm,mkl->ijkl", c, c)
               + np.einsum("jkm,mil->ijkl", c, c)
               + np.einsum("kim,mjl->ijkl", c, c))
        assert np.abs(jac).max() < 1e-10 * max(np.abs(c).max() ** 2, 1.0) * m.dim


def _closure_error_and_jacobi_factor(model):
    """The largest entry delta of [X_i, X_j] - sum_m c_ij^m X_m, and the
    factor 3 |pinv|_inf (dim max|c| + 2 N max|X|) that bounds every Jacobi
    sum of c by factor * delta (the bound in liealg._finish_model)."""
    basis, c, dim = model.basis, model.structure, model.dim
    flat = basis.reshape(dim, -1)
    delta = 0.0
    for i, x in enumerate(basis):  # one row of brackets at a time
        brackets = np.einsum("ab,jbc->jac", x, basis) - np.einsum("jab,bc->jac", basis, x)
        delta = max(delta, float(np.abs(brackets.reshape(dim, -1) - c[i] @ flat).max()))
    pinv = np.linalg.pinv(flat.T)
    factor = 3 * np.abs(pinv).sum(axis=1).max() * (
        dim * np.abs(c).max() + 2 * model.realified_size * np.abs(basis).max())
    return delta, factor


def _assert_closure_check_implies_jacobi(model):
    delta, factor = _closure_error_and_jacobi_factor(model)
    scale = max(np.abs(model.basis).max(), 1.0) ** 2
    jacobi_threshold = 1e-10 * max(np.abs(model.structure).max(), 1.0) ** 2 * model.dim
    # the measured error sits far under the closure tolerance ...
    assert delta <= MODEL_CLOSURE * scale / 10, model.name
    # ... and whatever the tolerance lets through keeps every Jacobi sum
    # under the threshold of the Jacobi check the closure check replaced
    assert factor * MODEL_CLOSURE * scale < jacobi_threshold, model.name


def test_closure_check_implies_jacobi_on_the_catalog_groups():
    for case in default_cases():
        if case.computable:
            _assert_closure_check_implies_jacobi(build_classical(case.family, case.m, 1))


def test_closure_check_implies_jacobi_on_the_largest_admitted_group():
    # sl(12,R) is the largest sl(n,R) within the bracket budget; built
    # uncached, so the shared cache does not keep its 23 MB of structure constants
    assert liealg._classical_dim("sl", (13,)) ** 2 * 13 ** 2 > liealg.BRACKET_BUDGET
    _assert_closure_check_implies_jacobi(liealg._construct.__wrapped__("sl", 12))


def test_basis_that_is_not_bracket_closed_is_rejected(models):
    m = models["su21"]
    with pytest.raises(NumericalAbort, match=r"su\(2,1\): basis is not bracket-closed"):
        liealg._finish_model(m.name, m.field, m.ambient, m.family, list(m.basis[:-1]), m.form)


@pytest.mark.parametrize("family", ["su", "so"])
def test_zero_dimensional_groups_are_rejected(family):
    with pytest.raises(FlexcheckError, match="zero-dimensional"):
        build_classical(family, 1, 0)


def test_every_small_group_builds_or_raises_a_flexcheck_error():
    for family, arity in (("sl", 1), ("spr", 1), ("su", 2), ("so", 2), ("sp", 2)):
        for params in itertools.product(range(4), repeat=arity):
            try:
                model = build_classical(family, *params)
            except FlexcheckError:
                continue
            assert model.dim == liealg._classical_dim(family, params) > 0


def test_models_are_built_once_and_shared():
    assert build_classical("su", 2, 1) is build_classical("SU", 2, 1)


def test_shared_model_is_read_only(models):
    m = models["su21"]
    with pytest.raises(ValueError):
        m.basis[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        m.structure[0, 0, 0] = 1.0


def test_bad_parameters_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(FlexcheckError, match="takes 2 parameter"):
            build_classical("su", 2)


@pytest.mark.parametrize("params", [("sl", 2.0), ("su", 2.0, 1), ("so", 3, "1"), ("spr", None)])
def test_non_integer_parameters_raise(params):
    with pytest.raises(FlexcheckError, match="parameters must be integers"):
        build_classical(*params)


def test_numpy_integer_parameters_share_the_cached_model():
    assert build_classical("sl", np.int64(3)) is build_classical("sl", 3)


def test_same_group_is_finished_once(monkeypatch):
    calls = []
    finish = liealg._finish_model

    def counting(*args):
        calls.append(args[0])
        return finish(*args)

    monkeypatch.setattr(liealg, "_finish_model", counting)
    liealg._construct.cache_clear()
    build_classical("so", 3, 2)
    build_classical("so", 3, 2)
    assert calls == ["so(3,2)"]


def test_killing_rank_check_runs_on_every_call():
    build_classical("su", 2, 1)
    with pytest.raises(NumericalAbort, match="Killing matrix is singular"):
        build_classical("su", 2, 1, tol=Tolerances(rank=2.0))


def _count_svds(monkeypatch) -> list:
    """Record the input shape of every np.linalg.svd call from here on."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


def test_cached_build_makes_no_svd(monkeypatch):
    # the Killing singular values are kept on the model; a call only applies tol.rank
    build_classical("su", 2, 1)
    shapes = _count_svds(monkeypatch)
    build_classical("su", 2, 1)
    build_classical("su", 2, 1, tol=Tolerances(rank=1e-6))
    assert shapes == []


def test_ad_matrix_applies_the_bracket(models, rng):
    for model in models.values():
        x, y = rng.standard_normal((2, model.dim))
        assert np.allclose(model.ad(x) @ y, bracket_coords(model, x, y), rtol=0, atol=1e-12)


def _off_span(sub, other) -> float:
    """Largest entry of ``other``'s basis left after projecting onto the span of ``sub``."""
    cols = other.model.matrix(other.coords).reshape(other.dim, -1).T
    base = sub.model.matrix(sub.coords).reshape(sub.dim, -1).T
    return float(np.abs(cols - base @ (base.T @ cols)).max(initial=0.0))


def test_centralizer_su21_block(models, fuchsian, case_pipeline):
    rep, z, c, dec = case_pipeline("su21-cline")
    assert z.dim == 1
    zmat = realify(components(np.diag([-2j, 1j, 1j])), Field.COMPLEX)
    resid = _off_span(z, subalgebra_from_matrices(rep.model, [zmat]))
    assert resid < 1e-8


def test_centralizer_of_whole_algebra_is_zero(models):
    # the centralizer of the whole algebra is its center; that of no element is everything
    m = models["su21"]
    assert center_of(subalgebra_from_matrices(m, list(m.basis))).dim == 0
    assert centralizer(m, []).dim == m.dim


def test_a_span_that_is_not_bracket_closed_is_no_subalgebra(models):
    # [e, f] = h lies outside span{e, f}
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NumericalAbort, match="not bracket-closed"):
        subalgebra_from_matrices(models["sl2"], [e, f])


def test_centralizer_so41_block(case_pipeline):
    rep, z, c, dec = case_pipeline("so41-rplane")
    assert z.dim == 1


def test_center_of_abelian_is_itself(models):
    m = models["su21"]
    t1 = realify(components(np.diag([1j, 1j, -2j])), Field.COMPLEX)
    t2 = realify(components(np.diag([1j, -1j, 0j])), Field.COMPLEX)
    sub = subalgebra_from_matrices(m, [t1, t2])
    cen = center_of(sub)
    assert cen.dim == 2
    assert _off_span(sub, cen) < 1e-9


def test_center_of_simple_is_zero(models):
    m = models["so3"]
    full = subalgebra_from_matrices(m, list(m.basis))
    assert center_of(full).dim == 0


def test_center_of_su31_cline_centralizer(case_pipeline):
    rep, z, c, dec = case_pipeline("su31-cline")
    assert z.dim == 4 and c.dim == 1


def test_center_of_idempotent(case_pipeline):
    rep, z, c, dec = case_pipeline("su21-cline")
    again = center_of(c)
    assert again.dim == c.dim
    assert _off_span(c, again) < 1e-9
    assert _off_span(again, c) < 1e-9


def test_killing_restriction_flags(models):
    m = models["sl2"]
    full = subalgebra_from_matrices(m, list(m.basis))
    ok, cond = killing_restriction_nondegenerate(full)
    assert ok and np.isfinite(cond)
    nilp = subalgebra_from_matrices(m, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    bad, _ = killing_restriction_nondegenerate(nilp)
    assert not bad


def test_killing_restriction_so41_centralizer(case_pipeline):
    rep, z, c, dec = case_pipeline("so41-rplane")
    ok, _ = killing_restriction_nondegenerate(z)
    assert ok
    gram = z.coords @ rep.model.killing @ z.coords.T
    assert gram[0, 0] < 0  # compact direction


def test_conjugation_limit_zero_direction(rng):
    g = rng.standard_normal((3, 3))
    out = conjugation_limit(g, np.zeros((3, 3)))
    assert np.abs(out - g).max() < 1e-12


def test_conjugation_limit_triangular():
    g = np.array([[2.0, 5.0], [0.0, 0.5]])
    u = np.diag([1.0, -1.0])
    out = conjugation_limit(g, u)
    assert np.abs(out - np.diag([2.0, 0.5])).max() < 1e-12


def test_conjugation_limit_divergence():
    g = np.array([[2.0, 0.0], [1.0, 0.5]])
    u = np.diag([1.0, -1.0])
    with pytest.raises(NumericalAbort):
        conjugation_limit(g, u)


@pytest.mark.parametrize("g, u", [
    (np.array([[1.0, np.inf], [0.0, 1.0]]), np.diag([1.0, -1.0])),
    (np.eye(2), np.diag([np.nan, -1.0])),
])
def test_conjugation_limit_rejects_non_finite_input(g, u):
    with pytest.raises(NumericalAbort, match="non-finite entry in conjugation_limit's g and u"):
        conjugation_limit(g, u)


def test_conjugation_limit_idempotent(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    u = q @ np.diag([2.0, 1.0, 1.0, -1.0]) @ q.T
    g = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    try:
        once = conjugation_limit(g, u)
    except NumericalAbort:
        # strip the growing part first, then the limit must exist
        vals, vecs = np.linalg.eigh(u)
        h = vecs.T @ g @ vecs
        for i in range(4):
            for j in range(4):
                if vals[j] > vals[i] + 1e-9:
                    h[i, j] = 0.0
        once = conjugation_limit(vecs @ h @ vecs.T, u)
    twice = conjugation_limit(once, u)
    assert np.abs(once - twice).max() < 1e-10


def test_group_membership(models, fuchsian):
    m = models["sl2"]
    for g in fuchsian.images:
        assert m.group_membership_residual(g) < 1e-10
    assert m.group_membership_residual(2.0 * np.eye(2)) > 1e-3


_UNIPOTENT = [np.array([[1.0, t], [0.0, 1.0]]) for t in (1.0, 2.0, 3.0, 5.0)]


@pytest.mark.parametrize("images, accepted", [
    ([np.diag([1e7, 1.0])] * 4, False),
    ([np.diag([1e9, 1.0])] * 4, False),
    ([np.diag([1e308, 1.0])] * 4, False),
    ([np.diag([1.0, 0.0])] * 4, False),
    ([np.diag([1e8, 0.0])] * 4, False),
    ([np.diag([1.0, 1e-7])] * 4, False),
    ([np.diag([1.0, -1e-7])] * 4, False),
    ([np.diag([1.0, 1e-310])] * 4, False),
    ([np.diag([1e200, 1e-200])] * 4, False),
    ([np.diag([1e8, 1e-8])] * 4, True),
    (_UNIPOTENT, True),
], ids=["1e7", "1e9", "1e308", "singular", "singular-1e8", "1e-7", "-1e-7", "1e-310",
        "overflowing-scale", "1e8-1e-8", "unipotent"])
def test_sl_determinant_is_judged_against_the_condition_number(models, images, accepted):
    # against |g|^2 alone, det(diag(1e9, 1)) = 1e9 would pass as 1, and past
    # 1e154 the square overflows to a zero residual; against kappa alone,
    # det(diag(1, 1e-7)) = 1e-7 would pass as 1
    if accepted:
        surface_representation(standard_presentation(2), models["sl2"], images)
    else:
        with pytest.raises(NumericalAbort, match="violates the group relations"):
            surface_representation(standard_presentation(2), models["sl2"], images)


@pytest.mark.parametrize("family, params, g", [
    ("so", (2, 1), np.diag([1e200, 1.0, 1.0])),
    ("su", (2, 1), 1e300 * np.arange(1.0, 37.0).reshape(6, 6)),
    ("su", (2, 1), 1.5e308 * np.sign(np.arange(36.0).reshape(6, 6) % 3 - 1)),
], ids=["so21-form", "su21-form", "su21-units"])
def test_overflowing_images_have_an_infinite_residual(family, params, g):
    # past about 1e154 g^T F g and |g|^2 overflow, and near 1e308 so do
    # |g| and the unit commutators g r - r g; the residual is inf, not nan,
    # and no RuntimeWarning leaks (pytest makes one an error here)
    model = build_classical(family, *params)
    assert model.group_membership_residual(g) == np.inf
    assert list(model.group_membership_residual(np.stack([g, np.eye(len(g))]))) == [np.inf, 0.0]


def _adjoint_reference(model, g):
    """Ad(g) on model coordinates by the dim * N^4 einsum the model once used."""
    moved = np.einsum("ab,ibc,cd->iad", g, model.basis, np.linalg.inv(g))
    return model._pinv @ moved.reshape(model.dim, -1).T


def _membership_reference(model, g):
    """The membership residual with one 2-norm and one kron per imaginary unit."""
    res = 0.0
    scale = max(matrix_scale(g) ** 2, 1.0)
    if model.form is not None:
        res = max(res, float(np.abs(g.T @ model.form @ g - model.form).max()) / scale)
    else:
        det_scale = min(np.linalg.cond(g), scale)
        regular = np.linalg.svd(g, compute_uv=False)[-1] > 0
        res = (abs(float(np.linalg.det(g)) - 1.0) / det_scale
               if regular and np.isfinite(det_scale) else np.inf)
    for unit in np.eye(model.field.dim)[1:]:
        r = right_multiplication_operator(model.field, model.ambient, unit)
        res = max(res, float(np.abs(g @ r - r @ g).max()) / max(matrix_scale(g), 1.0))
    return res


def _catalog_images_and_conjugates(rng):
    """(model, g a g^-1) for each image a of each computable catalog case.

    g = exp(sX) for a normal random X of the model and s = 0 (the image
    itself), 0.4 and 1.0.
    """
    for case in default_cases():
        if not case.computable:
            continue
        rep = build_case_representation(case)
        for scale in (0.0, 0.4, 1.0):
            g = _expm(rep.model.matrix(scale * rng.standard_normal(rep.model.dim)))
            ginv = np.linalg.inv(g)
            for a in rep.images:
                yield rep.model, g @ a @ ginv


def test_adjoint_matches_einsum_reference(rng):
    fields = set()
    for model, g in _catalog_images_and_conjugates(rng):
        fields.add(model.field)
        ref = _adjoint_reference(model, g)
        got = model.adjoint_group_matrix(g)
        assert np.abs(got - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1.0)
    assert fields == set(Field)


def test_stacked_adjoint_matches_per_image_reference(rng):
    by_model = {}
    for model, g in _catalog_images_and_conjugates(rng):
        by_model.setdefault(model.name, (model, []))[1].append(g)
    for model, images in by_model.values():
        got = model.adjoint_group_matrix(np.stack(images))
        assert got.shape == (len(images), model.dim, model.dim)
        for g, ad in zip(images, got):
            ref = _adjoint_reference(model, g)
            assert np.abs(ad - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1.0)


def test_stacked_membership_residual_is_the_per_image_one(models, rng):
    for model, g in _catalog_images_and_conjugates(rng):
        n = model.realified_size
        stack = np.stack([g, rng.standard_normal((n, n)), 3.0 * np.eye(n)])
        got = model.group_membership_residual(stack)
        assert list(got) == [_membership_reference(model, h) for h in stack]


def test_stacked_adjoint_aborts_if_any_image_is_outside_the_group(models, rng):
    m = models["su21"]
    n = m.realified_size
    with pytest.raises(NumericalAbort, match="not in the group"):
        m.adjoint_group_matrix(np.stack([np.eye(n), rng.standard_normal((n, n))]))


def test_block_ad_matrix_and_coords_match_per_element(models, rng):
    for model in models.values():
        block = rng.standard_normal((5, model.dim))
        mats = model.matrix(block)
        assert np.allclose(model.ad(block), np.stack([model.ad(c) for c in block]),
                           rtol=0, atol=1e-13 * np.abs(block).max())
        assert np.allclose(mats, np.stack([model.matrix(c) for c in block]), rtol=0, atol=1e-13)
        assert np.allclose(model.coords(mats), block, rtol=0, atol=1e-12)
        bad = mats.copy()
        bad[3] += rng.standard_normal(bad[3].shape)     # one slice off the span
        with pytest.raises(NumericalAbort, match="model span"):
            model.coords(bad)


def _pairwise_closure_residual(matrices, on_cols):
    """The bracket-closure residual one pair at a time, with the full projector."""
    worst = 0.0
    proj = on_cols @ on_cols.T
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            v = (matrices[i] @ matrices[j] - matrices[j] @ matrices[i]).reshape(-1)
            scale = max(float(np.abs(v).max(initial=0.0)), 1.0)
            worst = max(worst, float(np.abs(v - proj @ v).max(initial=0.0)) / scale)
    return worst


def test_closure_residual_matches_pairwise_reference(models, rng):
    su21 = models["su21"]
    n = su21.realified_size
    cases = [su21.basis[:1], su21.basis[:5], su21.basis,
             rng.standard_normal((4, n, n)), 50.0 * rng.standard_normal((3, n, n))]
    for mats in cases:
        on = np.linalg.qr(mats.reshape(len(mats), -1).T)[0]
        matrices = on.T.reshape(-1, n, n)
        got = liealg._closure_residual(matrices, on)
        ref = _pairwise_closure_residual(matrices, on)
        assert abs(got - ref) <= 1e-12 * max(ref, 1.0)
    assert liealg._closure_residual(su21.basis, np.linalg.qr(
        su21.basis.reshape(su21.dim, -1).T)[0]) < 1e-12      # a Lie algebra is closed


def test_centralizer_of_adjoint_matrices_is_that_of_the_group(case_pipeline):
    rep, z, _, _ = case_pipeline("sp21-cline")
    ads = rep.model.adjoint_group_matrix(np.stack(rep.images))
    by_adjoint = centralizer(rep.model, ads)
    # reference: model coordinates of the X with g X = X g, read off the matrices
    commutators = np.concatenate([(g @ rep.model.basis - rep.model.basis @ g).reshape(
        rep.model.dim, -1).T for g in rep.images])
    by_group = nullspace(commutators, 1e-9, scale=1.0)
    assert by_adjoint.dim == by_group.shape[1] == z.dim
    proj = [h @ np.linalg.pinv(h) for h in (by_adjoint.coords.T, by_group)]
    assert np.abs(proj[0] - proj[1]).max() < 1e-10


def test_adjoint_of_a_matrix_outside_the_group_aborts(models, rng):
    m = models["su21"]                     # a generic real 6 x 6 is not C-linear
    g = rng.standard_normal((m.realified_size, m.realified_size))
    with pytest.raises(NumericalAbort, match="not in the group"):
        m.adjoint_group_matrix(g)


def test_membership_residual_matches_per_unit_reference(models, rng):
    # bit for bit, for R (so, sl, spr), C (su) and H (sp), on and off the group
    mats = [(model, g) for model, g in _catalog_images_and_conjugates(rng)]
    for model in (*models.values(), build_classical("spr", 2)):
        n = model.realified_size
        mats += [(model, rng.standard_normal((n, n))), (model, 3.0 * np.eye(n))]
    assert {model.field for model, _ in mats} == set(Field)
    for model, g in mats:
        assert model.group_membership_residual(g) == _membership_reference(model, g)


def test_center_makes_no_stacked_svd(monkeypatch, case_pipeline):
    # the cutoff's floor is a Frobenius norm, not the spectral norms of the ad stack
    rep, z, c, _ = case_pipeline("sp31-cline")
    shapes = _count_svds(monkeypatch)
    again = center_of(z)
    assert again.dim == c.dim == 1
    assert shapes and all(len(shape) == 2 for shape in shapes)


def test_bracket_budget(monkeypatch):
    # rejected from the parameters alone: sl(20,R) has realified size 20 but
    # its model build would exhaust memory; so(65,0) and sp(17,0) are just
    # past the realified size 64 that a separate cap once rejected
    def construct(*args):
        raise AssertionError(f"constructed {args} above the bracket budget")

    monkeypatch.setattr(liealg, "_construct", construct)
    for family, params in (("sl", (20,)), ("so", (65, 0)), ("sp", (17, 0))):
        with pytest.raises(FlexcheckError, match="bracket entries .* over the budget"):
            build_classical(family, *params)


def test_catalog_groups_are_well_inside_the_bracket_budget():
    for case in default_cases():
        if case.computable:
            model = build_classical(case.family, case.m, 1)
            assert model.dim ** 2 * model.realified_size ** 2 * 8 <= liealg.BRACKET_BUDGET


def _bit_guard_groups():
    """Every catalog group, sl(2..8,R), sp(4,R), so(2,2) and su(2,2)."""
    groups = {(case.family, case.m, 1) for case in default_cases() if case.computable}
    groups |= {("sl", n) for n in range(2, 9)} | {("spr", 2), ("so", 2, 2), ("su", 2, 2)}
    return sorted(groups)


@pytest.mark.parametrize("group", _bit_guard_groups(), ids=lambda g: "".join(map(str, g)))
def test_structure_constants_keep_the_bits_of_the_einsum_route(group):
    model = build_classical(*group)
    basis, dim = model.basis, model.dim
    # integer entries make every product X_i X_j exact, whatever the summation order
    assert np.array_equal(basis, np.round(basis))
    brackets = (np.einsum("iab,jbc->ijac", basis, basis)
                - np.einsum("jab,ibc->ijac", basis, basis))
    pinv = np.linalg.pinv(basis.reshape(dim, -1).T)
    c = (pinv @ brackets.reshape(dim * dim, -1).T).T.reshape(dim, dim, dim)
    assert np.array_equal(model.structure, c)
    assert np.array_equal(model.killing, np.einsum("ikl,jlk->ij", c, c))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_model_build_peak_memory():
    # uncached, so the shared model is untouched; the brackets array is dim^2 N^2 doubles
    model, peak = _traced_peak(liealg._construct.__wrapped__, "sp", 3, 1)
    assert peak <= 1.5 * model.dim ** 2 * model.realified_size ** 2 * 8


def test_stacked_adjoint_peak_memory_and_blocks(monkeypatch):
    rep = build_case_representation("sp31-cline")
    images = np.stack([rep.images[k % 4] for k in range(512)])
    whole, peak = _traced_peak(rep.model.adjoint_group_matrix, images)
    assert peak <= 16 * 2 ** 20
    per_image = rep.model.dim * rep.model.realified_size ** 2
    for size in (1, 5, 17, 40):
        monkeypatch.setattr(liealg, "BLOCK_ENTRIES", size * per_image)
        assert np.array_equal(rep.model.adjoint_group_matrix(images), whole)
        parts = [rep.model.adjoint_group_matrix(images[k:k + size])
                 for k in range(0, len(images), size)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_ambient_cap(monkeypatch):
    # the bracket budget is the only size guard: from the parameters alone,
    # before any basis matrix is built, it rejects each family just past the
    # size 64 of an earlier cap, and every group with parameters below 70
    # and realified size above 24
    admitted = []

    def construct(family, *params):
        admitted.append(_realified_size(family, params))
        raise FlexcheckError("admitted")

    monkeypatch.setattr(liealg, "_construct", construct)
    for family, params in (("sl", (65,)), ("spr", (33,)), ("so", (40, 25)), ("su", (30, 3)),
                           ("sp", (9, 8))):
        with pytest.raises(FlexcheckError, match="over the budget"):
            build_classical(family, *params)
    groups = [(family, (n,)) for family in ("sl", "spr") for n in range(70)]
    groups += [(family, (p, q)) for family in ("su", "so", "sp")
               for p in range(70) for q in range(70)]
    for family, params in groups:
        with contextlib.suppress(FlexcheckError):
            build_classical(family, *params)
    assert max(admitted) == 24


def _realified_size(family, params) -> int:
    return {"sl": 1, "spr": 2, "so": 1, "su": 2, "sp": 4}[family] * sum(params)


def test_killing_pairing_rejects_outside_span(models):
    m = models["sl2"]
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    val = killing_form(m, m.coords(h), m.coords(h))
    assert abs(val - 8.0) < 1e-10          # B(H,H) = 4 tr = 8 for sl(2,R)
    with pytest.raises(NumericalAbort):
        m.coords(np.eye(2))                # identity is not traceless
