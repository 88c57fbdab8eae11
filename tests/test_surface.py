from dataclasses import fields

import numpy as np
import pytest

from conftest import bent_genus2
from flexcheck.catalog import default_cases
from flexcheck.config import DEFAULT, FlexcheckError, NumericalAbort
from flexcheck.engine import Pipeline
from flexcheck.liealg import build_classical, subalgebra_from_matrices
from flexcheck.linalg import nullspace, orthonormal_columns
from flexcheck.roots import decompose
from flexcheck.scalars import Field, realify
from flexcheck.surface import (
    SurfaceGroupPresentation,
    _expm,
    _fox_calculus,
    adjoint_module,
    cohomology,
    correct_relator,
    cup_pairing,
    relator_prefixes,
    standard_presentation,
    surface_representation,
)
from reference import (bracket_coords, coboundaries, cocycles, components, cup_square,
                       invariant_vectors, killing_form, root_cohomology)


def test_standard_presentation():
    p2 = standard_presentation(2)
    assert len(p2.letters) == 8 and p2.euler_characteristic == -2
    p3 = standard_presentation(3)
    assert len(p3.letters) == 12 and p3.euler_characteristic == -4
    counts = {}
    for s, sign in p2.letters:
        counts[(s, sign)] = counts.get((s, sign), 0) + 1
    assert all(v == 1 for v in counts.values()) and len(counts) == 8
    for build in (standard_presentation, SurfaceGroupPresentation):
        with pytest.raises(FlexcheckError, match="closed surface of genus >= 2 required"):
            build(1)
        with pytest.raises(FlexcheckError, match="genus must be an integer, got 2.5"):
            build(2.5)
    assert standard_presentation(np.int64(2)) == p2


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_a_presentation_is_its_genus(genus):
    pres = SurfaceGroupPresentation(genus)
    word = []
    for i in range(genus):
        a, b = 2 * i, 2 * i + 1
        word += [(a, 1), (b, 1), (a, -1), (b, -1)]
    assert pres.letters == tuple(word)
    same = SurfaceGroupPresentation(np.int64(genus))
    assert same == pres == standard_presentation(genus) and hash(same) == hash(pres)
    assert type(same.genus) is int
    assert [f.name for f in fields(pres)] == ["genus"]
    with pytest.raises(TypeError):
        SurfaceGroupPresentation(genus, pres.letters)
    with pytest.raises(TypeError):
        SurfaceGroupPresentation(genus, letters=pres.letters)


def test_fuchsian_relator_and_traces(fuchsian):
    assert fuchsian.relator_residual < 1e-8
    rel = relator_prefixes(fuchsian.presentation, fuchsian.images)[-1]
    assert np.abs(rel - np.eye(2)).max() < 1e-8
    for g in fuchsian.images:
        assert abs(np.trace(g)) > 2.0   # hyperbolic


def test_fuchsian_irreducible(fuchsian):
    ws = cohomology(fuchsian, adjoint_module(fuchsian))
    assert ws.h0_dim == 0


def test_trivial_module_cocycles(fuchsian):
    ws = cohomology(fuchsian, np.stack([np.eye(3) for _ in fuchsian.images]))
    assert cocycles(ws).shape[1] == 4 * 3   # 2g * dim V
    assert coboundaries(ws).shape[1] == 0
    assert ws.h0_dim == 3 and ws.h2_dim == 3


def test_adjoint_dimensions(fuchsian):
    ws = cohomology(fuchsian, adjoint_module(fuchsian))
    z1 = cocycles(ws)
    assert z1.shape[1] == 9                 # (1 - chi) * dim: a smooth point
    assert ws.h0_dim == 0 and ws.h2_dim == 0
    assert ws.h1_dim == 6 and coboundaries(ws).shape[1] == 3
    # crude bound
    assert z1.shape[1] <= (3 - fuchsian.presentation.euler_characteristic) * 3


def test_adjoint_cocycles_off_smooth_points(case_pipeline):
    # with a nonzero centralizer Z^1 exceeds (1 - chi) dim by h2 = h0
    rep = case_pipeline("su21-cline")[0]
    ws = cohomology(rep, adjoint_module(rep))
    assert ws.h0_dim == ws.h2_dim == 1
    assert cocycles(ws).shape[1] == (1 - rep.presentation.euler_characteristic) * rep.model.dim + 1 == 25
    trivial = surface_representation(standard_presentation(2), build_classical("sl", 2),
                                     [np.eye(2)] * 4)
    ws = cohomology(trivial, adjoint_module(trivial))
    assert ws.h0_dim == 3 and cocycles(ws).shape[1] == 4 * 3


def test_coboundaries_are_cocycles(fuchsian):
    ws = cohomology(fuchsian, adjoint_module(fuchsian))
    resid = np.abs(ws.relator_map @ coboundaries(ws)).max()
    assert resid < 1e-9 * max(np.abs(ws.relator_map).max(), 1.0)


def _fan_oracle_trivial(pres, s_u, s_v):
    """Independent exponent-count evaluation for trivial R coefficients.

    Fan sum over relator prefixes plus one corrective term per generator
    (the corrected fundamental chain has boundary zero).
    """
    total = 0.0
    expo = [0] * pres.generator_count
    for k, (s, sign) in enumerate(pres.letters):
        if k > 0:
            total += expo[s_u] * (1.0 if (s == s_v and sign > 0)
                                  else -1.0 if (s == s_v and sign < 0) else 0.0)
        expo[s] += sign
    if s_u == s_v:
        total += 1.0
    return total


def test_orientation_calibration(fuchsian):
    pres = fuchsian.presentation
    ws = cohomology(fuchsian, np.stack([np.eye(1) for _ in fuchsian.images]))
    omega = np.array([[1.0]])

    def dual(s):
        u = np.zeros(4)
        u[s] = 1.0
        return u

    expected = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            expected[i, j] = _fan_oracle_trivial(pres, i, j)
    # the oracle must itself reproduce the standard intersection form
    assert expected[0, 1] == 1.0 and expected[2, 3] == 1.0
    for i in range(4):
        for j in range(4):
            got = cup_pairing(ws, omega, dual(i), dual(j))
            assert abs(got - expected[i, j]) < 1e-12
    assert abs(cup_pairing(ws, omega, dual(0), dual(1)) - 1.0) < 1e-12
    assert abs(cup_pairing(ws, omega, dual(0), dual(2))) < 1e-12


def test_coboundary_pairing_vanishes(fuchsian, rng):
    ws = cohomology(fuchsian, fuchsian.images)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b1, z1 = coboundaries(ws), cocycles(ws)
    for i in range(b1.shape[1]):
        for j in range(z1.shape[1]):
            val = cup_pairing(ws, omega, b1[:, i], z1[:, j])
            assert abs(val) < 1e-9
            val = cup_pairing(ws, omega, z1[:, j], b1[:, i])
            assert abs(val) < 1e-9


def test_skew_form_gives_symmetric_pairing(fuchsian, rng):
    ws = cohomology(fuchsian, fuchsian.images)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    z1 = cocycles(ws)
    for _ in range(10):
        u = z1 @ rng.standard_normal(z1.shape[1])
        v = z1 @ rng.standard_normal(z1.shape[1])
        a = cup_pairing(ws, omega, u, v)
        b = cup_pairing(ws, omega, v, u)
        assert abs(a - b) < 1e-9 * max(abs(a), 1.0)


def test_trivial_rep_symplectic_signature_zero(fuchsian):
    # trivial representation on R^2 with the standard symplectic form
    model = build_classical("sl", 2)
    images = [np.eye(2)] * 4
    rep = surface_representation(standard_presentation(2), model, images)
    ws = cohomology(rep, rep.images)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    h = ws.h1
    gram = np.array([[cup_pairing(ws, omega, h[:, i], h[:, j])
                      for j in range(h.shape[1])] for i in range(h.shape[1])])
    gram = 0.5 * (gram + gram.T)
    ev = np.linalg.eigvalsh(gram)
    assert int(np.sum(ev > 1e-9)) == int(np.sum(ev < -1e-9))


def test_cup_square_discrete_centralizer(fuchsian):
    ws = cohomology(fuchsian, adjoint_module(fuchsian))
    out = cup_square(ws, cocycles(ws)[:, 0])
    assert out.shape == (0,)


def test_cup_square_rejects_a_restricted_root_module(case_pipeline):
    pipe = Pipeline(case_pipeline("su21-cline")[0])
    ws = root_cohomology(pipe.rep, pipe.adjoint, pipe.decomposition.roots[0])
    assert ws.module_dim < ws.rep.model.dim
    with pytest.raises(FlexcheckError, match="adjoint module"):
        cup_square(ws, ws.h1[:, 0])


def test_cup_square_trivial_rep_commuting_orthogonal_directions():
    model = build_classical("so", 4, 0)   # so(4) = so(3) + so(3)
    n = model.realified_size
    images = [np.eye(n)] * 4
    rep = surface_representation(standard_presentation(2), model, images)
    ws = cohomology(rep, adjoint_module(rep))
    assert ws.h0_dim == model.dim
    # X from one so(3) factor, Y from the other: commuting, Killing-orthogonal
    x = np.zeros((4, 4)); x[0, 1], x[1, 0] = 1.0, -1.0
    y = np.zeros((4, 4)); y[2, 3], y[3, 2] = 1.0, -1.0
    xc, yc = model.coords(x + x * 0), model.coords(y)
    x2 = model.coords(0.5 * (x - x.T))
    assert np.abs(bracket_coords(model, xc, yc)).max() < 1e-12
    assert abs(killing_form(model, xc, yc)) < 1e-12
    # u = a1* (x) X + a2* (x) Y: supports on letters with a1* cup a2* = 0
    u = np.zeros(4 * model.dim)
    u[0 * model.dim : 1 * model.dim] = xc
    u[2 * model.dim : 3 * model.dim] = yc
    out = cup_square(ws, u)
    assert np.abs(out).max() < 1e-10


def test_cup_square_polarization(fuchsian, rng):
    model = build_classical("so", 4, 0)
    n = model.realified_size
    rep = surface_representation(standard_presentation(2), model, [np.eye(n)] * 4)
    ws = cohomology(rep, adjoint_module(rep))
    z1 = cocycles(ws)
    k = z1.shape[1]
    u = z1 @ rng.standard_normal(k)
    v = z1 @ rng.standard_normal(k)
    lhs = cup_square(ws, u + v) - cup_square(ws, u) - cup_square(ws, v)
    # mixed term evaluated directly with the same Killing-valued forms
    forms = _killing_forms(ws)
    mixed = np.asarray(cup_pairing(ws, forms, u, v)) + np.asarray(cup_pairing(ws, forms, v, u))
    assert np.abs(lhs - mixed).max() < 1e-8 * max(np.abs(lhs).max(), 1.0)


def _fan_chain_pairing(ws, omega, u, v):
    """Reference: the fan-chain sum for one pair of cocycle vectors, letter by letter."""
    pres = ws.rep.presentation
    m = ws.module_dim
    invs = [np.linalg.inv(a) for a in ws.actions]
    us = [u[s * m : (s + 1) * m] for s in range(pres.generator_count)]
    vs = [v[s * m : (s + 1) * m] for s in range(pres.generator_count)]

    def letter_value(vals, s, sign):
        return vals[s] if sign > 0 else -(invs[s] @ vals[s])

    def pair(x, y):
        return np.einsum("a,...ab,b->...", x, omega, y)

    prefixes = relator_prefixes(pres, ws.actions)
    total = 0.0
    uacc = np.zeros(m)
    for k, (s, sign) in enumerate(pres.letters):
        p = prefixes[k]
        if k > 0:
            total = total + pair(uacc, p @ letter_value(vs, s, sign))
        uacc = uacc + p @ letter_value(us, s, sign)
    for s in range(pres.generator_count):
        total = total + pair(us[s], vs[s])
    return total


def _killing_forms(ws):
    model = ws.rep.model
    h0 = invariant_vectors(ws.actions)
    return np.stack([
        np.einsum("ijk,k->ij", model.structure, model.killing @ h0[:, j])
        for j in range(ws.h0_dim)
    ])


def _abelian_root(model, x, kind):
    """Cohomology and Omega of the ``kind`` root of the torus R x, for a
    representation into exp(R x), which centralizes that torus."""
    n = model.realified_size
    images = [_expm(0.3 * x), _expm(0.2 * x), np.eye(n), np.eye(n)]
    rep = surface_representation(standard_presentation(2), model, images)
    dec = decompose(subalgebra_from_matrices(model, [x]))
    root = next(r for r in dec.roots if r.classification == kind)
    return root_cohomology(rep, adjoint_module(rep), root), root.omega


def _catalog_root(case_pipeline, case, index):
    rep, _, _, dec = case_pipeline(case)
    root = dec.roots[index]
    return root_cohomology(rep, adjoint_module(rep), root), root.omega


# Each builder takes (case_pipeline, fuchsian, models) and returns the
# (workspace, omega) pair to compare against the reference.

def _su41_imaginary_root(case_pipeline, fuchsian, models):
    ws, omega = _catalog_root(case_pipeline, "su41-cline", 0)
    return ws, omega.imag


def _sl2_real_root(case_pipeline, fuchsian, models):
    ws, omega = _abelian_root(models["sl2"], np.diag([1.0, -1.0]), "real")
    return ws, omega.real


def _sp21_complex_omega(case_pipeline, fuchsian, models):
    return _catalog_root(case_pipeline, "sp21-cline", 1)


def _so31_mixed_root(case_pipeline, fuchsian, models):
    x = np.zeros((4, 4))
    x[0, 1], x[1, 0], x[2, 3], x[3, 2] = -1.0, 1.0, 1.0, 1.0   # rotation + boost
    return _abelian_root(models["so31"], x, "mixed")


def _octagon_standard_module(case_pipeline, fuchsian, models):
    return cohomology(fuchsian, fuchsian.images), np.array([[0.0, 1.0], [-1.0, 0.0]])


def _su31_killing_stack(case_pipeline, fuchsian, models):
    rep, _, _, _ = case_pipeline("su31-cline")                   # h0 = 4
    ws = cohomology(rep, adjoint_module(rep))
    return ws, _killing_forms(ws)


@pytest.mark.parametrize("build", [
    pytest.param(_su41_imaginary_root, id="su41-cline imaginary root"),
    pytest.param(_sl2_real_root, id="sl2 real root"),
    pytest.param(_sp21_complex_omega, id="sp21-cline complex omega"),
    pytest.param(_so31_mixed_root, id="so31 mixed root"),
    pytest.param(_octagon_standard_module, id="octagon standard module"),
    pytest.param(_su31_killing_stack, id="su31-cline Killing stack"),
])
def test_block_cup_pairing_matches_fan_chain_reference(build, case_pipeline, fuchsian, models):
    ws, omega = build(case_pipeline, fuchsian, models)
    h = ws.h1
    assert h.shape[1] > 0
    got = cup_pairing(ws, omega, h, h)
    want = np.array([[_fan_chain_pairing(ws, omega, h[:, i], h[:, j])
                      for j in range(h.shape[1])] for i in range(h.shape[1])])
    want = np.moveaxis(want, (0, 1), (-2, -1))       # (K, k, k) for a stack
    assert got.shape == want.shape
    assert np.iscomplexobj(got) == np.iscomplexobj(omega)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_cup_pairing_shapes(fuchsian, case_pipeline):
    ws = cohomology(fuchsian, fuchsian.images)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    h = ws.h1
    block = cup_pairing(ws, omega, h, h)
    scalar = cup_pairing(ws, omega, h[:, 0], h[:, 1])
    assert np.ndim(scalar) == 0 and abs(scalar - block[0, 1]) < 1e-12
    assert np.allclose(cup_pairing(ws, omega, h[:, 0], h), block[0], atol=1e-12)
    assert np.allclose(cup_pairing(ws, omega, h, h[:, 1]), block[:, 1], atol=1e-12)
    assert np.allclose(ws.cocycle_residual(h), [ws.cocycle_residual(c) for c in h.T])
    rep, _, _, _ = case_pipeline("su31-cline")
    adj = cohomology(rep, adjoint_module(rep))
    forms = _killing_forms(adj)
    stacked = cup_pairing(adj, forms, adj.h1[:, 0], adj.h1[:, 1])
    assert stacked.shape == (adj.h0_dim,)
    # a stack with more leading axes pairs each slice, its axes first
    nested = cup_pairing(adj, np.stack([forms, 2 * forms]), adj.h1[:, 0], adj.h1[:, 1])
    assert nested.shape == (2, adj.h0_dim)
    assert np.allclose(nested, [stacked, 2 * stacked], rtol=1e-12, atol=1e-12)
    assert cup_pairing(adj, forms, adj.h1, adj.h1).shape == (adj.h0_dim,) + (adj.h1_dim,) * 2


def test_central_lift_flag():
    # [i, j] = -1 in the unit quaternions realized inside SU(2) = su(2,0)-group
    model = build_classical("su", 2, 0)
    qi = realify(components([[1j, 0], [0, -1j]]), Field.COMPLEX)
    qj = realify(components([[0.0, 1.0], [-1.0, 0.0]]), Field.COMPLEX)
    eye = np.eye(4)
    images = [qi, qj, eye, eye]
    rel = relator_prefixes(standard_presentation(2), images)[-1]
    assert np.abs(rel + np.eye(4)).max() < 1e-12
    with pytest.raises(NumericalAbort):
        surface_representation(standard_presentation(2), model, images)
    rep = surface_representation(standard_presentation(2), model, images, central_lift=True)
    assert np.abs(relator_prefixes(rep.presentation, rep.images)[-1] + eye).max() < 1e-12
    ws = cohomology(rep, adjoint_module(rep))   # adjoint kills the center
    assert ws.h0_dim == 0                        # nothing commutes with both i and j
    assert ws.h1_dim == 6


def test_uninvertible_and_non_finite_images_abort(case_pipeline, capfd):
    rep = case_pipeline("so31-rplane")[0]
    # rewrite the first handle five times, a -> ab and b -> ba in turn: the
    # relator is kept exactly and the images stay in the group, but their
    # entries reach 3.3e9 and inv finds them singular
    images = list(rep.images)
    for step in range(5):
        if step % 2 == 0:
            images[0] = images[0] @ images[1]
        else:
            images[1] = images[1] @ images[0]
    assert np.all(rep.model.group_membership_residual(np.stack(images)) <= 1e-12)
    with pytest.raises(NumericalAbort, match="cannot be inverted"):
        surface_representation(rep.presentation, rep.model, images)
    # rejected before the membership SVD, which would not converge
    images = list(rep.images)
    images[2] = np.full_like(images[2], np.nan)
    with pytest.raises(NumericalAbort, match="generator image 2 has a non-finite entry"):
        surface_representation(rep.presentation, rep.model, images)
    assert capfd.readouterr().err == ""


def test_images_are_copied_into_a_read_only_stack(fuchsian):
    images = [g.copy() for g in fuchsian.images]
    rep = surface_representation(fuchsian.presentation, fuchsian.model, images)
    images[0][0, 0] = 7.0
    assert np.array_equal(rep.images, fuchsian.images)
    assert rep.images.shape == (4, 2, 2) and not rep.images.flags.writeable


@pytest.mark.parametrize("images, bad", [
    ([np.eye(3)] * 4, 0),                              # passed, then verdict died in matmul
    ([np.eye(2), np.eye(2), np.eye(3), np.eye(2)], 2),  # np.stack raised ValueError
    ([np.eye(2)[:, :1]] * 4, 0),                       # not square
], ids=["wrong-size", "mixed-sizes", "not-square"])
def test_image_shapes_are_checked(fuchsian, images, bad):
    with pytest.raises(FlexcheckError, match=f"generator image {bad} has shape .* not the "
                       r"realified size \(2, 2\) of sl\(2,R\)"):
        surface_representation(fuchsian.presentation, fuchsian.model, images)


def test_correct_relator(fuchsian, rng):
    model = fuchsian.model
    images = []
    for g in fuchsian.images:
        move = 1e-3 * rng.standard_normal(3)
        images.append(g @ _expm(np.tensordot(move, model.basis, axes=(0, 0))))
    rel = relator_prefixes(fuchsian.presentation, images)[-1]
    assert np.abs(rel - np.eye(2)).max() > 1e-6   # perturbation broke the relator
    fixed = correct_relator(images, fuchsian.presentation, model)
    rel2 = relator_prefixes(fuchsian.presentation, fixed)[-1]
    assert np.abs(rel2 - np.eye(2)).max() < 1e-11
    # correction is local: generators moved by O(perturbation)
    for a, b in zip(fixed, images):
        assert np.abs(a - b).max() < 1e-2


def _perturbed(case_pipeline, name: str, seed: int = 1, scale: float = 1e-3):
    rep = case_pipeline(name)[0]
    rng = np.random.default_rng(seed)
    return rep, [g @ _expm(rep.model.matrix(scale * rng.standard_normal(rep.model.dim)))
                 for g in rep.images]


@pytest.mark.parametrize("name", ["su21-cline", "sp31-cline", "so41-rplane", "su31-rplane", "octagon"])
def test_fox_relator_map_is_the_relator_derivative(case_pipeline, fuchsian, rng, name):
    # under left moves g_s -> exp(h X_s) g_s the relator R becomes
    # (I + h J x) R to first order, J the adjoint module's relator map;
    # a central difference of R(exp(hX) g) R^-1 in model coordinates checks it
    rep = fuchsian if name == "octagon" else case_pipeline(name)[0]
    model, pres = rep.model, rep.presentation
    x = rng.standard_normal((pres.generator_count, model.dim))
    jac = _fox_calculus(pres, model.adjoint_group_matrix(np.stack(rep.images)))[2]

    def relator(t):
        moved = [_expm(t * model.matrix(xs)) @ g for xs, g in zip(x, rep.images)]
        return relator_prefixes(pres, moved)[-1]

    h = 1e-6
    diff = (relator(h) - relator(-h)) @ np.linalg.inv(relator(0.0)) / (2 * h)
    fd = model._pinv @ diff.reshape(-1)         # projected onto the model span
    assert np.abs(jac @ x.reshape(-1) - fd).max() < 1e-6 * np.abs(fd).max()


def test_correct_relator_stops_on_the_relative_residual(case_pipeline):
    # the relator of su(2,1)'s R-plane images has prefix scale ~70: an absolute
    # stop at 1e-12 never came, and the iteration ran out of steps
    rep, images = _perturbed(case_pipeline, "su21-rplane")
    fixed = correct_relator(images, rep.presentation, rep.model)
    moved = surface_representation(rep.presentation, rep.model, fixed)
    assert moved.relator_residual < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", [c.name for c in default_cases() if c.computable])
def test_correct_relator_converges_near_every_case(case_pipeline, name, seed):
    # the real-plane cases have a nonzero centralizer, where the relator map
    # loses rank (Goldman 1984); Newton on it still converges at 1e-3
    rep, images = _perturbed(case_pipeline, name, seed)
    fixed = correct_relator(images, rep.presentation, rep.model)
    surface_representation(rep.presentation, rep.model, fixed)
    for a, b in zip(fixed, images):
        assert np.abs(a - b).max() < 1e-2 * max(np.abs(b).max(), 1.0)


def test_correct_relator_moves_little_when_it_converges(case_pipeline):
    # the stop is relative to the input's prefix scale: relative to each
    # iterate's, sp21-rplane at 1e-2 (seed 2) ran off to entries ~1e42 and
    # was accepted there
    converged = 0
    for name in [c.name for c in default_cases() if c.computable]:
        for seed in range(3):
            rep, images = _perturbed(case_pipeline, name, seed, scale=1e-2)
            try:
                fixed = correct_relator(images, rep.presentation, rep.model)
            except NumericalAbort:
                continue
            converged += 1
            for a, b in zip(fixed, images):
                assert np.abs(a - b).max() < 0.5 * np.abs(b).max(), (name, seed)
    assert converged >= 24


def test_correct_relator_divergence_aborts(case_pipeline):
    # so41-rplane perturbed at scale 1 (seed 0) is far from the relator
    # variety: Newton overflows, which aborts instead of warning
    rep, images = _perturbed(case_pipeline, "so41-rplane", seed=0, scale=1.0)
    with pytest.raises(NumericalAbort):
        correct_relator(images, rep.presentation, rep.model)


def test_correct_relator_blames_its_own_step_for_leaving_the_group(case_pipeline):
    # sp21-rplane at 1e-2 (seed 0): an undamped Newton step moves an image
    # off the group; the abort names the correction, not the caller's input
    rep, images = _perturbed(case_pipeline, "sp21-rplane", seed=0, scale=1e-2)
    with pytest.raises(NumericalAbort, match=r"relator correction left the group after "
                                             r"Newton step [1-9]") as info:
        correct_relator(images, rep.presentation, rep.model)
    assert isinstance(info.value.__cause__, NumericalAbort)
    # the caller's own images off the group keep the membership message
    off = [images[0] + 0.1 * np.eye(len(images[0]))] + images[1:]
    with pytest.raises(NumericalAbort, match="g is not in the group"):
        correct_relator(off, rep.presentation, rep.model)


def test_genus3_cohomology(fuchsian):
    # pinch two handles: genus-3 representation through the genus-2 group
    model = fuchsian.model
    images = list(fuchsian.images) + [np.eye(2), np.eye(2)]
    rep = surface_representation(standard_presentation(3), model, images)
    ws = cohomology(rep, adjoint_module(rep))
    assert ws.h0_dim == 0
    assert ws.h1_dim == -rep.presentation.euler_characteristic * 3   # 4 * 3
    assert cocycles(ws).shape[1] == (1 - rep.presentation.euler_characteristic) * 3


def test_cup_pairing_rejects_non_cocycles(fuchsian, rng):
    ws = cohomology(fuchsian, fuchsian.images)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    z1 = cocycles(ws)
    bad = rng.standard_normal(8)
    bad -= z1 @ (z1.T @ bad)                # component orthogonal to Z^1
    bad /= np.linalg.norm(bad)
    good = z1[:, 0]
    with pytest.raises(NumericalAbort):
        cup_pairing(ws, omega, bad, good)
    with pytest.raises(NumericalAbort):
        cup_pairing(ws, omega, good, bad)
    # one bad column spoils a block
    with pytest.raises(NumericalAbort):
        cup_pairing(ws, omega, z1, np.column_stack([z1, bad]))


def test_cup_pairing_rejects_noninvariant_form(fuchsian):
    ws = cohomology(fuchsian, fuchsian.images)
    z1 = cocycles(ws)
    with pytest.raises(NumericalAbort):
        cup_pairing(ws, np.diag([1.0, 2.0]), z1[:, 0], z1[:, 1])
    # in a stack, one non-invariant slice is enough; SL(2) preserves the area form
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert cup_pairing(ws, np.stack([j, 2 * j]), z1[:, 0], z1[:, 1]).shape == (2,)
    with pytest.raises(NumericalAbort, match="module-invariant"):
        cup_pairing(ws, np.stack([j, np.diag([1.0, 2.0])]), z1[:, 0], z1[:, 1])


def _full_svd_kernel(a):
    """Kernel from a full SVD with the floor 1, as cohomology took H^0 and H^2 before."""
    _, s, vh = np.linalg.svd(a)
    return vh[int(np.sum(s > 1e-9 * max(s[0], 1.0))):].T


def _cohomology_cases(fuchsian, case_pipeline):
    """(rep, actions) pairs with H^0, H^2 and B^1 of every size the suite meets."""
    trivial = surface_representation(standard_presentation(2), fuchsian.model, [np.eye(2)] * 4)
    yield fuchsian, adjoint_module(fuchsian)
    yield fuchsian, fuchsian.images
    yield fuchsian, np.stack([np.eye(3) for _ in fuchsian.images])
    yield trivial, adjoint_module(trivial)
    for name in ("su21-cline", "sp21-cline", "so41-rplane"):
        pipe = Pipeline(case_pipeline(name)[0])
        yield pipe.rep, pipe.adjoint
        for root in pipe.decomposition.roots:
            yield pipe.rep, root_cohomology(pipe.rep, pipe.adjoint, root).actions


def test_cohomology_matches_separate_span_and_kernel_svds(fuchsian, case_pipeline):
    for rep, actions in _cohomology_cases(fuchsian, case_pipeline):
        ws = cohomology(rep, actions)
        m = actions.shape[-1]
        cob = np.vstack([a - np.eye(m) for a in actions])
        b1 = orthonormal_columns(cob, 1e-9, scale=1.0)
        fixed = _full_svd_kernel(cob)
        cofixed = _full_svd_kernel(np.vstack([a.T - np.eye(m) for a in actions]))
        ws_b1 = coboundaries(ws)
        assert (ws_b1.shape[1], ws.h0_dim, ws.h2_dim) == (
            b1.shape[1], fixed.shape[1], cofixed.shape[1])
        assert np.abs(ws_b1 @ ws_b1.T - b1 @ b1.T).max() <= 1e-12
        h0 = invariant_vectors(actions)
        assert np.abs(h0 @ h0.T - fixed @ fixed.T).max(initial=0.0) <= 1e-12
        # a generator letter's Fox block is P_k, an inverse letter's -P_{k+1};
        # the relator map is their sum over each generator's letters
        prefixes = relator_prefixes(rep.presentation, actions)
        relator_map = np.zeros((m, len(actions), m))
        for k, (s, sign) in enumerate(rep.presentation.letters):
            assert np.array_equal(ws.fox_blocks[k], prefixes[k] if sign > 0 else -prefixes[k + 1])
            relator_map[:, s] += ws.fox_blocks[k]
        assert np.array_equal(ws.relator_map, relator_map.reshape(m, -1))


def test_cocycles_match_the_relator_map_kernel(fuchsian, case_pipeline):
    # Z^1 = [H^1 | B^1] from the stacked kernel spans what the relator map's
    # own kernel, cut at the prefix scale, spans
    pinched = surface_representation(
        standard_presentation(3), fuchsian.model, list(fuchsian.images) + [np.eye(2)] * 2)
    pipes = [Pipeline(rep) for rep in (fuchsian, pinched, bent_genus2())]
    pipes += [Pipeline(case_pipeline(c.name)[0]) for c in default_cases() if c.computable]
    for pipe in pipes:
        for ws in [cohomology(pipe.rep, pipe.adjoint)] + [
                root_cohomology(pipe.rep, pipe.adjoint, root) for root in pipe.decomposition.roots]:
            prefixes = relator_prefixes(pipe.rep.presentation, ws.actions)
            scale = max(float(np.abs(prefixes).max()), 1.0)
            z1 = nullspace(ws.relator_map, DEFAULT.rank, scale=scale)
            ws_z1 = cocycles(ws)
            assert ws_z1.shape == z1.shape
            assert np.abs(ws_z1 @ ws_z1.T - z1 @ z1.T).max(initial=0.0) < 1e-7
            assert np.abs(ws_z1.T @ ws_z1 - np.eye(z1.shape[1])).max(initial=0.0) < 1e-12
            assert np.abs(ws.h1.T @ coboundaries(ws)).max(initial=0.0) < 1e-12


def test_relator_check_is_relative_to_the_prefix_scale(fuchsian):
    # a global conjugation by a large g leaves the relator exact, but its
    # rounding grows with the prefix entries: the check must follow them
    g = np.array([[40.0, 3.0], [13.0, 1.0]])
    g /= np.sqrt(np.linalg.det(g))
    images = [g @ a @ np.linalg.inv(g) for a in fuchsian.images]
    prefixes = relator_prefixes(fuchsian.presentation, images)
    scale = np.abs(prefixes).max()
    absolute = np.abs(prefixes[-1] - np.eye(2)).max()
    assert absolute > 1e-8 and absolute <= 1e-8 * scale
    rep = surface_representation(fuchsian.presentation, fuchsian.model, images)
    assert rep.relator_residual == absolute / scale
    with pytest.raises(NumericalAbort, match="relator residual"):
        surface_representation(fuchsian.presentation, fuchsian.model,
                                [images[0] @ _expm(1e-3 * fuchsian.model.basis[0])] + images[1:])
