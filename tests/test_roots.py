import dataclasses

import numpy as np
import pytest

from conftest import bent_genus2
from flexcheck.catalog import build_case_representation, default_cases
from flexcheck.config import DEFAULT, NumericalAbort
from flexcheck.engine import Pipeline, verdict
from flexcheck.liealg import subalgebra_from_matrices
from flexcheck.roots import classify_root, decompose
from flexcheck.scalars import Field, realify
from flexcheck.surface import _expm, surface_representation
from reference import bracket_coords, root_eigenspace, torus_gram

# every catalog case with roots, two conjugates at scale 1.0 (g = exp(X), X
# with normal coefficients, so that ad of the torus is far from normal) and
# the rank-2 center of the bent genus-2 group, with a mixed root
ROOT_CASES = ([c.name for c in default_cases() if c.computable and c.center_dim]
              + ["sp31-cline conjugate", "su41-rplane conjugate", "bent-sl5"])


def _conjugate(name: str, scale: float, seed: int):
    rep = build_case_representation(name)
    x = scale * np.random.default_rng(seed).standard_normal(rep.model.dim)
    g = _expm(rep.model.matrix(x))
    ginv = np.linalg.inv(g)
    return surface_representation(rep.presentation, rep.model, [g @ a @ ginv for a in rep.images])


@pytest.fixture(scope="module")
def root_decompositions():
    """(name, model, decomposition) for every entry of ROOT_CASES."""
    out = []
    for name in ROOT_CASES:
        if name == "bent-sl5":
            rep = bent_genus2()
        elif name.endswith(" conjugate"):
            rep = _conjugate(name.split()[0], 1.0, 0)
        else:
            rep = build_case_representation(name)
        dec = Pipeline(rep).decomposition
        assert dec.roots, name
        if name.endswith(" conjugate"):
            ad = rep.model.ad(dec.torus.coords[0])
            assert np.abs(ad @ ad.T - ad.T @ ad).max() > 1e-2 * np.abs(ad).max() ** 2, name
        out.append((name, rep.model, dec))
    assert {r.classification for _, _, dec in out for r in dec.roots} == {"imaginary", "mixed"}
    return out


def test_classify_root_basics():
    assert classify_root(np.array([3j])) == "imaginary"
    assert classify_root(np.array([2.0 + 0j])) == "real"
    assert classify_root(np.array([1.0 + 1.0j])) == "mixed"
    with pytest.raises(NumericalAbort):
        classify_root(np.array([0.0 + 0j]))


def _value_at(dec, root, mat) -> complex:
    """The root's value at a torus element given as a matrix."""
    # the torus matrices are orthonormal in the trace form, so they read off its coordinates
    coords = dec.torus.matrices.reshape(dec.torus.dim, -1) @ mat.reshape(-1)
    return complex(root.values @ coords)


def test_su21_decomposition(case_pipeline):
    rep, z, c, dec = case_pipeline("su21-cline")
    assert dec.g0_dim == 4
    assert len(dec.roots) == 1
    r = dec.roots[0]
    assert r.classification == "imaginary"
    assert r.real_dim == 4 and r.complex_dim == 2
    zmat = realify(np.diag([-2j, 1j, 1j]), Field.COMPLEX)
    val = _value_at(dec, r, zmat)
    assert abs(abs(val.imag) - 3.0) < 1e-8 and abs(val.real) < 1e-8
    # full root list, the nonzero eigenvalues of ad(t), comes in +- pairs
    ev = np.linalg.eigvals(rep.model.ad(dec.torus.coords[0]))
    vals = sorted(set(np.round(ev[np.abs(ev) > 1e-8].imag, 6)))
    assert len(vals) == 2 and vals[0] == -vals[1]


def test_so41_decomposition(case_pipeline):
    rep, z, c, dec = case_pipeline("so41-rplane")
    assert dec.g0_dim == 4
    assert len(dec.roots) == 1
    r = dec.roots[0]
    assert r.classification == "imaginary"
    assert r.real_dim == 6 and r.complex_dim == 3


def test_empty_torus(models):
    m = models["su21"]
    empty = subalgebra_from_matrices(m, [])
    dec = decompose(m, empty)
    assert dec.g0_dim == m.dim
    assert dec.roots == ()


def test_direct_sum_and_orthogonality(root_decompositions):
    for name, model, dec in root_decompositions:
        total = dec.g0_dim + sum(r.real_dim for r in dec.roots)
        assert total == model.dim
        for i, r1 in enumerate(dec.roots):
            for r2 in dec.roots[i + 1:]:
                cross = r1.real_basis.T @ model.killing @ r2.real_basis
                assert np.abs(cross).max() < 1e-9 * max(np.abs(model.killing).max(), 1.0)


def test_omega_alternating_and_bracket_identity(root_decompositions, rng):
    for name, model, dec in root_decompositions:
        gram = torus_gram(dec)
        for r in dec.roots:
            om = r.omega
            assert np.abs(om + om.T).max() < 1e-8 * max(np.abs(om).max(), 1.0)
            for _ in range(20):
                xi = rng.standard_normal(r.real_dim)
                yi = rng.standard_normal(r.real_dim)
                x = r.real_basis @ xi
                y = r.real_basis @ yi
                br = bracket_coords(model, x, y)
                scale = max(np.abs(br).max(), 1.0)
                om_xy = complex(xi @ om @ yi)
                # Killing pairings with the torus basis: gram @ t_vector = values
                dual = dec.torus.coords @ model.killing @ br
                assert np.abs(dual - np.real(om_xy * r.values)).max() < 1e-8 * scale
                if name.endswith(" conjugate"):
                    continue    # Killing Gram down to 3e-4: solving with it loses 4 digits
                # Killing-orthogonal projection onto the torus, in torus coordinates
                tproj = np.linalg.solve(gram, dual)
                assert np.abs(tproj - np.real(om_xy * r.t_vector)).max() < 1e-8 * scale


def test_t_vector_defining_relation(root_decompositions):
    for name, model, dec in root_decompositions:
        gram = torus_gram(dec)
        for r in dec.roots:
            resid = np.abs(gram.astype(complex) @ r.t_vector - r.values).max()
            assert resid < 1e-9 * max(np.abs(r.values).max(), 1.0)


def test_imaginary_omega_is_imaginary_and_nondegenerate(case_pipeline):
    rep, z, c, dec = case_pipeline("su21-cline")
    r = dec.roots[0]
    assert np.abs(r.omega.real).max() < 1e-9 * np.abs(r.omega).max()
    s = np.linalg.svd(r.omega.imag, compute_uv=False)
    assert s[-1] > 1e-9 * s[0]


def test_real_roots_on_sl2(models):
    m = models["sl2"]
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    torus = subalgebra_from_matrices(m, [h])
    dec = decompose(m, torus)
    assert len(dec.roots) == 1
    r = dec.roots[0]
    assert r.classification == "real"
    assert r.real_dim == 2
    assert np.abs(r.omega.imag).max() < 1e-9 * np.abs(r.omega).max()
    s = np.linalg.svd(r.omega.real, compute_uv=False)
    assert s[-1] > 1e-9 * s[0]
    val = _value_at(dec, r, h)
    assert abs(abs(val.real) - 2.0) < 1e-9 and abs(val.imag) < 1e-9


def test_mixed_roots_on_so31(models):
    m = models["so31"]
    # rotation in the (1,2)-plane plus boost along the 3rd axis: complex eigs
    rot = np.zeros((4, 4)); rot[0, 1], rot[1, 0] = -1.0, 1.0
    boost = np.zeros((4, 4)); boost[2, 3], boost[3, 2] = 1.0, 1.0
    torus = subalgebra_from_matrices(m, [rot + boost])
    dec = decompose(m, torus)
    assert dec.roots, "expected nonzero roots"
    kinds = {r.classification for r in dec.roots}
    assert "imaginary" not in kinds          # complex Lie algebra: no imaginary roots
    assert "mixed" in kinds


def test_nonabelian_torus_rejected(models):
    m = models["sl2"]
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    bad = subalgebra_from_matrices(m, [e, f])
    with pytest.raises(NumericalAbort):
        decompose(m, bad)


def _coords_in_span(basis, vectors):
    """Least-squares coordinates of ``vectors`` in the span of ``basis``, checked to lie in it."""
    coeff = np.linalg.lstsq(basis, vectors.astype(complex), rcond=None)[0]
    assert np.abs(basis @ coeff - vectors).max() < 1e-8
    return coeff


def test_omega_sign_under_representative_flip(case_pipeline):
    # Omega_{-lambda} = -Omega_lambda: rebuild the form with the roles of
    # g_lambda and g_{-lambda} exchanged
    rep, z, c, dec = case_pipeline("su21-cline")
    r = dec.roots[0]
    model = rep.model
    spaces = [root_eigenspace(dec, v) for v in (r.values, -r.values)]
    stack = np.hstack(spaces)
    comp = _coords_in_span(stack, r.real_basis)
    k = spaces[0].shape[1]
    assert k == r.complex_dim
    plus = spaces[0] @ comp[:k]
    minus = spaces[1] @ comp[k:]
    kmat = model.killing.astype(complex)
    flipped = (minus - plus).T @ kmat @ (minus + plus)
    flipped = 0.5 * (flipped - flipped.T)
    assert np.abs(flipped + r.omega).max() < 1e-9 * np.abs(r.omega).max()


def test_omega_conjugate_for_mixed(models):
    # Omega_{conj lambda} = conj(Omega_lambda) on a mixed decomposition
    m = models["so31"]
    rot = np.zeros((4, 4)); rot[0, 1], rot[1, 0] = -1.0, 1.0
    boost = np.zeros((4, 4)); boost[2, 3], boost[3, 2] = 1.0, 1.0
    torus = subalgebra_from_matrices(m, [rot + boost])
    dec = decompose(m, torus)
    r = [rr for rr in dec.roots if rr.classification == "mixed"][0]
    # g_l, g_-l, g_conj(l), g_-conj(l)
    spaces = [root_eigenspace(dec, v) for v in (r.values, -r.values, r.values.conj(),
                                                  -r.values.conj())]
    stack = np.hstack(spaces)
    sizes = np.cumsum([0] + [s.shape[1] for s in spaces])
    comp = _coords_in_span(stack, r.real_basis)
    kmat = m.killing.astype(complex)
    # conjugate representative: the conj(l), -conj(l) spaces take over the l, -l roles
    plus_c = spaces[2] @ comp[sizes[2]:sizes[3]]
    minus_c = spaces[3] @ comp[sizes[3]:sizes[4]]
    om_conj = 2.0 * (plus_c - minus_c).T @ kmat @ (plus_c + minus_c)
    om_conj = 0.5 * (om_conj - om_conj.T)
    assert np.abs(om_conj - np.conj(r.omega)).max() < 1e-8 * np.abs(r.omega).max()


def test_defective_torus_rejected(models):
    # span{E} is abelian but ad_E is nilpotent (defective): not a torus
    m = models["sl2"]
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    sub = subalgebra_from_matrices(m, [e])
    with pytest.raises(NumericalAbort):
        decompose(m, sub)


@pytest.mark.parametrize("name", ["su21-cline", "su31-cline", "su41-cline"])
def test_coarse_cluster_tolerance_aborts(name):
    # every eigenvalue snaps into the zero cluster: g_0 would be the whole
    # algebra, but the kernel of ad(t) is its centralizer
    coarse = dataclasses.replace(DEFAULT, cluster=0.9)
    with pytest.raises(NumericalAbort, match="g_0 has dimension"):
        verdict(build_case_representation(name), coarse)


def test_decompose_factorization_count(monkeypatch):
    # one SVD of the torus ad's, then per root orbit one kernel and one
    # real-basis SVD; no least-squares solve
    pipe = Pipeline(build_case_representation("sp31-cline"))
    center = pipe.center
    calls = {"svd": 0, "lstsq": 0}
    for fname in calls:
        original = getattr(np.linalg, fname)

        def counted(*args, _name=fname, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, fname, counted)
    dec = decompose(pipe.rep.model, center)
    assert [r.classification for r in dec.roots] == ["imaginary", "imaginary"]
    assert calls["lstsq"] == 0 and calls["svd"] <= 1 + 2 * len(dec.roots) == 5
