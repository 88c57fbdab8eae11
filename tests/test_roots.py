import numpy as np
import pytest

from flexcheck.config import NumericalAbort
from flexcheck.liealg import subalgebra_from_matrices
from flexcheck.roots import classify_root, decompose
from flexcheck.scalars import Field, realify


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
    # full root list comes in +- pairs
    vals = sorted(np.round(v[0].imag, 6) for v in dec.all_values)
    assert vals[0] == -vals[1]


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


def test_direct_sum_and_orthogonality(case_pipeline):
    for name in ("su21-cline", "sp21-cline"):
        rep, z, c, dec = case_pipeline(name)
        model = rep.model
        total = dec.g0_dim + sum(r.real_dim for r in dec.roots)
        assert total == model.dim
        for i, r1 in enumerate(dec.roots):
            for r2 in dec.roots[i + 1:]:
                cross = r1.real_basis.T @ model.killing @ r2.real_basis
                assert np.abs(cross).max() < 1e-9 * max(np.abs(model.killing).max(), 1.0)


def test_omega_alternating_and_bracket_identity(case_pipeline, rng):
    for name in ("su21-cline", "so41-rplane", "sp21-cline"):
        rep, z, c, dec = case_pipeline(name)
        model = rep.model
        for r in dec.roots:
            om = r.omega
            assert np.abs(om + om.T).max() < 1e-8 * max(np.abs(om).max(), 1.0)
            for _ in range(20):
                xi = rng.standard_normal(r.real_dim)
                yi = rng.standard_normal(r.real_dim)
                x = r.real_basis @ xi
                y = r.real_basis @ yi
                br = model.bracket_coords(x, y)
                # Killing-orthogonal projection onto the torus, in torus coordinates
                tproj = np.linalg.solve(dec.killing_gram, dec.torus.coords @ model.killing @ br)
                pred = np.real(complex(xi @ om @ yi) * r.t_vector)
                scale = max(np.abs(br).max(), 1.0)
                assert np.abs(tproj - pred).max() < 1e-8 * scale


def test_t_vector_defining_relation(case_pipeline):
    for name in ("su21-cline", "so41-rplane", "sp21-cline"):
        rep, z, c, dec = case_pipeline(name)
        for r in dec.roots:
            resid = np.abs(dec.killing_gram.astype(complex) @ r.t_vector - r.values).max()
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
    bad = subalgebra_from_matrices(m, [e, f], check_closure=False)
    with pytest.raises(NumericalAbort):
        decompose(m, bad)


def test_omega_sign_under_representative_flip(case_pipeline):
    # Omega_{-lambda} = -Omega_lambda: rebuild the form with the roles of
    # g_lambda and g_{-lambda} exchanged
    rep, z, c, dec = case_pipeline("su21-cline")
    r = dec.roots[0]
    model = rep.model
    from flexcheck.linalg import solve_in_span
    stack = np.hstack([r.spaces["+l"], r.spaces["-l"]])
    comp = solve_in_span(stack, r.real_basis.astype(complex))
    k = r.spaces["+l"].shape[1]
    plus = r.spaces["+l"] @ comp[:k]
    minus = r.spaces["-l"] @ comp[k:]
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
    from flexcheck.linalg import solve_in_span
    stack = np.hstack([r.spaces[k] for k in ("+l", "-l", "+c", "-c")])
    sizes = np.cumsum([0] + [r.spaces[k].shape[1] for k in ("+l", "-l", "+c", "-c")])
    comp = solve_in_span(stack, r.real_basis.astype(complex))
    kmat = m.killing.astype(complex)
    # conjugate representative: the +c/-c spaces take over the +l/-l roles
    plus_c = r.spaces["+c"] @ comp[sizes[2]:sizes[3]]
    minus_c = r.spaces["-c"] @ comp[sizes[3]:sizes[4]]
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

