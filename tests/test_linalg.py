import re

import numpy as np
import pytest

from flexcheck.catalog import build_case_representation
from flexcheck.config import DEFAULT, FlexcheckError, NumericalAbort
from flexcheck.linalg import (
    joint_eigenspace,
    joint_eigenvalues,
    matrix_scale,
    nullspace,
    numeric_array,
    orthonormal_columns,
    rank,
    relative_residual,
    spectral_norms,
)
from flexcheck.liealg import build_classical
from flexcheck.scalars import Field, realify
from reference import components


def test_nullspace_zero_and_identity():
    assert nullspace(np.zeros((3, 3))).shape == (3, 3)
    assert nullspace(np.eye(3)).shape == (3, 0)
    with pytest.raises(NumericalAbort):
        nullspace(np.zeros((3, 0)))


def test_a_nan_residual_fails_every_check():
    # NaN > tol is false for every tol, so a NaN entry, or inf / inf, must read inf
    assert relative_residual(np.array([np.nan, 0.0]), np.ones(2)) == np.inf
    assert relative_residual(np.array([1.0]), np.array([np.nan])) == np.inf
    assert relative_residual(np.array([np.inf]), np.array([np.inf])) == np.inf
    rows = relative_residual(np.array([[np.nan, 1.0], [3.0, 0.0]]), np.full((2, 2), 2.0), axis=1)
    assert list(rows) == [np.inf, 1.5]


def test_nullspace_rank_one_outer(rng):
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    a = np.outer(u, v)
    ker = nullspace(a)
    assert ker.shape == (4, 3)
    assert np.abs(ker.T @ v).max() < 1e-10
    assert np.abs(a @ ker).max() < 1e-10


def test_rank_plus_nullity(rng):
    for _ in range(10):
        a = rng.standard_normal((5, 7))
        a[:, -2] = a[:, 0]          # force rank deficiency
        assert rank(a) + nullspace(a).shape[1] == 7


def _eigenspaces(ops) -> list[tuple[tuple, np.ndarray]]:
    """(values, orthonormal basis) of each joint eigenvalue cluster of a commuting stack."""
    stack = np.stack(ops)
    scale = matrix_scale(stack)
    return [(vals, joint_eigenspace(stack, vals, width, DEFAULT, scale))
            for vals, width in joint_eigenvalues(stack, DEFAULT, scale)]


def test_simultaneous_single_rotation():
    op = np.array([[0.0, -1.0], [1.0, 0.0]])
    spaces = _eigenspaces([op])
    vals = sorted(v[0].imag for v, _ in spaces)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)
    assert all(abs(v[0].real) < 1e-12 for v, _ in spaces)
    assert all(w.shape[1] == 1 for _, w in spaces)


def test_simultaneous_empty_ops():
    # no operator leaves one cluster, the whole space, with no values
    assert joint_eigenvalues(np.zeros((0, 4, 4)), DEFAULT, 0.0) == [((), 4)]


def test_simultaneous_su21_example():
    su21 = build_classical("su", 2, 1)
    z = realify(components(np.diag([-2j, 1j, 1j])), Field.COMPLEX)
    adz = su21.ad(su21.coords(z))
    spaces = _eigenspaces([adz])
    dims = {}
    for (val,), w in spaces:
        dims[complex(np.round(val, 6))] = w.shape[1]
    assert dims == {0j: 4, 3j: 2, -3j: 2}


def _real_similar(rng, blocks) -> np.ndarray:
    """A random real conjugate of the block-diagonal matrix of ``blocks``."""
    n = sum(len(b) for b in blocks)
    d = np.zeros((n, n))
    i = 0
    for b in blocks:
        d[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    g = rng.standard_normal((n, n)) + 3 * np.eye(n)
    return g @ d @ np.linalg.inv(g)


def test_real_operator_conjugate_clusters_are_exact_conjugates(rng):
    def rot(a, b):                  # eigenvalues a +- bi
        return np.array([[a, -b], [b, a]])

    op = _real_similar(rng, [rot(0.5, 2.0), rot(0.5, 2.0), rot(-1.0, 0.7), [[0.3]], [[0.0]]])
    spaces = _eigenspaces([op])
    assert sorted(w.shape[1] for _, w in spaces) == [1, 1, 1, 1, 2, 2]
    by_value = {complex(np.round(v[0], 6)): (v[0], w) for v, w in spaces}
    for lam in (-1.0 + 0.7j, 0.5 + 2.0j):
        (mu, w), (mu_c, w_c) = by_value[lam], by_value[lam.conjugate()]
        assert mu_c == mu.conjugate()
        # the two kernels span conjugate spaces
        assert np.abs(w_c @ w_c.conj().T - (w @ w.conj().T).conj()).max() < 1e-9
    # real eigenvalues get real kernels
    for lam in (0.0, 0.3):
        assert by_value[lam][0].imag == 0 and not np.iscomplexobj(by_value[lam][1])
    for (lam,), w in spaces:
        assert np.abs(op @ w - lam * w).max() < 1e-9


def test_real_conjugate_jordan_pair_is_defective(rng):
    # a +- bi each with algebraic multiplicity 2 and a one-dimensional eigenspace
    c = np.array([[0.5, -2.0], [2.0, 0.5]])
    op = _real_similar(rng, [np.block([[c, np.eye(2)], [np.zeros((2, 2)), c]])])
    with pytest.raises(NumericalAbort, match="defective"):
        _eigenspaces([op])


def test_noncommuting_rejected():
    a = np.diag([1.0, 2.0])
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalAbort, match="not invariant"):
        _eigenspaces([a, b])


def test_reconstruction_residual(rng):
    # commuting pair: polynomials in one semisimple matrix
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    d = np.diag(rng.integers(-3, 4, size=6).astype(float))
    base = q @ d @ q.T
    ops = [base, base @ base - 2 * base]
    spaces = _eigenspaces(ops)
    full = np.hstack([w for _, w in spaces])
    for i, op in enumerate(ops):
        vals = np.concatenate([np.full(w.shape[1], v[i]) for v, w in spaces])
        recon = full @ np.diag(vals) @ np.linalg.inv(full)
        assert np.abs(recon - op).max() < 1e-8 * max(np.abs(op).max(), 1.0)


def test_orthonormal_columns_rank(rng):
    a = rng.standard_normal((6, 3))
    cols = np.hstack([a, a[:, :1] + a[:, 1:2]])
    on = orthonormal_columns(cols)
    assert on.shape == (6, 3)
    assert np.abs(on.T @ on - np.eye(3)).max() < 1e-12


def _full_svd_nullspace(a, tol=1e-9, scale=0.0):
    """The kernel from a full SVD, as nullspace computed it before its thin path."""
    _, s, vh = np.linalg.svd(a)
    if max(s[0], scale) == 0.0:
        return np.eye(a.shape[1])
    return vh[int(np.sum(s > tol * max(s[0], scale))):].T


def _tall_stacks(rng):
    """Tall test matrices: rank-deficient products, a stacked Ad - 1 and all-noise input."""
    for rows, cols, r in ((12, 5, 3), (40, 8, 8), (30, 10, 0), (6, 6, 2)):
        yield rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols)), 0.0
    rep = build_case_representation("su21-cline")          # a centralizer's operator
    ads = rep.model.adjoint_group_matrix(np.stack(rep.images))
    yield (ads - np.eye(rep.model.dim)).reshape(-1, rep.model.dim), 1.0
    yield 1e-14 * rng.standard_normal((24, 6)), 1.0        # noise below the floor


def test_matrix_scale_of_a_stack_is_the_largest_2_norm_bitwise(rng):
    for shape in ((5, 4, 4), (3, 7, 2), (1, 6, 9), (8, 3, 3)):
        stack = rng.standard_normal(shape) * rng.uniform(0.1, 100.0, size=(shape[0], 1, 1))
        norms = [np.linalg.norm(a, 2) for a in stack]
        assert matrix_scale(stack) == max(norms)
        assert list(spectral_norms(stack)) == norms
    single = rng.standard_normal((4, 6))
    assert matrix_scale(single) == np.linalg.norm(single, 2)
    assert matrix_scale(np.zeros((3, 0, 4))) == 0.0 and matrix_scale(np.zeros((0, 2, 2))) == 0.0


def test_thin_nullspace_projector_matches_full_svd(rng):
    for a, scale in _tall_stacks(rng):
        got, ref = nullspace(a, scale=scale), _full_svd_nullspace(a, scale=scale)
        assert got.shape == ref.shape
        assert np.abs(got @ got.T - ref @ ref.T).max(initial=0.0) <= 1e-12
    # all noise with the floor: the whole space is the kernel
    noise = 1e-14 * rng.standard_normal((24, 6))
    assert nullspace(noise, scale=1.0).shape == (6, 6)
    assert nullspace(noise).shape[1] == 0


def test_wide_nullspace_keeps_the_full_kernel(rng):
    a = rng.standard_normal((3, 8))
    ker = nullspace(a)
    assert ker.shape == (8, 5) and np.abs(a @ ker).max() < 1e-12


def test_rank_scale_floor(rng):
    noise = 1e-14 * rng.standard_normal((10, 4))
    assert rank(noise) == 4 and rank(noise, scale=1.0) == 0


def test_rank_and_nullspace_take_nested_lists():
    # like numpy's own linear algebra, the entry points take any array-like
    assert rank([[1.0, 2.0], [2.0, 4.0]]) == 1 and rank([]) == 0
    assert nullspace([[1.0, 2.0], [2.0, 4.0]]).shape == (2, 1)


# the input contract: kind, then shape, then (on request) finiteness
@pytest.mark.parametrize("shape, good, bad", [
    ((2, 3), np.zeros((2, 3)), np.zeros((3, 2))),
    ((None, 3), np.zeros((5, 3)), np.zeros((5, 4))),
    ((..., 2, 2), np.zeros((4, 3, 2, 2)), np.zeros((2, 3, 2))),
    ((..., 2, 2), np.zeros((2, 2)), np.zeros(2)),
    ((None, None), np.zeros((0, 4)), np.zeros(4)),
    ((3,), [1, 2, 3], [[1, 2, 3]]),
    ((), 1.5, [1.5]),
], ids=["fixed", "free", "leading", "no-leading", "rank", "nested-list", "scalar"])
def test_numeric_array_states_each_axis(shape, good, bad):
    assert numeric_array(good, "x", shape).shape == np.shape(good)
    with pytest.raises(FlexcheckError, match=r"^x must have shape \(.*\), got \(") as exc:
        numeric_array(bad, "x", shape)
    assert not isinstance(exc.value, NumericalAbort)


def test_numeric_array_names_the_shape_it_wants():
    with pytest.raises(FlexcheckError, match=re.escape("x must have shape (..., *, 2), got (3,)")):
        numeric_array(np.zeros(3), "x", (..., None, 2))
    assert numeric_array(np.zeros((1, 2, 3)), "x").shape == (1, 2, 3)     # no shape, no rule


def test_numeric_array_rejects_ragged_input_and_other_kinds():
    with pytest.raises(FlexcheckError, match="x must be an array, got a ragged nesting"):
        numeric_array([[1.0, 2.0], [3.0]], "x", (None, None))
    with pytest.raises(FlexcheckError, match="x must be real numbers, got <U1"):
        numeric_array(["a", "b"], "x", (2,))
    with pytest.raises(FlexcheckError, match="x must be real numbers, got complex128"):
        numeric_array([1j], "x")
    with pytest.raises(FlexcheckError, match="x must be numbers, got object"):
        numeric_array([None], "x", kinds="biufc")
    assert numeric_array([1j, True, 2], "x", (3,), "biufc").dtype.kind == "c"


def test_numeric_array_checks_finiteness_after_the_shape():
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    assert numeric_array(nan, "x", (2, 2)) is nan                   # finite is opt-in
    for value in (nan, np.array([[np.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(NumericalAbort, match="non-finite entry in x"):
            numeric_array(value, "x", (2, 2), finite=True)
    # a malformed array is an input error even when it is non-finite too
    with pytest.raises(FlexcheckError) as exc:
        numeric_array(nan, "x", (3, 3), finite=True)
    assert not isinstance(exc.value, NumericalAbort)
