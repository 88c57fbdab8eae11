"""realify and the right operators against an oracle that shares no code with their tables.

The oracle writes a complex entry as a Python complex number and a
quaternion w + xi + yj + zk as the complex 2 x 2 matrix
[[w + xi, y + zi], [-y + zi, w - xi]], so a matrix over F is a complex
matrix and its products, sums and conjugate transposes are numpy's.
"""

import hashlib

import numpy as np
import pytest

from flexcheck.catalog import default_cases
from flexcheck.config import FlexcheckError
from flexcheck.liealg import build_classical
from flexcheck.scalars import Field, realify, right_multiplication_operator

UNITS = {name: np.eye(4)[a] for a, name in enumerate("1ijk")}


def _oracle(parts: np.ndarray, field: Field) -> np.ndarray:
    """The complex matrix of an (n, k, d) array of components."""
    if field is Field.REAL:
        return parts[..., 0].astype(complex)
    if field is Field.COMPLEX:
        return parts[..., 0] + 1j * parts[..., 1]
    a = parts[..., 0] + 1j * parts[..., 1]
    b = parts[..., 2] + 1j * parts[..., 3]
    n, k = a.shape
    return np.array([[a, b], [-b.conj(), a.conj()]]).transpose(2, 0, 3, 1).reshape(2 * n, 2 * k)


def _oracle_parts(mat: np.ndarray, field: Field) -> np.ndarray:
    """The (n, k, d) components of an oracle matrix: the inverse of ``_oracle``."""
    if field is Field.REAL:
        return mat.real[..., None]
    if field is Field.COMPLEX:
        return np.stack([mat.real, mat.imag], axis=-1)
    a, b = mat[::2, ::2], mat[::2, 1::2]
    return np.stack([a.real, a.imag, b.real, b.imag], axis=-1)


def _unit(name: str) -> np.ndarray:
    return realify(UNITS[name][None, None], Field.QUATERNION)


def _times(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Components of the quaternion product pq through realify's table: L(p) q."""
    return realify(p[None, None], Field.QUATERNION) @ q


def _conjugate(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def test_hamilton_relations():
    i, j, k = _unit("i"), _unit("j"), _unit("k")
    assert np.array_equal(_unit("1"), np.eye(4))
    assert np.array_equal(i @ j, k) and np.array_equal(j @ k, i) and np.array_equal(k @ i, j)
    for u in (i, j, k):
        assert np.array_equal(u @ u, -np.eye(4))
    # the oracle obeys them too
    oi, oj, ok = (_oracle(UNITS[name][None, None], Field.QUATERNION) for name in "ijk")
    assert np.array_equal(oi @ oj, ok) and np.array_equal(oi @ oi, -np.eye(2))


def test_identity_and_mismatch(rng):
    q = rng.standard_normal(4)
    assert np.array_equal(_times(UNITS["1"], q), q)
    assert not np.allclose(_times(UNITS["i"], q), _times(q, UNITS["i"]))


def test_associativity_random_triples(rng):
    for _ in range(100):
        p, q, r = rng.standard_normal((3, 4))
        assert np.abs(_times(_times(p, q), r) - _times(p, _times(q, r))).max() < 1e-13


def test_conjugation_antiautomorphism(rng):
    for _ in range(50):
        p, q = rng.standard_normal((2, 4))
        lhs = _conjugate(_times(p, q))
        assert np.abs(lhs - _times(_conjugate(q), _conjugate(p))).max() < 1e-13


def test_realify_single_complex_entry():
    out = realify([[[0.0, 1.0]]], Field.COMPLEX)
    assert np.array_equal(out, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_realify_quaternion_block_count():
    out = realify(np.arange(16.0).reshape(2, 2, 4), Field.QUATERNION)
    assert isinstance(out, np.ndarray) and out.shape == (8, 8)


@pytest.mark.parametrize("field", list(Field))
def test_realify_rejects_non_matrix_shapes(field):
    one = [1.0] * field.dim
    for parts in ([one], [[one], [one, one]], [[one + [0.0]]], [[1.0]], 1.0):
        with pytest.raises(FlexcheckError, match=rf"components over {field.value} must "
                           rf"(have shape \(\*, \*, {field.dim}\)|be an array)"):
            realify(parts, field)


@pytest.mark.parametrize("field, bad", [
    (Field.REAL, 1j), (Field.COMPLEX, "x"), (Field.QUATERNION, "x")])
def test_realify_rejects_entries_outside_the_field(field, bad):
    one = [1.0] + [0.0] * (field.dim - 1)
    for entry in ([bad] * field.dim, one[1:] + [bad]):
        with pytest.raises(FlexcheckError, match=rf"components over {field.value} must be real"):
            realify([[one, entry]], field)
    with pytest.raises(FlexcheckError, match="must be real"):
        realify(np.full((1, 1, field.dim), 1j), field)


@pytest.mark.parametrize("field", list(Field))
def test_realify_rejects_strings(field):
    for bad in ("1", "", "1+2j"):
        with pytest.raises(FlexcheckError, match=rf"components over {field.value} must be real"):
            realify([[[bad] * field.dim]], field)


@pytest.mark.parametrize("field", list(Field))
def test_realify_accepts_real_numbers(field):
    # R sits inside C and H: a real entry realifies to a multiple of the identity
    d = field.dim
    for value in (1.0, -2, np.float64(0.5)):
        parts = np.zeros((1, 2, d))
        parts[0, 0, 0] = value
        out = realify(parts, field)
        assert np.array_equal(out, np.hstack([value * np.eye(d), np.zeros((d, d))]))
    assert np.array_equal(realify([[[3] + [0] * (d - 1)]], field), 3.0 * np.eye(d))


def test_realify_is_ring_homomorphism(rng):
    for field in 10 * [Field.COMPLEX, Field.QUATERNION]:
        a = rng.standard_normal((2, 3, field.dim))
        b = rng.standard_normal((3, 2, field.dim))
        prod = _oracle_parts(_oracle(a, field) @ _oracle(b, field), field)
        assert np.abs(realify(prod, field) - realify(a, field) @ realify(b, field)).max() < 1e-12


def test_realify_sum_and_trace(rng):
    for field in Field:
        a, b = rng.standard_normal((2, 5, 5, field.dim))
        total = _oracle_parts(_oracle(a, field) + _oracle(b, field), field)
        assert np.abs(realify(total, field) - (realify(a, field) + realify(b, field))).max() < 1e-12
        # an entry's realified block has trace d times its real part, its oracle block 1 or 2 times
        per_entry = _oracle(a, field).shape[0] // 5
        assert abs(per_entry * np.trace(realify(a, field))
                   - field.dim * np.trace(_oracle(a, field)).real) < 1e-12


def test_conjugate_transpose_realifies_to_transpose(rng):
    for field in Field:
        q = rng.standard_normal((2, 3, field.dim))
        qstar = _oracle_parts(_oracle(q, field).conj().T, field)
        assert np.abs(realify(qstar, field) - realify(q, field).T).max() < 1e-13


@pytest.mark.parametrize("field", list(Field))
def test_right_operator_multiplies_on_the_right(field, rng):
    for _ in range(20):
        x, y = rng.standard_normal((2, 1, 1, field.dim))
        right = right_multiplication_operator(field, 1, y[0, 0])
        expected = _oracle_parts(_oracle(x, field) @ _oracle(y, field), field)
        assert np.abs(right @ x[0, 0] - expected[0, 0]).max() < 1e-13


def test_right_multiplication_commutes_with_left_blocks(rng):
    lb = realify(rng.standard_normal((1, 1, 4)), Field.QUATERNION)
    for name in "ijk":
        rb = right_multiplication_operator(Field.QUATERNION, 1, UNITS[name])
        assert np.abs(lb @ rb - rb @ lb).max() < 1e-13


# SHA-256 of the bytes of realify's output on (arange(6 d) - 5) / 4 as a
# (2, 3, d) array, and of each catalog group's basis and form.  The
# arithmetic is exact and BLAS-free, so any BLAS thread count gives these
# bytes; they hold every realified input the reports start from.
REALIFY_PINS = {
    Field.REAL: "e9a90f1929f91b0777e59b47a3397f0309f9677a59f86d6618d274ddb39df225",
    Field.COMPLEX: "bd1dfcac0f958e594021b566d19cd8597dd170d4d240dcd34383eb6ce2582553",
    Field.QUATERNION: "5c33cb183534e4cba4dcbe3b33bb65fe864a19ca4983463c6cd9e1a68b5a40aa",
}
MODEL_PINS = {
    ("so", 3, 1): ("541c68561ffe3d10b606206db7eb6a4ad69c1301d119b37056ce0a85f65efdd6",
                   "394bd346fd699627a684fdee9ddd0591b3ed790b8f8b7417a6a83dc4e64c6a22"),
    ("so", 4, 1): ("2820262457138138c50fdb5a2416a2bc1fc4291a273b333dee3a0591675412eb",
                   "9a63f394fc2bccf2b4b44dca24ba97c1c131e26931627671e2de986d34cc8065"),
    ("sp", 2, 1): ("ee5d13d8debd85489b86cfd986c40d542e02e58a14c1bb3c64cca1c1b0e82193",
                   "6a53dd0eb685a5e227930a8debd3c2528bcc55d536881e6cfd77ba5f847158e6"),
    ("sp", 3, 1): ("88f202838caae9df665ff1d9952ad40b4dbb4a8cb7057238b95626dcba974c8b",
                   "32294310950a7e6594aa09f914c4931952c63b453a5552fd257ecb68380b4633"),
    ("su", 2, 1): ("31b0bceadb78d0b7d9051dfa5d44bb384bb48921699229714251e6e516c74940",
                   "c84cd46e2912359002a57c84a06983ace4ffea062fa2b3330ae95acaab0ccaf4"),
    ("su", 3, 1): ("6236dbefa31e56cc1c5ffb8b115e79b605cfc81d81a85bb8ce21c2a112a43ed9",
                   "8ec57213548da10e1cc38aad224c804fc771860e02e37bebce423827b8148632"),
    ("su", 4, 1): ("d6ad32b744bd6fd80e2b5aca563998f60f3f5ece13b907907cd455fa5527c5f0",
                   "ad68aafb7a3d80e7046da3e60dcacc7356162d15a0dda8a97de51ec6b70c69d3"),
}


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("field", list(Field))
def test_realify_keeps_its_pinned_bytes(field):
    parts = ((np.arange(6 * field.dim) - 5) / 4.0).reshape(2, 3, field.dim)
    assert _sha(realify(parts, field)) == REALIFY_PINS[field]


def test_the_pins_cover_every_catalog_group():
    assert set(MODEL_PINS) == {(c.family, c.m, 1) for c in default_cases() if c.computable}


@pytest.mark.parametrize("group", sorted(MODEL_PINS), ids=lambda g: "".join(map(str, g)))
def test_catalog_models_keep_their_pinned_basis_and_form(group):
    model = build_classical(*group)
    assert (_sha(model.basis), _sha(model.form)) == MODEL_PINS[group]
