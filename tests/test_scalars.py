import numpy as np
import pytest

from flexcheck.config import FlexcheckError
from flexcheck.scalars import (
    Field,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    Quaternion,
    left_block,
    realify,
    right_multiplication_operator,
)


def test_hamilton_relations():
    assert (Q_I * Q_J).components() == Q_K.components()
    assert (Q_J * Q_K).components() == Q_I.components()
    assert (Q_K * Q_I).components() == Q_J.components()
    assert (Q_I * Q_I).components() == (-1.0, 0.0, 0.0, 0.0)


def test_identity_and_mismatch():
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert Q_ONE * q == q


def test_associativity_random_triples(rng):
    for _ in range(100):
        p, q, r = (Quaternion(*rng.standard_normal(4)) for _ in range(3))
        lhs = (p * q) * r
        rhs = p * (q * r)
        assert max(abs(a - b) for a, b in zip(lhs.components(), rhs.components())) < 1e-13


def test_conjugation_antiautomorphism(rng):
    for _ in range(50):
        p, q = (Quaternion(*rng.standard_normal(4)) for _ in range(2))
        lhs = (p * q).conjugate()
        rhs = q.conjugate() * p.conjugate()
        assert max(abs(a - b) for a, b in zip(lhs.components(), rhs.components())) < 1e-13


def test_realify_single_complex_entry():
    out = realify(np.array([[1j]]), Field.COMPLEX)
    assert np.array_equal(out, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_realify_quaternion_block_count():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    mats = [[q, Q_ONE], [Q_J, Q_K]]
    out = realify(mats, Field.QUATERNION)
    assert isinstance(out, np.ndarray) and out.shape == (8, 8)


@pytest.mark.parametrize("field", list(Field))
def test_realify_rejects_non_matrix_shapes(field):
    one = {Field.REAL: 1.0, Field.COMPLEX: 1j, Field.QUATERNION: Q_ONE}[field]
    for mat in ([one], [[one], []]):
        with pytest.raises(FlexcheckError, match="2-dimensional"):
            realify(mat, field)


@pytest.mark.parametrize("field, bad", [
    (Field.REAL, 1j), (Field.COMPLEX, "x"), (Field.QUATERNION, "x")])
def test_realify_rejects_entries_outside_the_field(field, bad):
    one = {Field.REAL: 1.0, Field.COMPLEX: 1j, Field.QUATERNION: Q_ONE}[field]
    with pytest.raises(FlexcheckError, match=rf"entry \(0, 1\).* field {field.value}"):
        realify([[one, bad]], field)


@pytest.mark.parametrize("field", list(Field))
def test_realify_rejects_strings(field):
    for bad in ("1", "", "1+2j"):
        with pytest.raises(FlexcheckError, match=rf"entry \(0, 0\).* field {field.value}"):
            realify([[bad]], field)


@pytest.mark.parametrize("field", list(Field))
def test_realify_accepts_real_numbers(field):
    # R sits inside C and H: a real entry realifies to a multiple of the identity
    for value in (1.0, -2, np.float64(0.5)):
        out = realify([[value, 0.0]], field)
        assert np.array_equal(out, np.hstack([value * np.eye(field.dim), np.zeros((field.dim,) * 2)]))


def test_realify_is_ring_homomorphism(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = realify(a @ b, Field.COMPLEX)
    rhs = realify(a, Field.COMPLEX) @ realify(b, Field.COMPLEX)
    assert np.abs(lhs - rhs).max() < 1e-12

    qa = [[Quaternion(*rng.standard_normal(4)) for _ in range(2)] for _ in range(2)]
    qb = [[Quaternion(*rng.standard_normal(4)) for _ in range(2)] for _ in range(2)]
    prod = [[qa[i][0] * qb[0][j] + qa[i][1] * qb[1][j] for j in range(2)] for i in range(2)]
    lhs = realify(prod, Field.QUATERNION)
    rhs = realify(qa, Field.QUATERNION) @ realify(qb, Field.QUATERNION)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_realify_sum_and_trace(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    lhs = realify(a + b, Field.COMPLEX)
    rhs = realify(a, Field.COMPLEX) + realify(b, Field.COMPLEX)
    assert np.abs(lhs - rhs).max() < 1e-12
    assert abs(np.trace(realify(a, Field.COMPLEX)) - 2 * np.trace(a).real) < 1e-12


def test_conjugate_transpose_realifies_to_transpose(rng):
    q = [[Quaternion(*rng.standard_normal(4)) for _ in range(2)] for _ in range(2)]
    qstar = [[q[j][i].conjugate() for j in range(2)] for i in range(2)]
    assert np.abs(realify(qstar, Field.QUATERNION)
                  - realify(q, Field.QUATERNION).T).max() < 1e-13


def test_right_multiplication_commutes_with_left_blocks(rng):
    q = Quaternion(*rng.standard_normal(4))
    lb = left_block(q, Field.QUATERNION)
    for unit in (Q_I, Q_J, Q_K):
        rb = right_multiplication_operator(Field.QUATERNION, 1, unit)
        assert np.abs(lb @ rb - rb @ lb).max() < 1e-13
