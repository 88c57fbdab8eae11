"""Scalars over R, C, H and realification of matrices.

Quaternionic matrices are realified eagerly; every downstream computation
runs on real matrices.  A complex entry a+bi turns into the 2x2 block
[[a,-b],[b,a]], a quaternion into the 4x4 matrix of left multiplication on
(1,i,j,k) coordinates, so realification is a ring homomorphism.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .config import FlexcheckError


class Field(enum.Enum):
    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"

    @property
    def dim(self) -> int:
        return {Field.REAL: 1, Field.COMPLEX: 2, Field.QUATERNION: 4}[self]


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + xi + yj + zk with Hamilton's relations ij = k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, q: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + q.w, self.x + q.x, self.y + q.y, self.z + q.z)

    def __sub__(self, q: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - q.w, self.x - q.x, self.y - q.y, self.z - q.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, q: "Quaternion") -> "Quaternion":
        if isinstance(q, (int, float)):
            return Quaternion(self.w * q, self.x * q, self.y * q, self.z * q)
        return Quaternion(
            self.w * q.w - self.x * q.x - self.y * q.y - self.z * q.z,
            self.w * q.x + self.x * q.w + self.y * q.z - self.z * q.y,
            self.w * q.y - self.x * q.z + self.y * q.w + self.z * q.x,
            self.w * q.z + self.x * q.y - self.y * q.x + self.z * q.w,
        )

    def __rmul__(self, c) -> "Quaternion":
        if isinstance(c, (int, float)):
            return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __abs__(self) -> float:
        return float(np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2))

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


Q_ONE = Quaternion(1.0)
Q_I = Quaternion(0.0, 1.0)
Q_J = Quaternion(0.0, 0.0, 1.0)
Q_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _field_scalar(value, field: Field):
    """``value`` as a scalar of the field (see ``realify``); TypeError otherwise."""
    if field is Field.QUATERNION:
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, numbers.Real):
            return Quaternion(float(value))
    elif isinstance(value, numbers.Real if field is Field.REAL else numbers.Complex):
        return value
    raise TypeError(f"{value!r} is not a scalar of the field {field.value}")


def left_block(value, field: Field) -> np.ndarray:
    """Realified block of left multiplication by a scalar of the given field."""
    value = _field_scalar(value, field)
    if field is Field.REAL:
        return np.array([[float(value)]])
    if field is Field.COMPLEX:
        a, b = float(np.real(value)), float(np.imag(value))
        return np.array([[a, -b], [b, a]])
    a, b, c, d = value.components()
    return np.array(
        [
            [a, -b, -c, -d],
            [b, a, -d, c],
            [c, d, a, -b],
            [d, -c, b, a],
        ]
    )


def right_block(value, field: Field) -> np.ndarray:
    """Realified block of right multiplication (used for structure checks)."""
    if field is not Field.QUATERNION:
        return left_block(value, field)  # R and C are commutative
    q = _field_scalar(value, field)
    basis = (Q_ONE, Q_I, Q_J, Q_K)
    cols = [(e * q).components() for e in basis]
    return np.array(cols).T


def realify(mat, field: Field) -> np.ndarray:
    """Realify a matrix with entries in the given field: a (d rows, d cols) real array, d = dim F.

    Accepts a 2-dimensional array or nested sequence whose entries are
    scalars of the field: real numbers for R, real or complex numbers for C,
    real numbers or Quaternions for H.  Any other entry, a string say,
    raises FlexcheckError.
    """
    try:
        shape = np.shape(mat)
    except ValueError:  # ragged rows
        shape = ()
    if len(shape) != 2:
        raise FlexcheckError("realify expects a 2-dimensional matrix")
    rows, cols = shape
    d = field.dim
    out = np.zeros((d * rows, d * cols))
    for i in range(rows):
        for j in range(cols):
            try:
                out[d * i : d * (i + 1), d * j : d * (j + 1)] = left_block(mat[i][j], field)
            except (TypeError, ValueError) as exc:
                raise FlexcheckError(
                    f"realify: entry ({i}, {j}) is not a scalar of the field {field.value}"
                ) from exc
    return out


def realified_entry_block(field: Field, n: int, i: int, j: int, value) -> np.ndarray:
    """Realification of value * E_ij inside an n x n matrix over the field."""
    d = field.dim
    out = np.zeros((d * n, d * n))
    out[d * i : d * (i + 1), d * j : d * (j + 1)] = left_block(value, field)
    return out


def right_multiplication_operator(field: Field, n: int, value) -> np.ndarray:
    """Realified operator of right scalar multiplication on F^n-matrices.

    Commutes with every realified matrix; used to certify that a real
    matrix genuinely comes from the field's matrix algebra.
    """
    blk = right_block(value, field)
    return np.kron(np.eye(n), blk)


def field_units(field: Field):
    if field is Field.REAL:
        return (1.0,)
    if field is Field.COMPLEX:
        return (1.0, 1j)
    return (Q_ONE, Q_I, Q_J, Q_K)


def imaginary_units(field: Field):
    if field is Field.REAL:
        return ()
    if field is Field.COMPLEX:
        return (1j,)
    return (Q_I, Q_J, Q_K)
