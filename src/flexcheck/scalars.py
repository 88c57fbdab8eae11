"""Scalars over R, C, H and realification of matrices.

A scalar of F is the vector of its d = dim F real components: (a) for R,
(a, b) for a + bi, (w, x, y, z) for w + xi + yj + zk with Hamilton's
relations ij = k.  A matrix over F is an (n, k, d) array of components.
Quaternionic matrices are realified eagerly; every downstream computation
runs on real matrices.  An entry turns into the d x d block of left
multiplication on the components (a + bi into [[a, -b], [b, a]]), so
realification is a ring homomorphism.

One table states the multiplication: e_a e_b = _SIGN[a, b] e_(a XOR b) for
the units e = (1, i, j, k); its leading 2 x 2 and 1 x 1 blocks are the
tables of C and R.  Entry (p, q) of the block of x is then
sign[p][q] * x[p XOR q], with sign read off _SIGN for x e_q (left) or
e_q x (right multiplication).
"""

from __future__ import annotations

import enum

import numpy as np

from .linalg import numeric_array


class Field(enum.Enum):
    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"

    @property
    def dim(self) -> int:
        return {Field.REAL: 1, Field.COMPLEX: 2, Field.QUATERNION: 4}[self]


_SIGN = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]], dtype=float)
_P, _Q = np.indices((4, 4))
_INDEX = _P ^ _Q
_LEFT, _RIGHT = _SIGN[_INDEX, _Q], _SIGN[_Q, _INDEX]


def _blocks(sign: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The d x d multiplication blocks of a (..., d) array of components, shape (..., d, d)."""
    d = x.shape[-1]
    return sign[:d, :d] * x[..., _INDEX[:d, :d]]


def realify(parts, field: Field) -> np.ndarray:
    """Realify an n x k matrix over the field: the (d n, d k) real matrix, d = dim F.

    ``parts`` is an (n, k, d) array of real components: entry (i, j) of
    the matrix is ``parts[i, j]``.  Any other shape, and components that
    are not real numbers (complex values or strings, say), raise
    FlexcheckError.
    """
    d = field.dim
    x = numeric_array(parts, f"realify: the components over {field.value}", (None, None, d))
    n, k = x.shape[:2]
    return _blocks(_LEFT, x).transpose(0, 2, 1, 3).reshape(d * n, d * k)


def realified_entry_block(field: Field, n: int, i: int, j: int, value) -> np.ndarray:
    """Realification of value * E_ij inside an n x n matrix over the field; value is components."""
    d = field.dim
    out = np.zeros((d * n, d * n))
    out[d * i : d * (i + 1), d * j : d * (j + 1)] = _blocks(_LEFT, np.reshape(value, d))
    return out


def right_multiplication_operator(field: Field, n: int, value) -> np.ndarray:
    """Realified operator of right multiplication by the components ``value`` on F^n.

    Commutes with every realified matrix; used to certify that a real
    matrix genuinely comes from the field's matrix algebra.
    """
    return np.kron(np.eye(n), _blocks(_RIGHT, np.reshape(value, field.dim)))
