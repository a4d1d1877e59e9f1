"""Exact 3-vector algebra shared by all other modules.

Vectors are plain float64 numpy arrays of shape (3,).  The ``vec3``
constructor validates finiteness and returns a read-only array, so a
vector built through it can be shared freely between threads.
``rowdot`` and ``rownorm`` work on stacks of vectors, shape (..., 3).
"""

import numpy as np

__all__ = ["vec3", "inner", "cross", "triple_scalar", "norm", "rowdot", "rownorm"]


def vec3(x1, x2, x3=0.0):
    """Build an immutable 3-vector, rejecting NaN and infinity."""
    a = np.array([x1, x2, x3], dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite vector component: {a}")
    a.flags.writeable = False
    return a


def as_vec3(a):
    """Coerce an array-like to a validated read-only 3-vector."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError(f"expected shape (3,), got {a.shape}")
    return vec3(a[0], a[1], a[2])


def inner(a, b):
    """Inner product a1*b1 + a2*b2 + a3*b3."""
    return float(np.dot(a, b))


def cross(a, b):
    """Right-handed cross product in determinant form."""
    return np.cross(a, b)


def triple_scalar(a, b, c):
    """Scalar triple product a . (b x c), invariant under cyclic shifts."""
    return float(np.dot(a, np.cross(b, c)))


def norm(a):
    """Euclidean magnitude."""
    return float(np.linalg.norm(a))


def rowdot(a, b):
    """Inner products of the vectors along the last axis, shape (..., 3).
    A stacked matmul sums each vector in the order ``np.dot`` sums one
    3-vector (so rho, omega and norms over rows match ``inner`` and
    ``norm`` bit for bit with numpy 2.4), where an einsum or a sum over
    the last axis differs in the last bit."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def rownorm(a):
    """Euclidean magnitudes of the vectors along the last axis."""
    return np.sqrt(rowdot(a, a))
