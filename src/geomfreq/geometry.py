"""Row-wise 3-vector algebra shared by the array kernels.

Vectors are float64 numpy arrays with the three components on the last
axis, shape (..., 3); cross products are ``np.cross`` on the same rows.
"""

import numpy as np

__all__ = ["rowdot", "rownorm"]


def rowdot(a, b):
    """Inner products of the vectors along the last axis, shape (..., 3).
    A stacked matmul sums each vector in the order ``np.dot`` sums one
    3-vector (so rho, omega and norms over rows match ``np.dot`` and
    ``np.linalg.norm`` of one row bit for bit with numpy 2.4), where an
    einsum or a sum over the last axis differs in the last bit."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def rownorm(a):
    """Euclidean magnitudes of the vectors along the last axis."""
    return np.sqrt(rowdot(a, a))
