"""Row-wise 3-vector algebra shared by the array kernels, and the
planar phase rate of a phasor.

Vectors are float64 numpy arrays with the three components on the last
axis, shape (..., 3); cross products are ``np.cross`` on the same rows.
"""

import numpy as np

__all__ = ["MAX_ANGLE", "phase_rate", "rowdot", "rownorm"]

# largest signal or Park frame angle: past it, float64 resolves an angle
# such as w t + theta0 to worse than 1.9e-6 rad
MAX_ANGLE = 2.0**33  # rad, 316 days at 50 Hz


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


def phase_rate(x, y, dx, dy):
    """Im(z'/z) = (x y' - y x') / (x^2 + y^2), the rate at which the
    phasor z = x + jy turns: the imaginary part of its complex frequency
    (F. Milano, IEEE Trans. Power Syst. 37(2), 2022)."""
    return (x * dy - y * dx) / (x * x + y * y)
