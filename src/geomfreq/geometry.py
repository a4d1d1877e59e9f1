"""Row-wise 3-vector algebra, a phasor's phase rate, and the package's single
checks: ``as_rows`` ((N,) times and finite (N, 3) rows), ``check_angle``,
``check_finite``, ``check_positive`` and ``check_nonnegative`` (a scalar within
float64's range; > 0, >= 0), ``check_overflow`` (NaN or inf from finite input
is a FloatOverflow) and ``worst``, every verdict's fold.

Vectors are float64 numpy arrays with the three components on the last
axis, shape (..., 3); cross products are ``rowcross`` on the same rows.
"""

import numpy as np

from .errors import FloatOverflow, InvalidParameter

# largest signal or Park frame angle: past it, float64 resolves an angle
# such as w t + theta0 to worse than 1.9e-6 rad
MAX_ANGLE = 2.0**33  # rad, 316 days at 50 Hz


def check_angle(what, theta):
    """theta (rad), refused with InvalidParameter past MAX_ANGLE: the
    message names the largest |angle| along the last axis of the first
    row past it, and reads a NaN (inf * 0 at t = 0 leaves one) as inf."""
    largest = np.abs(theta).max(axis=-1, initial=0.0)
    if not (largest <= MAX_ANGLE).all():
        largest = np.ravel(np.where(np.isnan(largest), np.inf, largest))
        first = largest[(largest > MAX_ANGLE).argmax()]
        raise InvalidParameter(f"{what} angle {first:.6g} rad is past geometry.MAX_ANGLE = 2**33")
    return theta


def check_finite(name, x):
    """Reject a NaN or infinite value, or an int past float64's range, before it is used."""
    if not -np.inf < x < np.inf or isinstance(x, int) and abs(x) > np.finfo(float).max.item():
        raise InvalidParameter(f"{name} must be finite, got {x}")


def check_positive(name, x):
    """Reject a non-positive, infinite or NaN value, or an int past float64's range."""
    if not 0 < x < np.inf or isinstance(x, int) and x > np.finfo(float).max.item():
        raise InvalidParameter(f"{name} must be positive and finite, got {x}")


def check_nonnegative(name, x):
    """Reject a negative, infinite or NaN value, or an int past float64's range."""
    if not 0 <= x < np.inf or isinstance(x, int) and x > np.finfo(float).max.item():
        raise InvalidParameter(f"{name} must be non-negative and finite, got {x}")


def check_overflow(message, *xs):
    """Raise FloatOverflow(message) unless the arrays xs, computed from finite input, are finite."""
    if not all(np.isfinite(x).all() for x in xs):
        raise FloatOverflow(message)


def worst(*xs):
    """Largest entry of the arrays or numbers xs (0.0 if all are empty).
    A NaN anywhere makes it NaN, so an undefined value fails its check
    instead of passing it (``max`` would drop it)."""
    return float(np.max(np.concatenate([np.ravel(x) for x in xs]), initial=0.0))


def as_rows(t, *xs):
    """t (None for no times) as (N,) and each x as (N, 3) float64 arrays, N
    the rows of the first x; InvalidParameter for another shape or a non-finite x."""
    t, *xs = (x if x is None else np.asarray(x, dtype=np.float64) for x in (t, *xs))
    n = xs[0].shape[:1]
    if any(x.shape != (*n, 3) for x in xs) or t is not None and t.shape != n:
        got = ", ".join(str(x.shape) for x in (t, *xs) if x is not None)
        raise InvalidParameter(f"expected (N,) times and (N, 3) rows, got shapes {got}")
    if not all(np.isfinite(x).all() for x in xs):
        raise InvalidParameter("non-finite sample value")
    return t, xs


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


def rowcross(a, b):
    """Cross products of the vectors along the last axis: the products
    and differences ``np.cross`` forms, stacked on the last axis, so the
    same bits without its axis checks and ``moveaxis``."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def phase_rate(x, y, dx, dy):
    """Im(z'/z) = (x y' - y x') / (x^2 + y^2), the rate at which the
    phasor z = x + jy turns: the imaginary part of its complex frequency
    (F. Milano, IEEE Trans. Power Syst. 37(2), 2022)."""
    return (x * dy - y * dx) / (x * x + y * y)
