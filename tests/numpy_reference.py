"""The numpy bodies that ``frenet.invariants`` and
``numdiff.lowpass_first_order`` had before they moved to Python floats.

Each is the old code as it ran, kept here only as a bit-for-bit oracle:
the library must give exactly these bits, NaN and the degenerate-speed
exception included.
"""

import numpy as np

from geomfreq.errors import DegenerateInput
from geomfreq.frenet import EPS_V, EPS_W, GeomInvariants

_ZERO = np.zeros(3)
_ZERO.flags.writeable = False


def invariants(v, dv, ddv, eps_v=EPS_V, eps_w=EPS_W):
    """rho, omega and xi of one instant with ``np.cross`` and
    ``np.linalg.norm`` on the 3-vectors."""
    v_mag = float(np.linalg.norm(v))
    if v_mag <= eps_v:
        raise DegenerateInput(f"|v| = {v_mag} <= {eps_v}")
    v2 = v_mag * v_mag
    vxdv = np.cross(v, dv)
    omega_vec = vxdv / v2
    omega_mag = float(np.linalg.norm(omega_vec))
    rho = float(np.dot(v, dv)) / v2
    if omega_mag > eps_w:  # a NaN omega counts as no rotation, as in the batch
        tau = float(np.dot(v, np.cross(dv, ddv))) / float(np.dot(vxdv, vxdv))
        return GeomInvariants(
            rho=rho, omega_vec=omega_vec, omega_mag=omega_mag, xi=v_mag * tau
        )
    return GeomInvariants(rho=rho, omega_vec=_ZERO, omega_mag=0.0, xi=0.0)


def lowpass_values(x, alpha):
    """The first-order IIR recurrence as numpy operations on one row
    per sample: y[k] = y[k-1] + alpha * (x[k] - y[k-1]), y[0] = x[0]."""
    y = np.empty_like(x)
    y[0] = x[0]
    for k in range(1, x.shape[0]):
        y[k] = y[k - 1] + alpha * (x[k] - y[k - 1])
    return y
