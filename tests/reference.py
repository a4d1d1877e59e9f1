"""Plain-float reference for the Frenet kernel.

The invariants and the RoCoF split of one instant, transcribed from
the formulas with ``math`` and Python floats only, so that the tests
compare ``geomfreq.frenet`` with code it shares nothing with:

    rho    = (v . v') / |v|^2
    omega  = (v x v') / |v|^2,  kappa = |omega| / |v|
    tau    = v . (v' x v'') / |v x v'|^2,  xi = |v| tau
    omega' = (v x v'') / |v|^2 - 2 rho omega,  eta = omega . omega' / |omega|^2

The thresholds are restated here, not imported.
"""

import math
from typing import NamedTuple, Optional

EPS_V = 1e-9  # V; at or below it the curve has no tangent
EPS_W = 1e-9  # rad/s; at or below it the curve does not rotate


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a):
    return math.sqrt(dot(a, a))


def scaled(s, a):
    return (s * a[0], s * a[1], s * a[2])


def over(a, s):
    return (a[0] / s, a[1] / s, a[2] / s)


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


class Invariants(NamedTuple):
    """One instant.  Without rotation omega, kappa, tau and xi are
    zeros and eta and omega_dot are None."""

    v_mag: float
    rho: float
    omega: tuple
    omega_mag: float
    kappa: float
    tau: float
    xi: float
    rotating: bool
    eta: Optional[float]
    omega_dot: Optional[tuple]


def invariants(v, dv, ddv, eps_v=EPS_V, eps_w=EPS_W):
    """Invariants and RoCoF split of the 3-vectors v, v', v'', or None
    when |v| <= eps_v."""
    v, dv, ddv = (tuple(float(x) for x in a) for a in (v, dv, ddv))
    v_mag = norm(v)
    if v_mag <= eps_v:
        return None
    v2 = v_mag * v_mag
    rho = dot(v, dv) / v2
    vxdv = cross(v, dv)
    omega = over(vxdv, v2)
    omega_mag = norm(omega)
    if omega_mag <= eps_w:
        return Invariants(v_mag, rho, (0.0, 0.0, 0.0), 0.0, 0.0, 0.0, 0.0, False, None, None)
    tau = dot(v, cross(dv, ddv)) / dot(vxdv, vxdv)
    omega_dot = sub(over(cross(v, ddv), v2), scaled(2.0 * rho, omega))
    eta = dot(omega, omega_dot) / (omega_mag * omega_mag)
    return Invariants(
        v_mag, rho, omega, omega_mag, omega_mag / v_mag, tau, v_mag * tau, True, eta, omega_dot
    )
