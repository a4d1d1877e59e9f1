"""Closed-form rho, omega and xi for three-phase voltages described by
per-phase magnitude and angle functions.

These expressions are an independent route to the same invariants that
``frenet.invariants_batch`` computes from the cartesian rows v, v', v'',
and the test suite uses them as mutual oracles.  Each phase i in {a, b, c} is
v_i = V_i(t) sin(theta_i(t)) and the input is one ``PhaseJet`` holding
(V, V', V'', theta, theta', theta'') of all three phases, each field of
shape (3,) for one instant or (N, 3) over N instants; the results carry
the same leading instant axis, with the phase axis last.  The published
expression of xi through per-phase second-derivative combinations p_i,
q_i was not reproduced (on E5 at t = 0.013 s it gives -94.9 where the
Frenet route gives -1800.7); ``xi`` here projects the per-phase
expansion of v''.  ``closed_form_invariants`` is the one entry point:
the magnitude v and the terms r_jk, u_jk it builds on stay inside it.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateInput, InvalidParameter
from .frenet import EPS_V

# phases j and k feeding component i of a cross product, ijk in {abc, bca, cab}
_J = [1, 2, 0]
_K = [2, 0, 1]


@dataclass(frozen=True)
class PhaseJet:
    """Magnitudes and angles of the three phases with derivatives up to
    order 2, phase axis last: shape (3,) at one instant, (N, 3) at N."""

    V: np.ndarray  # V, >= 0
    dV: np.ndarray  # V/s
    ddV: np.ndarray  # V/s^2
    theta: np.ndarray  # rad
    dtheta: np.ndarray  # rad/s
    ddtheta: np.ndarray  # rad/s^2

    def __post_init__(self):
        for f in fields(self):
            x = np.asarray(getattr(self, f.name), dtype=np.float64)
            if x.shape[-1:] != (3,):
                raise InvalidParameter(f"{f.name} needs the three phases on its last axis")
            object.__setattr__(self, f.name, x)
        if np.any(self.V < 0):
            raise InvalidParameter(f"negative phase magnitude {self.V}")


@dataclass(frozen=True)
class ClosedFormInvariants:
    """Closed-form invariants; ``xi`` comes from the self-consistent
    per-phase expansion of v'' (it matches the Frenet kernel)."""

    rho: float
    omega_vec: np.ndarray
    xi: float


def closed_form_invariants(jet):
    """Closed-form (rho, omega, xi) of a three-phase voltage.

    v is the instantaneous voltage-vector magnitude
    sqrt(sum_i V_i^2 (1 - cos 2 theta_i) / 2); the 1/2 keeps it equal
    to |v| of the cartesian route (1 - cos 2x = 2 sin^2 x).  rho sums
    V_i^2 theta_i' sin(2 theta_i) + V_i V_i' (1 - cos 2 theta_i) over
    the phases, normalized by 2 v^2; omega component i is
    (r_jk + u_jk) / v^2 for ijk in {abc, bca, cab}, with r_jk built
    from magnitude derivatives and u_jk the matching angle-derivative
    terms.  Raises ``DegenerateInput`` when v <= ``frenet.EPS_V`` at
    any instant.
    """
    V, dV, ddV, th, dth, ddth = vars(jet).values()
    v = np.sqrt(np.sum(V**2 * (1.0 - np.cos(2.0 * th)) / 2.0, axis=-1))
    if np.any(v <= EPS_V):
        raise DegenerateInput(f"closed-form |v| = {np.min(v)} <= {EPS_V}")
    s, c = np.sin(th), np.cos(th)
    j, k = (..., _J), (..., _K)
    r = (V[j] * dV[k] - V[k] * dV[j]) * s[j] * s[k]
    u = V[j] * V[k] * (dth[k] * s[j] * c[k] - dth[j] * s[k] * c[j])
    v2 = v * v
    rho = np.sum(
        V**2 * dth * np.sin(2.0 * th) + V * dV * (1.0 - np.cos(2.0 * th)), axis=-1
    ) / (2.0 * v2)
    ru = r + u
    omega_vec = ru / v2[..., None]
    denom = np.sum(ru**2, axis=-1)
    # project the per-phase v'' onto v x v'
    ddv_i = (ddV - V * dth**2) * s + (2.0 * dV * dth + V * ddth) * c
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = v * v2 * np.sum(ddv_i * omega_vec, axis=-1) / denom
    return ClosedFormInvariants(
        rho=rho, omega_vec=omega_vec, xi=np.where(denom > 0.0, xi, 0.0)[()]
    )
