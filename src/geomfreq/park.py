"""Park (dq0) representation of three-phase voltages.

Uses the amplitude-invariant transform with frame angle
theta(t) = w_dq * t + theta0 and axis kinematics e_d' = w_dq e_q,
e_q' = -w_dq e_d, e_o' = 0.  Within the rotating coordinates the
(e_d, e_q, e_o) triad is treated as orthonormal, which is the natural
setting for the rho/omega expressions and the derivative-frame
identities checked here.  The transform scales the dq plane by
sqrt(2/3) and the zero-sequence axis by 1/sqrt(3), so rho and omega in
dq0 equal those of the abc curve only when v_o = 0.

The frame rotation enters through one term, r x x with r = w_dq e_o
(``_spin``).  With P the Park matrix, the inertial derivative in dq0
components is P v' = v_hat' + r x v, and once more
P v'' = v_hat'' + r x (P v' + v_hat'), where v_hat', v_hat'' are the
derivatives of the dq0 component functions.  ``to_dq0``, ``from_dq0``,
``inertial_derivative`` and ``derivative_frame_check`` all use it.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import frenet
from .frenet import EPS_V, Jet2
from .geometry import cross, norm

_SHIFTS = np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
_ZERO3 = np.zeros(3)  # v'' stand-in: rho and omega do not depend on it


@dataclass(frozen=True)
class ParkConfig:
    """Angular speed and initial angle of the rotating frame."""

    w_dq: float  # rad/s
    theta0: float = 0.0  # rad


@dataclass(frozen=True)
class DqoJet:
    """Voltage in dq0 coordinates with rotating-frame derivatives.

    ``dvdq0`` holds (v_d', v_q', v_o'), i.e. the derivatives of the
    dq0 component functions; the inertial derivative additionally
    includes the frame rotation term.
    """

    t: float
    vdq0: np.ndarray
    dvdq0: np.ndarray
    ddvdq0: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(
            self, "vdq0", np.asarray(self.vdq0, dtype=np.float64)
        )
        object.__setattr__(
            self, "dvdq0", np.asarray(self.dvdq0, dtype=np.float64)
        )
        if self.ddvdq0 is not None:
            object.__setattr__(
                self, "ddvdq0", np.asarray(self.ddvdq0, dtype=np.float64)
            )


@dataclass(frozen=True)
class Dq0Invariants:
    rho: float
    omega_vec: np.ndarray  # dq0 components
    delta_omega: Optional[float]  # defined for v_o = 0


@dataclass(frozen=True)
class FrameCheckReport:
    """Comparison of the rotation-split and geometric-split derivatives."""

    inertial_dv: np.ndarray  # v' = rotating_dv + r x v
    rotating_dv: np.ndarray  # (v_d', v_q', v_o')
    rotation_term: np.ndarray  # r x v, r = w_dq e_o
    sym_part: np.ndarray  # rho v
    antisym_part: np.ndarray  # omega x v
    sum_rel_err: float  # |(rho v + omega x v) - inertial_dv| / |v'|
    terms_equal: bool  # rotating_dv == rho v componentwise
    balanced_identity_err: Optional[float]  # v_o=0: |v_hat' - rho v - dw e_o x v|


def park_matrix(theta):
    """Amplitude-invariant abc -> dq0 matrix at frame angle theta."""
    ang = theta + _SHIFTS
    return np.array(
        [
            2.0 / 3.0 * np.cos(ang),
            -2.0 / 3.0 * np.sin(ang),
            np.full(3, 1.0 / 3.0),
        ]
    )


def inverse_park_matrix(theta):
    """dq0 -> abc; columns are the rotating axes expressed in abc."""
    ang = theta + _SHIFTS
    return np.column_stack([np.cos(ang), -np.sin(ang), np.ones(3)])


def _spin(w, x):
    """(w e_o) x x: the rotation term of a frame spinning at w about e_o."""
    return np.array([-w * x[1], w * x[0], 0.0])


def to_dq0(abc, cfg):
    """Transform an abc jet into dq0 coordinates.

    P v' is the inertial derivative in dq0 components; the rotating
    derivatives are what is left of it after the rotation term r x v.
    """
    P = park_matrix(cfg.w_dq * abc.t + cfg.theta0)
    vdq0 = P @ abc.v
    dv = P @ abc.dv
    dvdq0 = dv - _spin(cfg.w_dq, vdq0)
    ddvdq0 = P @ abc.ddv - _spin(cfg.w_dq, dv + dvdq0)
    return DqoJet(t=abc.t, vdq0=vdq0, dvdq0=dvdq0, ddvdq0=ddvdq0)


def from_dq0(j, cfg):
    """Inverse transform back to an abc jet (requires ddvdq0)."""
    if j.ddvdq0 is None:
        raise ValueError("from_dq0 needs a jet carrying ddvdq0")
    Q = inverse_park_matrix(cfg.w_dq * j.t + cfg.theta0)
    dv = inertial_derivative(j, cfg)
    ddv = j.ddvdq0 + _spin(cfg.w_dq, dv + j.dvdq0)
    return Jet2(t=j.t, v=Q @ j.vdq0, dv=Q @ dv, ddv=Q @ ddv)


def inertial_derivative(j, cfg):
    """v' = v_hat' + r x v in dq0 components, r = w_dq e_o."""
    return j.dvdq0 + _spin(cfg.w_dq, j.vdq0)


def dq0_invariants(j, cfg, eps_v=EPS_V, balance_tol=1e-9):
    """rho and omega of the voltage curve, expressed in dq0 components:
    ``frenet.invariants`` of v = (v_d, v_q, v_o) and its inertial
    derivative.  Raises ``DegenerateSpeed`` when |v| <= eps_v.

    For v_o = 0 this reduces to rho = (v_d v_d' + v_q v_q')/v^2 and
    omega = (delta_omega + w_dq) e_o, with delta_omega the frequency
    deviation (v_d v_q' - v_q v_d')/v^2 from the frame speed.
    """
    # eps_w=0: omega is reported however small it is, never zeroed
    g = frenet.invariants(
        Jet2(t=j.t, v=j.vdq0, dv=inertial_derivative(j, cfg), ddv=_ZERO3),
        eps_v=eps_v,
        eps_w=0.0,
    )
    vd, vq, vo = j.vdq0
    dvd, dvq, _ = j.dvdq0
    delta_omega = None
    if abs(vo) <= balance_tol * g.v_mag:
        delta_omega = (vd * dvq - vq * dvd) / (vd**2 + vq**2)
    return Dq0Invariants(rho=g.rho, omega_vec=g.omega_vec, delta_omega=delta_omega)


def derivative_frame_check(j, cfg, eps_v=EPS_V, term_tol=1e-9):
    """Compare the two splits of the inertial derivative.

    Rotation split: v' = v_hat' + r x v with r = w_dq e_o.
    Geometric split: v' = rho v + omega x v.
    Their sums always agree; the individual terms coincide only when
    the frame spins at the actual voltage frequency.
    """
    g = dq0_invariants(j, cfg, eps_v)
    v = j.vdq0
    v_hat_prime = j.dvdq0
    inertial = inertial_derivative(j, cfg)
    sym = g.rho * v
    antisym = cross(g.omega_vec, v)
    scale = max(norm(inertial), eps_v)
    sum_rel_err = norm(sym + antisym - inertial) / scale
    terms_equal = norm(v_hat_prime - sym) <= term_tol * scale
    balanced_err = None
    if g.delta_omega is not None:
        balanced_err = norm(v_hat_prime - (sym + _spin(g.delta_omega, v))) / scale
    return FrameCheckReport(
        inertial_dv=inertial,
        rotating_dv=v_hat_prime,
        rotation_term=_spin(cfg.w_dq, v),
        sym_part=sym,
        antisym_part=antisym,
        sum_rel_err=sum_rel_err,
        terms_equal=terms_equal,
        balanced_identity_err=balanced_err,
    )
