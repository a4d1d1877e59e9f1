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
``MAX_SUM_REL_ERR`` bounds the sum identity of the two derivative splits
for ``geomfreq park`` and ``validate`` alike.

Every function takes one instant or N of them at once: a time t of
shape () or (N,), and vectors of shape (3,) or (N, 3) with the
components on the last axis.  N instants give the same bits as N calls
of one instant each.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import frenet
from .errors import DegenerateSpeed
from .frenet import EPS_V
from .geometry import rownorm

_SHIFTS = np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
BALANCE_TOL = 1e-9  # balanced: |v_o| <= BALANCE_TOL |v| and |v_o'| <= BALANCE_TOL |v'|
TERM_TOL = 1e-9  # terms_equal: |v_hat' - rho v| <= TERM_TOL |v'|
MAX_SUM_REL_ERR = 1e-9  # pass bound of FrameCheckReport.sum_rel_err


@dataclass(frozen=True)
class ParkConfig:
    """Angular speed and initial angle of the rotating frame; ``w_dq``
    may also be an array, one speed per instant."""

    w_dq: float  # rad/s
    theta0: float = 0.0  # rad


@dataclass(frozen=True)
class DqoJet:
    """Voltage in dq0 coordinates with rotating-frame derivatives, at
    one time t (vectors of shape (3,)) or at N times (shape (N, 3)).

    ``dvdq0`` holds (v_d', v_q', v_o'), i.e. the derivatives of the
    dq0 component functions; the inertial derivative additionally
    includes the frame rotation term.
    """

    t: float
    vdq0: np.ndarray
    dvdq0: np.ndarray
    ddvdq0: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("vdq0", "dvdq0", "ddvdq0"):
            x = getattr(self, name)
            if x is not None:
                object.__setattr__(self, name, np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class Dq0Invariants:
    rho: float
    omega_vec: np.ndarray  # dq0 components
    delta_omega: float  # deviation from the frame speed; NaN where not balanced
    balanced: bool  # v_o = 0 and v_o' = 0, to the balance tolerance


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
    balanced: bool  # where the balanced identity applies
    balanced_identity_err: float  # |v_hat' - rho v - dw e_o x v| / |v'|; NaN if not balanced


def park_matrix(theta):
    """Amplitude-invariant abc -> dq0 matrix at frame angle theta,
    shape (..., 3, 3) for theta of shape (...)."""
    ang = np.asarray(theta)[..., None] + _SHIFTS
    return np.stack(
        [2.0 / 3.0 * np.cos(ang), -2.0 / 3.0 * np.sin(ang), np.full(ang.shape, 1.0 / 3.0)],
        axis=-2,
    )


def inverse_park_matrix(theta):
    """dq0 -> abc; columns are the rotating axes expressed in abc."""
    ang = np.asarray(theta)[..., None] + _SHIFTS
    return np.stack([np.cos(ang), -np.sin(ang), np.ones(ang.shape)], axis=-1)


def _apply(M, x):
    """M x for stacks of 3x3 matrices and 3-vectors."""
    return (M @ np.asarray(x)[..., None])[..., 0]


def _spin(w, x):
    """(w e_o) x x: the rotation term of a frame spinning at w about e_o."""
    x_d, x_q = x[..., 0], x[..., 1]
    return np.stack([-w * x_q, w * x_d, np.zeros_like(w * x_d)], axis=-1)


def to_dq0(t, v, dv, ddv, cfg):
    """Transform abc v, v', v'' at times t into dq0 coordinates.

    P v' is the inertial derivative in dq0 components; the rotating
    derivatives are what is left of it after the rotation term r x v.
    """
    P = park_matrix(cfg.w_dq * t + cfg.theta0)
    vdq0 = _apply(P, v)
    dv = _apply(P, dv)
    dvdq0 = dv - _spin(cfg.w_dq, vdq0)
    ddvdq0 = _apply(P, ddv) - _spin(cfg.w_dq, dv + dvdq0)
    return DqoJet(t=t, vdq0=vdq0, dvdq0=dvdq0, ddvdq0=ddvdq0)


def from_dq0(j, cfg):
    """Inverse transform back to abc (v, v', v''); needs ddvdq0."""
    if j.ddvdq0 is None:
        raise ValueError("from_dq0 needs a jet carrying ddvdq0")
    Q = inverse_park_matrix(cfg.w_dq * j.t + cfg.theta0)
    dv = inertial_derivative(j, cfg)
    ddv = j.ddvdq0 + _spin(cfg.w_dq, dv + j.dvdq0)
    return _apply(Q, j.vdq0), _apply(Q, dv), _apply(Q, ddv)


def inertial_derivative(j, cfg):
    """v' = v_hat' + r x v in dq0 components, r = w_dq e_o."""
    return j.dvdq0 + _spin(cfg.w_dq, j.vdq0)


def dq0_invariants(j, cfg):
    """rho and omega of the voltage curve, expressed in dq0 components:
    ``frenet.invariants_batch`` of v = (v_d, v_q, v_o) and its inertial
    derivative.  Raises ``DegenerateSpeed`` when |v| <= EPS_V at any
    instant.

    Where the set is balanced, |v_o| <= BALANCE_TOL |v| and
    |v_o'| <= BALANCE_TOL |v'|, this reduces to
    rho = (v_d v_d' + v_q v_q')/v^2 and omega = (delta_omega + w_dq) e_o,
    with delta_omega the frequency deviation
    (v_d v_q' - v_q v_d')/(v_d^2 + v_q^2) from the frame speed (v_o^2 is
    left out of the denominator); elsewhere delta_omega is NaN.
    """
    v, dv = j.vdq0, inertial_derivative(j, cfg)
    rows = v.reshape(-1, 3)
    # eps_w=0: omega is reported however small it is, never zeroed
    # v'' = 0 stands in: rho and omega do not depend on it
    b = frenet.invariants_batch(rows, dv.reshape(-1, 3), np.zeros_like(rows), eps_w=0.0)
    if b.degenerate.any():
        raise DegenerateSpeed(
            f"dq0 |v| <= {EPS_V} at {np.count_nonzero(b.degenerate)} of "
            f"{b.degenerate.size} instants"
        )
    v_mag = b.v_mag.reshape(v.shape[:-1])
    balanced = (np.abs(v[..., 2]) <= BALANCE_TOL * v_mag) & (
        np.abs(dv[..., 2]) <= BALANCE_TOL * rownorm(dv)
    )
    vd, vq, _ = np.moveaxis(v, -1, 0)
    dvd, dvq, _ = np.moveaxis(j.dvdq0, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_omega = (vd * dvq - vq * dvd) / (vd * vd + vq * vq)
    return Dq0Invariants(
        rho=b.rho.reshape(v_mag.shape)[()],
        omega_vec=b.omega_vec.reshape(v.shape),
        delta_omega=np.where(balanced, delta_omega, np.nan)[()],
        balanced=balanced,
    )


def derivative_frame_check(j, cfg):
    """Compare the two splits of the inertial derivative.

    Rotation split: v' = v_hat' + r x v with r = w_dq e_o.
    Geometric split: v' = rho v + omega x v.
    Their sums always agree; the individual terms coincide only when
    the frame spins at the actual voltage frequency.  Where the set is
    balanced (see ``dq0_invariants``) v_hat' = rho v + delta_omega e_o x v
    as well; ``balanced_identity_err`` is NaN elsewhere.
    """
    g = dq0_invariants(j, cfg)
    v = j.vdq0
    v_hat_prime = j.dvdq0
    inertial = inertial_derivative(j, cfg)
    sym = g.rho[..., None] * v
    antisym = np.cross(g.omega_vec, v)
    scale = np.maximum(rownorm(inertial), EPS_V)
    return FrameCheckReport(
        inertial_dv=inertial,
        rotating_dv=v_hat_prime,
        rotation_term=_spin(cfg.w_dq, v),
        sym_part=sym,
        antisym_part=antisym,
        sum_rel_err=rownorm(sym + antisym - inertial) / scale,
        terms_equal=rownorm(v_hat_prime - sym) <= TERM_TOL * scale,
        balanced=g.balanced,
        balanced_identity_err=(
            rownorm(v_hat_prime - (sym + _spin(g.delta_omega, v))) / scale
        ),
    )
