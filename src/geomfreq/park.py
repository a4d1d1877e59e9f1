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
``derivative_frame_check`` is the one dq0 analysis: a single report of
rho, omega, the deviation from the frame speed and the checks of the two
derivative splits.  Its ``sum_rel_err`` is the reconstruction residual
of ``frenet.identity_residuals`` on the dq0 rows, which
``MAX_SUM_REL_ERR`` bounds for ``geomfreq park`` and ``validate`` alike.
``geomfreq park`` also bounds ``balanced_identity_err`` by
``MAX_BALANCED_ERR`` wherever an instant is balanced.

A dq0 jet is the plain triple (v_dq0, v_hat', v_hat'') of ``to_dq0``,
which ``from_dq0`` takes back.  Every function takes (N,) times and
finite (N, 3) rows, as ``geometry.as_rows`` checks them.  The frame
is ``w_dq`` (rad/s; a float or one speed per row) and, where the angle
is read, ``theta0`` (rad, default 0).  Its axes are written once, in
``inverse_park_matrix``; ``park_matrix`` is diag(2/3, 2/3, 1/3) times
that transpose, made C-contiguous because a strided operand rounds
differently in ``@``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import frenet
from .errors import DegenerateInput, FloatOverflow
from .frenet import EPS_V
from .geometry import as_rows, check_angle, check_overflow, phase_rate, rownorm

_SHIFTS = np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
_SCALE = np.array([[2.0 / 3.0], [2.0 / 3.0], [1.0 / 3.0]])  # diag(2/3, 2/3, 1/3)
BALANCE_TOL = 1e-9  # balanced: |v_o| <= BALANCE_TOL |v| and |v_o'| <= BALANCE_TOL |v'|
TERM_TOL = 1e-9  # terms_equal: |v_hat' - rho v| <= TERM_TOL |v'|
MAX_SUM_REL_ERR = 1e-9  # pass bound of FrameCheckReport.sum_rel_err
MAX_BALANCED_ERR = 1e-9  # pass bound of balanced_identity_err on balanced instants


@dataclass(frozen=True)
class FrameCheckReport:
    """rho and omega of the voltage curve in dq0 components, and the
    comparison of the rotation-split and geometric-split derivatives."""

    rho: np.ndarray
    omega_vec: np.ndarray  # dq0 components, (N, 3)
    delta_omega: np.ndarray  # deviation from frame speed; NaN if not balanced
    balanced: np.ndarray  # v_o = 0 and v_o' = 0, to the balance tolerance
    sum_rel_err: np.ndarray  # frenet.identity_residuals' reconstruction residual
    terms_equal: np.ndarray  # v_hat' == rho v componentwise
    balanced_identity_err: np.ndarray  # |v_hat' - rho v - dw e_o x v| / |v'|


def inverse_park_matrix(theta):
    """dq0 -> abc at frame angle theta; columns are the rotating axes in abc."""
    ang = np.asarray(theta)[..., None] + _SHIFTS
    return np.stack([np.cos(ang), -np.sin(ang), np.ones(ang.shape)], axis=-1)


def park_matrix(theta):
    """Amplitude-invariant abc -> dq0 matrix: ``inverse_park_matrix``
    transposed, its rows scaled by 2/3, 2/3 and 1/3."""
    return np.ascontiguousarray(_SCALE * np.swapaxes(inverse_park_matrix(theta), -1, -2))


def _apply(M, x):
    """M x for stacks of 3x3 matrices and rows."""
    return (M @ x[..., None])[..., 0]


def _spin(w, x):
    """(w e_o) x x: the rotation term of a frame spinning at w about e_o."""
    x_d, x_q, _ = x.T
    return np.stack([-w * x_q, w * x_d, np.zeros_like(w * x_d)], axis=-1)


def to_dq0(t, v, dv, ddv, w_dq, theta0=0.0):
    """Transform abc v, v', v'' at times t into the dq0 jet (v_dq0, v_hat', v_hat'').

    P v' is the inertial derivative in dq0 components; the rotating
    derivatives are what is left of it after the rotation term r x v.
    Raises InvalidParameter for a frame angle past geometry.MAX_ANGLE,
    FloatOverflow on overflow.
    """
    t, (v, dv, ddv) = as_rows(t, v, dv, ddv)
    with np.errstate(over="ignore", invalid="ignore"):
        P = park_matrix(check_angle("frame", w_dq * t + theta0))
        vdq0, dv = _apply(P, v), _apply(P, dv)
        dvdq0 = dv - _spin(w_dq, vdq0)
        ddvdq0 = _apply(P, ddv) - _spin(w_dq, dv + dvdq0)
    check_overflow("the dq0 derivatives of the voltage overflow float64", dvdq0, ddvdq0)
    return vdq0, dvdq0, ddvdq0


def from_dq0(t, vdq0, dvdq0, ddvdq0, w_dq, theta0=0.0):
    """Inverse of ``to_dq0``, refusing the same frame angles: abc (v, v', v'') at times t."""
    t, (vdq0, dvdq0, ddvdq0) = as_rows(t, vdq0, dvdq0, ddvdq0)
    with np.errstate(over="ignore", invalid="ignore"):
        Q = inverse_park_matrix(check_angle("frame", w_dq * t + theta0))
    dv = inertial_derivative(vdq0, dvdq0, w_dq)
    ddv = ddvdq0 + _spin(w_dq, dv + dvdq0)
    return _apply(Q, vdq0), _apply(Q, dv), _apply(Q, ddv)


def inertial_derivative(vdq0, dvdq0, w_dq):
    """v' = v_hat' + r x v in dq0 components, r = w_dq e_o."""
    _, (vdq0, dvdq0) = as_rows(None, vdq0, dvdq0)
    return dvdq0 + _spin(w_dq, vdq0)


def derivative_frame_check(vdq0, dvdq0, w_dq):
    """rho and omega of the voltage curve in dq0 components
    (``frenet.invariants_batch`` of v = (v_d, v_q, v_o) and its inertial
    derivative, which reports omega however small it is), and the two
    splits of that derivative compared.
    Raises ``DegenerateInput`` when |v| <= EPS_V anywhere, and
    ``FloatOverflow`` when the invariants of an instant overflow float64.

    Rotation split: v' = v_hat' + r x v with r = w_dq e_o.
    Geometric split: v' = rho v + omega x v.
    Their sums always agree; the individual terms coincide only when
    the frame spins at the actual voltage frequency.

    Where the set is balanced, |v_o| <= BALANCE_TOL |v| and
    |v_o'| <= BALANCE_TOL |v'|, rho = (v_d v_d' + v_q v_q')/v^2 and
    omega = (delta_omega + w_dq) e_o, with delta_omega the frequency
    deviation from the frame speed, the phase rate
    (v_d v_q' - v_q v_d')/(v_d^2 + v_q^2) of v_d + j v_q
    (``geometry.phase_rate``; v_o^2 is left out of the denominator);
    so v_hat' = rho v + delta_omega e_o x v as well.  Elsewhere
    delta_omega and ``balanced_identity_err`` are NaN.
    """
    _, (v, v_hat_prime) = as_rows(None, vdq0, dvdq0)
    inertial = inertial_derivative(v, v_hat_prime, w_dq)
    # v'' = 0 stands in: rho and omega do not depend on it
    b = frenet.invariants_batch(v, inertial, np.zeros_like(v))
    for bad, error, what in ((b.degenerate, DegenerateInput, f"|v| <= {EPS_V}"),
                             (b.overflow, FloatOverflow, "invariants overflow float64")):
        if bad.any():
            raise error(f"dq0 {what} at {np.count_nonzero(bad)} of {bad.size} instants")
    sym = b.rho[:, None] * v
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inertial_mag = rownorm(inertial)
        balanced = np.abs(v[:, 2]) <= BALANCE_TOL * b.v_mag
        balanced &= np.abs(inertial[:, 2]) <= BALANCE_TOL * inertial_mag
        delta_omega = np.where(balanced, phase_rate(*v.T[:2], *v_hat_prime.T[:2]), np.nan)
        scale = np.maximum(inertial_mag, EPS_V)
        return FrameCheckReport(
            rho=b.rho, omega_vec=b.omega_vec, delta_omega=delta_omega, balanced=balanced,
            sum_rel_err=frenet.identity_residuals(v, inertial, b)[0],
            terms_equal=rownorm(v_hat_prime - sym) <= TERM_TOL * scale,
            balanced_identity_err=rownorm(v_hat_prime - (sym + _spin(delta_omega, v))) / scale,
        )
