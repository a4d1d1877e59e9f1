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

A dq0 jet is the plain triple (v_dq0, v_hat', v_hat'') of ``to_dq0``,
which ``from_dq0`` takes back.  Every function takes one instant or N
at once: a time t of shape () or (N,), and array-likes of shape (3,) or
(N, 3), components last.  N instants give the same bits as N calls.
The frame is ``w_dq`` (rad/s; a float or one speed per instant) and,
where the angle is read, ``theta0`` (rad, default 0).  Its axes are
written once, in ``inverse_park_matrix``; ``park_matrix`` is
diag(2/3, 2/3, 1/3) times that transpose, made C-contiguous because a
strided operand rounds differently in ``@``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import frenet
from .errors import DegenerateInput, FloatOverflow, InvalidParameter
from .frenet import EPS_V
from .geometry import MAX_ANGLE, phase_rate, rownorm

_SHIFTS = np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
_SCALE = np.array([[2.0 / 3.0], [2.0 / 3.0], [1.0 / 3.0]])  # diag(2/3, 2/3, 1/3)
BALANCE_TOL = 1e-9  # balanced: |v_o| <= BALANCE_TOL |v| and |v_o'| <= BALANCE_TOL |v'|
TERM_TOL = 1e-9  # terms_equal: |v_hat' - rho v| <= TERM_TOL |v'|
MAX_SUM_REL_ERR = 1e-9  # pass bound of FrameCheckReport.sum_rel_err


@dataclass(frozen=True)
class FrameCheckReport:
    """rho and omega of the voltage curve in dq0 components, and the
    comparison of the rotation-split and geometric-split derivatives."""

    rho: float  # float, or (N,) array
    omega_vec: np.ndarray  # dq0 components, (3,) or (N, 3)
    delta_omega: float  # float, or (N,) array: deviation from frame speed; NaN if not balanced
    balanced: bool  # bool, or (N,) array: v_o = 0 and v_o' = 0, to the balance tolerance
    sum_rel_err: float  # float, or (N,) array: frenet.identity_residuals' reconstruction residual
    terms_equal: bool  # bool, or (N,) array: v_hat' == rho v componentwise
    balanced_identity_err: float  # float, or (N,) array: |v_hat' - rho v - dw e_o x v| / |v'|


def inverse_park_matrix(theta):
    """dq0 -> abc at frame angle theta; columns are the rotating axes in abc."""
    ang = np.asarray(theta)[..., None] + _SHIFTS
    return np.stack([np.cos(ang), -np.sin(ang), np.ones(ang.shape)], axis=-1)


def park_matrix(theta):
    """Amplitude-invariant abc -> dq0 matrix: ``inverse_park_matrix``
    transposed, its rows scaled by 2/3, 2/3 and 1/3."""
    return np.ascontiguousarray(_SCALE * np.swapaxes(inverse_park_matrix(theta), -1, -2))


def _apply(M, x):
    """M x for stacks of 3x3 matrices and 3-vectors."""
    return (M @ np.asarray(x)[..., None])[..., 0]


def _spin(w, x):
    """(w e_o) x x: the rotation term of a frame spinning at w about e_o."""
    x_d, x_q, _ = np.moveaxis(np.asarray(x, dtype=np.float64), -1, 0)
    return np.stack([-w * x_q, w * x_d, np.zeros_like(w * x_d)], axis=-1)


def to_dq0(t, v, dv, ddv, w_dq, theta0=0.0):
    """Transform abc v, v', v'' at times t into the dq0 jet (v_dq0, v_hat', v_hat'').

    P v' is the inertial derivative in dq0 components; the rotating
    derivatives are what is left of it after the rotation term r x v.
    Raises InvalidParameter for a frame angle past geometry.MAX_ANGLE,
    FloatOverflow on overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        theta = w_dq * np.asarray(t) + theta0
        worst = np.max(np.abs(theta), initial=0.0)
        if not worst <= MAX_ANGLE:
            raise InvalidParameter(f"frame angle {worst:.6g} rad is past geometry.MAX_ANGLE = 2**33")
        P = park_matrix(theta)
        vdq0 = _apply(P, v)
        dv = _apply(P, dv)
        dvdq0 = dv - _spin(w_dq, vdq0)
        ddvdq0 = _apply(P, ddv) - _spin(w_dq, dv + dvdq0)
    if not (np.isfinite(dvdq0).all() and np.isfinite(ddvdq0).all()):
        raise FloatOverflow("the dq0 derivatives of the voltage overflow float64")
    return vdq0, dvdq0, ddvdq0


def from_dq0(t, vdq0, dvdq0, ddvdq0, w_dq, theta0=0.0):
    """Inverse of ``to_dq0``: abc (v, v', v'') at times t."""
    Q = inverse_park_matrix(w_dq * t + theta0)
    dv = inertial_derivative(vdq0, dvdq0, w_dq)
    ddv = ddvdq0 + _spin(w_dq, dv + dvdq0)
    return _apply(Q, vdq0), _apply(Q, dv), _apply(Q, ddv)


def inertial_derivative(vdq0, dvdq0, w_dq):
    """v' = v_hat' + r x v in dq0 components, r = w_dq e_o."""
    return np.asarray(dvdq0, dtype=np.float64) + _spin(w_dq, vdq0)


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
    v, v_hat_prime = np.asarray(vdq0, dtype=np.float64), np.asarray(dvdq0, dtype=np.float64)
    inertial = inertial_derivative(v, v_hat_prime, w_dq)
    rows, inertial_rows = v.reshape(-1, 3), inertial.reshape(-1, 3)
    # v'' = 0 stands in: rho and omega do not depend on it
    b = frenet.invariants_batch(rows, inertial_rows, np.zeros_like(rows))
    for bad, error, what in ((b.degenerate, DegenerateInput, f"|v| <= {EPS_V}"),
                             (b.overflow, FloatOverflow, "invariants overflow float64")):
        if bad.any():
            raise error(f"dq0 {what} at {np.count_nonzero(bad)} of {bad.size} instants")
    v_mag = b.v_mag.reshape(v.shape[:-1])
    vd, vq, _ = np.moveaxis(v, -1, 0)
    dvd, dvq, _ = np.moveaxis(v_hat_prime, -1, 0)
    rho, omega_vec = b.rho.reshape(v_mag.shape)[()], b.omega_vec.reshape(v.shape)
    sym = rho[..., None] * v
    reconstruction = frenet.identity_residuals(rows, inertial_rows, b)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inertial_mag = rownorm(inertial)
        balanced = np.abs(v[..., 2]) <= BALANCE_TOL * v_mag
        balanced &= np.abs(inertial[..., 2]) <= BALANCE_TOL * inertial_mag
        delta_omega = np.where(balanced, phase_rate(vd, vq, dvd, dvq), np.nan)[()]
        scale = np.maximum(inertial_mag, EPS_V)
        return FrameCheckReport(
            rho=rho, omega_vec=omega_vec, delta_omega=delta_omega, balanced=balanced,
            sum_rel_err=reconstruction.reshape(v_mag.shape)[()],
            terms_equal=rownorm(v_hat_prime - sym) <= TERM_TOL * scale,
            balanced_identity_err=rownorm(v_hat_prime - (sym + _spin(delta_omega, v))) / scale,
        )
