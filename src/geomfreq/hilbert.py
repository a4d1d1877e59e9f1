"""Analytic-signal embedding of a scalar waveform.

The scalar signal u and its discrete Hilbert transform uh form the
plane curve (u, uh, 0), held as a three-channel ``series.TimeSeries``
on the recording's own times, so ``geomfreq hilbert --csv`` reports
those times.  Its azimuthal frequency reproduces the classical
instantaneous frequency phi' = Im(z'/z) of z = u + j uh, which
``geometry.phase_rate`` computes; both quantities are computed from the
rows of ``numdiff.differentiate_arrays``, so that their agreement is an
algebraic identity.  ``MAX_REL_DEV`` and ``MAX_ABS_XI`` bound that
agreement, and ``tone`` builds the default input (``tone_model``'s
channel 0), for ``geomfreq hilbert`` and ``validate`` alike.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidParameter
from .frenet import invariants
from .geometry import check_overflow, phase_rate, worst
from .numdiff import differentiate_arrays
from .series import TimeSeries
from .signals import eval_arrays, sample_times, single_phase_model

MIN_LENGTH = 16
EPS_ENVELOPE = 1e-12  # V^2; at or below it the squared envelope u^2 + uh^2 vanishes
EPS_PHI_DOT = 1e-12  # rad/s; floor of |phi'| in the relative deviation
MAX_REL_DEV = 1e-9  # pass bound of EquivalenceReport.max_rel_dev
MAX_ABS_XI = 1e-12  # 1/s, pass bound of EquivalenceReport.max_abs_xi
TONE_FREQ = 50.0  # Hz, the default tone
TONE_T1 = 0.4  # s, end of its half-open window [0, t1)
TONE_DT = 1e-4  # s, its step: 4000 samples, 20 whole periods of TONE_FREQ


@dataclass(frozen=True)
class EquivalenceReport:
    """Geometric invariants of the embedding next to the classical
    instantaneous frequency, on the retained (stencil-trimmed) grid."""

    times: np.ndarray
    rho: np.ndarray
    omega_mag: np.ndarray
    omega_z: np.ndarray
    xi: np.ndarray
    phi_dot: np.ndarray
    max_rel_dev: float  # worst |omega_z - phi_dot| / |phi_dot|, mid-window
    max_abs_xi: float


def tone_model(freq):
    """The model whose channel 0 is cos(2 pi freq t)."""
    return single_phase_model(1.0, 2.0 * np.pi * freq)


def tone(freq, t1, dt):
    """Times of [0, t1) at step dt, and u = cos(2 pi freq t) on them (channel 0
    of ``tone_model``, so a bad grid or angle is refused by ``signals``)."""
    times = sample_times(0.0, t1, dt)[:-1]  # half-open
    return times, eval_arrays(tone_model(freq), times)[0][:, 0]


def analytic_embed(times, dt, u):
    """The plane curve (u, uh, 0) of u sampled at ``times``, as a
    TimeSeries, with uh the discrete Hilbert transform of u.

    The transform zeroes the negative-frequency half of the spectrum,
    doubles the positive half and keeps DC and Nyquist unchanged; the
    quadrature part of the inverse transform is uh.  Raises
    TimeSeries' errors for a bad grid or a non-finite u, then
    FloatOverflow when the transform is not finite.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.size
    if n < MIN_LENGTH:
        raise InvalidParameter(f"need at least {MIN_LENGTH} samples, got {n}")
    curve = TimeSeries(times, dt, np.column_stack([u, np.zeros((n, 2))]))  # (u, 0, 0)
    weights = np.zeros(n)
    weights[: (n + 1) // 2] = 2.0
    weights[0] = 1.0
    if n % 2 == 0:
        weights[n // 2] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        uh = np.fft.ifft(np.fft.fft(u) * weights).imag
    check_overflow("the Hilbert transform overflows float64", uh)
    return curve.with_values(np.column_stack([u, uh, np.zeros(n)]))


def instantaneous_frequency_classical(embedded):
    """phi' = (u uh' - uh u') / (u^2 + uh^2), ``geometry.phase_rate``,
    on the retained samples of the embedded curve.  Raises
    DegenerateInput where the envelope vanishes, and FloatOverflow
    where a derivative, the envelope or phi' is not finite."""
    _, v, dv, _ = differentiate_arrays(embedded)
    u, uh, du, duh = v[:, 0], v[:, 1], dv[:, 0], dv[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = u**2 + uh**2
        if np.any(envelope <= EPS_ENVELOPE):
            raise DegenerateInput("analytic envelope vanishes at a sample")
        phi_dot = phase_rate(u, uh, du, duh)
    check_overflow("analytic envelope or its phase rate overflows float64", envelope, phi_dot)
    return phi_dot


def geometric_equivalence(embedded):
    """Run the Frenet route on the embedded curve (u, uh, 0) and compare
    its azimuthal frequency with the classical instantaneous frequency.

    The deviation summary is evaluated over the middle 50% of the
    window, away from the transform's boundary ringing.  Raises
    FloatOverflow when an invariant of a retained row is not finite.
    """
    phi_dot = instantaneous_frequency_classical(embedded)
    times, v, dv, ddv = differentiate_arrays(embedded)
    n = times.size

    rho, omega_mag, omega_z, xi = np.empty((4, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            rho[k], omega_vec, omega_mag[k], xi[k] = invariants(v[k], dv[k], ddv[k])
            omega_z[k] = omega_vec[2]
    check_overflow("the embedded curve's invariants overflow float64", rho, omega_mag, xi)

    mid = slice(n // 4, 3 * n // 4)
    dev = np.abs(omega_z[mid] - phi_dot[mid]) / np.maximum(np.abs(phi_dot[mid]), EPS_PHI_DOT)
    return EquivalenceReport(times, rho, omega_mag, omega_z, xi, phi_dot,
                             worst(dev), worst(np.abs(xi)))
