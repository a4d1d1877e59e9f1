"""Analytic-signal embedding of a scalar waveform.

The scalar signal u and its discrete Hilbert transform uh form the
plane curve (u, uh, 0), held as a three-channel ``series.TimeSeries``
on the recording's own times, so ``geomfreq hilbert --csv`` reports
those times.  Its azimuthal frequency reproduces the classical
instantaneous frequency phi' = Im(z'/z) of z = u + j uh, which
``geometry.phase_rate`` computes; both quantities are computed from the
rows of ``numdiff.differentiate_arrays``, so that their agreement is an
algebraic identity.  ``MAX_REL_DEV`` and ``MAX_ABS_XI`` bound that
agreement for ``geomfreq hilbert`` and ``validate`` alike.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, FloatOverflow, InvalidParameter
from .frenet import invariants
from .geometry import phase_rate
from .numdiff import differentiate_arrays
from .series import TimeSeries

MIN_LENGTH = 16
EPS_ENVELOPE = 1e-12  # V^2; at or below it the squared envelope u^2 + uh^2 vanishes
EPS_PHI_DOT = 1e-12  # rad/s; floor of |phi'| in the relative deviation
MAX_REL_DEV = 1e-9  # pass bound of EquivalenceReport.max_rel_dev
MAX_ABS_XI = 1e-12  # 1/s, pass bound of EquivalenceReport.max_abs_xi


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


def analytic_embed(times, dt, u):
    """The plane curve (u, uh, 0) of u sampled at ``times``, as a
    TimeSeries, with uh the discrete Hilbert transform of u.

    The transform zeroes the negative-frequency half of the spectrum,
    doubles the positive half and keeps DC and Nyquist unchanged; the
    quadrature part of the inverse transform is uh.  Raises
    FloatOverflow when the transform of a finite u is not finite, and
    TimeSeries' errors for a bad grid or a non-finite u.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.size
    if n < MIN_LENGTH:
        raise InvalidParameter(f"need at least {MIN_LENGTH} samples, got {n}")
    weights = np.zeros(n)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[1 : n // 2] = 2.0
        weights[n // 2] = 1.0
    else:
        weights[1 : (n + 1) // 2] = 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        analytic = np.fft.ifft(np.fft.fft(u) * weights)
    if np.isfinite(u).all() and not np.isfinite(analytic.imag).all():
        raise FloatOverflow("the Hilbert transform overflows float64")
    return TimeSeries(times, dt, np.column_stack([u, analytic.imag, np.zeros(n)]))


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
    if not np.isfinite((envelope, phi_dot)).all():
        raise FloatOverflow("analytic envelope or its phase rate overflows float64")
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

    rho = np.empty(n)
    omega_mag = np.empty(n)
    omega_z = np.empty(n)
    xi = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            rho[k], omega_vec, omega_mag[k], xi[k] = invariants(v[k], dv[k], ddv[k])
            omega_z[k] = omega_vec[2]
    if not np.isfinite((rho, omega_mag, xi)).all():
        raise FloatOverflow("the embedded curve's invariants overflow float64")

    mid = slice(n // 4, 3 * n // 4)
    dev = np.abs(omega_z[mid] - phi_dot[mid]) / np.maximum(
        np.abs(phi_dot[mid]), EPS_PHI_DOT
    )
    return EquivalenceReport(
        times=times,
        rho=rho,
        omega_mag=omega_mag,
        omega_z=omega_z,
        xi=xi,
        phi_dot=phi_dot,
        max_rel_dev=float(dev.max()),
        max_abs_xi=float(np.abs(xi).max()),
    )
