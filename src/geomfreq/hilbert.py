"""Analytic-signal embedding of a scalar waveform.

The scalar signal and its discrete Hilbert transform form a plane curve
whose azimuthal frequency reproduces the classical instantaneous
frequency; both quantities are computed here over the same stencil
derivatives so that their agreement is an algebraic identity.
``MAX_REL_DEV`` and ``MAX_ABS_XI`` bound that agreement for
``geomfreq hilbert`` and ``validate`` alike.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnvelope, FloatOverflow, TooShort
from .frenet import invariants
from .numdiff import TRIM, stencil_derivatives

MIN_LENGTH = 16
EPS_ENVELOPE = 1e-12  # V^2; at or below it the squared envelope u^2 + uh^2 vanishes
EPS_PHI_DOT = 1e-12  # rad/s; floor of |phi'| in the relative deviation
MAX_REL_DEV = 1e-9  # pass bound of EquivalenceReport.max_rel_dev
MAX_ABS_XI = 1e-12  # 1/s, pass bound of EquivalenceReport.max_abs_xi


@dataclass(frozen=True)
class AnalyticPair:
    """Scalar signal and its Hilbert transform on a uniform grid."""

    u: np.ndarray
    uh: np.ndarray
    dt: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        uh = np.asarray(self.uh, dtype=np.float64)
        if u.shape != uh.shape or u.ndim != 1:
            raise ValueError("u and uh must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(uh))):
            raise ValueError("u and uh must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "uh", uh)


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


def analytic_embed(u, dt):
    """Discrete Hilbert transform via the frequency-domain method.

    Zero the negative-frequency half of the spectrum, double the
    positive half, keep DC and Nyquist unchanged; the quadrature part
    of the inverse transform is the Hilbert transform.  Raises
    FloatOverflow when the transform of a finite u is not finite.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.size
    if n < MIN_LENGTH:
        raise TooShort(f"need at least {MIN_LENGTH} samples, got {n}")
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
    return AnalyticPair(u=u, uh=analytic.imag, dt=dt)


def _derivatives(pair):
    cols = np.column_stack([pair.u, pair.uh])
    d1, _ = stencil_derivatives(cols, pair.dt)
    u = pair.u[TRIM:-TRIM]
    uh = pair.uh[TRIM:-TRIM]
    return u, uh, d1[:, 0], d1[:, 1]


def instantaneous_frequency_classical(pair):
    """phi' = (uh' u - u' uh) / (u^2 + uh^2) on the retained samples.
    Raises DegenerateEnvelope where the envelope vanishes, and
    FloatOverflow where it or phi' is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        u, uh, du, duh = _derivatives(pair)
        envelope = u**2 + uh**2
        if np.any(envelope <= EPS_ENVELOPE):
            raise DegenerateEnvelope("analytic envelope vanishes at a sample")
        phi_dot = (duh * u - du * uh) / envelope
    if not np.isfinite((envelope, phi_dot)).all():
        raise FloatOverflow("analytic envelope or its phase rate overflows float64")
    return phi_dot


def geometric_equivalence(pair):
    """Run the Frenet route on the embedded curve (u, uh, 0) and compare
    its azimuthal frequency with the classical instantaneous frequency.

    The deviation summary is evaluated over the middle 50% of the
    window, away from the transform's boundary ringing.  Raises
    FloatOverflow when an invariant of a retained row is not finite.
    """
    phi_dot = instantaneous_frequency_classical(pair)
    cols = np.column_stack([pair.u, pair.uh])
    d1, d2 = stencil_derivatives(cols, pair.dt)
    n = d1.shape[0]
    times = pair.dt * np.arange(pair.u.size)[TRIM:-TRIM]
    # rows (u, uh, 0), (u', uh', 0), (u'', uh'', 0) of the plane curve
    v, dv, ddv = (np.column_stack([x, np.zeros(n)]) for x in (cols[TRIM:-TRIM], d1, d2))

    rho = np.empty(n)
    omega_mag = np.empty(n)
    omega_z = np.empty(n)
    xi = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            g = invariants(v[k], dv[k], ddv[k])
            rho[k] = g.rho
            omega_mag[k] = g.omega_mag
            omega_z[k] = g.omega_vec[2]
            xi[k] = g.xi
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
