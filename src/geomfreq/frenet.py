"""Geometric invariants, Frenet frame, and RoCoF decomposition of a
voltage vector given together with its first two time derivatives.

The per-sample functions take a second order jet (value, first and
second derivative at one instant) and return a value object; degenerate
samples raise explicit errors instead of returning NaN.  They are the
reference for ``invariants_batch``, which evaluates the same formulas
over ``(N, 3)`` arrays of samples and marks degenerate rows with NaN.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRotation, DegenerateSpeed
from .geometry import as_vec3, cross, inner, norm, triple_scalar

EPS_V = 1e-9  # V; below this the curve has no defined tangent
EPS_W = 1e-9  # rad/s; below this the curve is not rotating

_ZERO = np.zeros(3)
_ZERO.flags.writeable = False


@dataclass(frozen=True)
class Jet2:
    """Voltage vector with first and second time derivatives at time t."""

    t: float
    v: np.ndarray  # V
    dv: np.ndarray  # V/s
    ddv: np.ndarray  # V/s^2

    def __post_init__(self):
        object.__setattr__(self, "v", as_vec3(self.v))
        object.__setattr__(self, "dv", as_vec3(self.dv))
        object.__setattr__(self, "ddv", as_vec3(self.ddv))


@dataclass(frozen=True)
class GeomInvariants:
    """Bundle of geometric quantities at one sample.

    When the curve is not rotating (``rotation_defined`` False) the
    rotation-dependent quantities are reported as exact zeros.
    """

    v_mag: float  # V
    rho: float  # 1/s, radial frequency
    omega_vec: np.ndarray  # rad/s, azimuthal frequency vector
    omega_mag: float  # rad/s
    kappa: float  # 1/(V s), curvature
    tau: float  # 1/(V s), torsion
    xi: float  # 1/s, torsional frequency
    n_vec: np.ndarray  # V/s, unnormalized normal
    n_mag: float  # V/s
    rotation_defined: bool


@dataclass(frozen=True)
class FrenetFrame:
    """Orthonormal (tangent, normal, binormal) triad."""

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray


@dataclass(frozen=True)
class RocofDecomposition:
    """Frequency derivative split into symmetric and antisymmetric parts."""

    omega_dot: np.ndarray  # rad/s^2
    eta: float  # 1/s
    sym_part: np.ndarray  # eta * omega
    antisym_part: np.ndarray  # tau * (v x omega)
    residual: np.ndarray  # omega_dot - sym - antisym


@dataclass(frozen=True)
class BatchInvariants:
    """Invariants and RoCoF of N samples, one array entry per sample.

    On a ``degenerate`` row (|v| <= eps_v) every value is NaN.  On a
    ``no_rotation`` row (|omega| <= eps_w) omega, kappa, tau and xi are
    exact zeros and eta and omega_dot are NaN.  The masks are disjoint.
    """

    v_mag: np.ndarray  # (N,) V
    rho: np.ndarray  # (N,) 1/s
    omega_vec: np.ndarray  # (N, 3) rad/s
    omega_mag: np.ndarray  # (N,) rad/s
    kappa: np.ndarray  # (N,) 1/(V s)
    tau: np.ndarray  # (N,) 1/(V s)
    xi: np.ndarray  # (N,) 1/s
    eta: np.ndarray  # (N,) 1/s
    omega_dot: np.ndarray  # (N, 3) rad/s^2
    degenerate: np.ndarray  # (N,) bool
    no_rotation: np.ndarray  # (N,) bool


@dataclass(frozen=True)
class SecondDerivativeDecomposition:
    """Expansion of v'' in the orthogonal basis {v, n, omega}.

    ``a2``, ``b2``, ``c2`` are recovered by projection.  ``a2_closed``
    is the analytic value rho' + rho^2 - omega^2.  The two candidate
    closed forms for b2 disagree in the sign of eta; flags record which
    one the projection matches.
    """

    a2: float
    b2: float
    c2: float
    residual: np.ndarray
    a2_closed: float
    b2_candidate_minus: float  # 2*rho - eta
    b2_candidate_plus: float  # 2*rho + eta
    c2_candidate: float  # v * xi
    matches_minus: bool = field(default=False)
    matches_plus: bool = field(default=False)


def speed(j):
    """Magnitude of the voltage vector, i.e. the curve speed ds/dt."""
    return norm(j.v)


def _radial_azimuthal(j, eps_v):
    """|v|, rho = (v . v') / |v|^2 and omega = (v x v') / |v|^2 of a jet.

    Raises ``DegenerateSpeed`` when |v| <= eps_v.
    """
    v_mag = norm(j.v)
    if v_mag <= eps_v:
        raise DegenerateSpeed(f"|v| = {v_mag} <= {eps_v} at t = {j.t}")
    v2 = v_mag * v_mag
    return v_mag, inner(j.v, j.dv) / v2, cross(j.v, j.dv) / v2


def invariants(j, eps_v=EPS_V, eps_w=EPS_W):
    """Compute rho, omega, kappa, tau, xi and the normal vector.

    rho  = (v . v') / |v|^2
    omega = (v x v') / |v|^2
    kappa = |omega| / |v|
    tau  = v . (v' x v'') / |v x v'|^2   (0 when not rotating)
    xi   = |v| * tau
    n    = v' - rho v
    """
    v_mag, rho, omega_vec = _radial_azimuthal(j, eps_v)
    omega_mag = norm(omega_vec)
    if omega_mag > eps_w:
        vxdv = cross(j.v, j.dv)
        tau = triple_scalar(j.v, j.dv, j.ddv) / inner(vxdv, vxdv)
        xi = v_mag * tau
        kappa = omega_mag / v_mag
        n_vec = j.dv - rho * j.v
        return GeomInvariants(
            v_mag=v_mag,
            rho=rho,
            omega_vec=omega_vec,
            omega_mag=omega_mag,
            kappa=kappa,
            tau=tau,
            xi=xi,
            n_vec=n_vec,
            n_mag=norm(n_vec),
            rotation_defined=True,
        )
    return GeomInvariants(
        v_mag=v_mag,
        rho=rho,
        omega_vec=_ZERO,
        omega_mag=0.0,
        kappa=0.0,
        tau=0.0,
        xi=0.0,
        n_vec=_ZERO,
        n_mag=0.0,
        rotation_defined=False,
    )


def frame(j, eps_v=EPS_V, eps_w=EPS_W):
    """Orthonormal Frenet triad T = v/|v|, N = n/|n|, B = omega/|omega|."""
    g = invariants(j, eps_v, eps_w)
    if not g.rotation_defined:
        raise DegenerateRotation(
            f"|omega| <= {eps_w} at t = {j.t}: normal/binormal undefined"
        )
    return FrenetFrame(
        T=j.v / g.v_mag,
        N=g.n_vec / g.n_mag,
        B=g.omega_vec / g.omega_mag,
    )


def velocity_identity_residual(j, eps_v=EPS_V):
    """Residual of v' = rho v + omega x v; numerically zero for any
    jet that actually came from a differentiable curve."""
    _, rho, omega_vec = _radial_azimuthal(j, eps_v)
    return j.dv - (rho * j.v + cross(omega_vec, j.v))


def rho_prime(j, eps_v=EPS_V):
    """Time derivative of rho: (v . v'') / |v|^2 + omega^2 - rho^2."""
    v_mag, rho, omega_vec = _radial_azimuthal(j, eps_v)
    return inner(j.v, j.ddv) / (v_mag * v_mag) + norm(omega_vec) ** 2 - rho**2


def omega_dot_direct(j, eps_v=EPS_V):
    """Analytic omega' = (v x v'') / |v|^2 - 2 rho omega."""
    v_mag, rho, omega_vec = _radial_azimuthal(j, eps_v)
    return cross(j.v, j.ddv) / (v_mag * v_mag) - 2.0 * rho * omega_vec


def rocof(j, eps_v=EPS_V, eps_w=EPS_W):
    """Decompose omega' = eta omega + tau (v x omega)."""
    g = invariants(j, eps_v, eps_w)
    if not g.rotation_defined:
        raise DegenerateRotation(
            f"|omega| <= {eps_w} at t = {j.t}: RoCoF decomposition undefined"
        )
    omega_dot = omega_dot_direct(j, eps_v)
    eta = inner(g.omega_vec, omega_dot) / g.omega_mag**2
    sym = eta * g.omega_vec
    antisym = g.tau * cross(j.v, g.omega_vec)
    return RocofDecomposition(
        omega_dot=omega_dot,
        eta=eta,
        sym_part=sym,
        antisym_part=antisym,
        residual=omega_dot - sym - antisym,
    )


def second_derivative_decomposition(j, eps_v=EPS_V, eps_w=EPS_W, match_tol=1e-6):
    """Expand v'' = a2 v + b2 n + c2 omega by orthogonal projection.

    The basis {v, n, omega} is mutually orthogonal whenever the curve
    rotates, so each coefficient is a single projection.  The recovered
    coefficients are compared against both closed-form candidates for
    b2 (2 rho -/+ eta) and against c2 = |v| xi.
    """
    g = invariants(j, eps_v, eps_w)
    if not g.rotation_defined:
        raise DegenerateRotation(
            f"|omega| <= {eps_w} at t = {j.t}: {{v, n, omega}} is not a basis"
        )
    a2 = inner(j.ddv, j.v) / g.v_mag**2
    b2 = inner(j.ddv, g.n_vec) / g.n_mag**2
    c2 = inner(j.ddv, g.omega_vec) / g.omega_mag**2
    residual = j.ddv - (a2 * j.v + b2 * g.n_vec + c2 * g.omega_vec)

    a2_closed = rho_prime(j, eps_v) + g.rho**2 - g.omega_mag**2
    eta = rocof(j, eps_v, eps_w).eta
    b2_minus = 2.0 * g.rho - eta
    b2_plus = 2.0 * g.rho + eta
    c2_cand = g.v_mag * g.xi
    scale = max(abs(b2), abs(b2_minus), abs(b2_plus), 1e-30)
    return SecondDerivativeDecomposition(
        a2=a2,
        b2=b2,
        c2=c2,
        residual=residual,
        a2_closed=a2_closed,
        b2_candidate_minus=b2_minus,
        b2_candidate_plus=b2_plus,
        c2_candidate=c2_cand,
        matches_minus=abs(b2 - b2_minus) <= match_tol * scale,
        matches_plus=abs(b2 - b2_plus) <= match_tol * scale,
    )


def _rowdot(a, b):
    """Row-wise inner products of (N, 3) arrays.  A stacked matmul sums
    each row in the order ``np.dot`` sums one 3-vector (so norms, rho
    and omega match the per-sample functions bit for bit with numpy
    2.4), where an einsum or a column sum differs in the last bit."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _as_rows(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected shape (N, 3), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite vector component")
    return a


def invariants_batch(v, dv, ddv, eps_v=EPS_V, eps_w=EPS_W):
    """``invariants`` and ``rocof`` of every row of (N, 3) arrays.

    Same formulas and thresholds as the per-sample functions; instead
    of raising on a degenerate sample it flags the row (see
    ``BatchInvariants``).
    """
    v, dv, ddv = _as_rows(v), _as_rows(dv), _as_rows(ddv)
    if not v.shape == dv.shape == ddv.shape:
        raise ValueError(f"shape mismatch {v.shape}, {dv.shape}, {ddv.shape}")
    v_mag = np.sqrt(_rowdot(v, v))
    degenerate = v_mag <= eps_v
    with np.errstate(divide="ignore", invalid="ignore"):
        v2 = v_mag * v_mag
        rho = _rowdot(v, dv) / v2
        vxdv = np.cross(v, dv)
        omega_vec = vxdv / v2[:, None]
        omega_mag = np.sqrt(_rowdot(omega_vec, omega_vec))
        tau = _rowdot(v, np.cross(dv, ddv)) / _rowdot(vxdv, vxdv)
        omega_dot = np.cross(v, ddv) / v2[:, None] - 2.0 * rho[:, None] * omega_vec
        eta = _rowdot(omega_vec, omega_dot) / omega_mag**2
        kappa = omega_mag / v_mag
        xi = v_mag * tau
    rotating = ~degenerate & (omega_mag > eps_w)
    no_rotation = ~degenerate & ~rotating
    for col in (omega_vec, omega_mag, kappa, tau, xi):
        col[no_rotation] = 0.0
    for col in (v_mag, rho, omega_vec, omega_mag, kappa, tau, xi):
        col[degenerate] = np.nan
    eta[~rotating] = np.nan
    omega_dot[~rotating] = np.nan
    return BatchInvariants(
        v_mag=v_mag,
        rho=rho,
        omega_vec=omega_vec,
        omega_mag=omega_mag,
        kappa=kappa,
        tau=tau,
        xi=xi,
        eta=eta,
        omega_dot=omega_dot,
        degenerate=degenerate,
        no_rotation=no_rotation,
    )
