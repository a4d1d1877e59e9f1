"""Geometric invariants, Frenet frame and RoCoF decomposition of a
voltage curve, from the rows of (N, 3) arrays v, v', v'':

    rho    = (v . v') / |v|^2                  radial frequency
    omega  = (v x v') / |v|^2                  azimuthal frequency vector
    kappa  = |omega| / |v|                     curvature
    tau    = v . (v' x v'') / |v x v'|^2       torsion
    xi     = |v| tau                           torsional frequency
    omega' = (v x v'') / |v|^2 - 2 rho omega = eta omega + tau (v x omega)

``invariants_batch`` evaluates them over every row and flags degenerate
rows with NaN; ``frame`` builds the Frenet triad from its columns, and
``identity_residuals`` checks the splits of v' and omega' on them, over
the floors max(|v'|, EPS_V) and max(|omega'|, |omega|).  rho, omega
and kappa exist where |v| > EPS_V (the tangent), however small omega is;
the normal, binormal, torsion and RoCoF split need a rotation,
|omega| > EPS_W.  ``invariants`` is the same arithmetic on one row, for
a caller that holds one instant at a time, and gives the bits of that
batch row.  It keeps the inner products in ``np.dot`` and forms the
cross products in Python floats, since numpy's fixed cost per call
dwarfs the arithmetic on three elements.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidParameter
from .geometry import rowdot, rownorm

EPS_V = 1e-9  # V; below this the curve has no defined tangent
EPS_W = 1e-9  # rad/s; below this the curve is not rotating


@dataclass(frozen=True)
class BatchInvariants:
    """Invariants and RoCoF of N samples, one array entry per sample.

    On a ``degenerate`` row (|v| <= EPS_V) every value is NaN.  On a
    ``no_rotation`` row (|omega| <= EPS_W) omega and kappa are reported
    however small they are, tau and xi are exact zeros, and eta and
    omega_dot are NaN.  These two masks are disjoint.  An ``overflow``
    row is one that is not degenerate but where a square or product left
    the float64 range: its values are inf, NaN, or quotients flushed to
    zero by an infinite denominator, not the invariants.
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
    overflow: np.ndarray  # (N,) bool


def _cross(a, b):
    """a x b of two 3-vectors in Python floats: the products and
    differences ``np.cross`` forms, without its per-call overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def invariants(v, dv, ddv):
    """(rho, omega_vec, omega_mag, xi) of one instant from the finite
    3-vectors v, v', v'', bit for bit what ``invariants_batch`` gives
    that row.  Raises ``DegenerateInput`` when |v| <= EPS_V.

    Inner products are ``np.dot``, which sums three products the way
    ``rowdot`` does (a fused multiply-add chain, not reproducible in
    Python floats before 3.13); |x| is the square root of ``np.dot(x, x)``,
    as ``np.linalg.norm`` computes it.  Cross products are ``_cross``."""
    v, dv, ddv = (np.asarray(x, dtype=np.float64) for x in (v, dv, ddv))
    v_mag = math.sqrt(np.dot(v, v))
    if v_mag <= EPS_V:
        raise DegenerateInput(f"|v| = {v_mag} <= {EPS_V}")
    v2 = v_mag * v_mag
    vxdv = _cross(v, dv)
    omega_vec = vxdv / v2
    omega_mag = math.sqrt(np.dot(omega_vec, omega_vec))
    xi = 0.0
    if omega_mag > EPS_W:  # a NaN omega counts as no rotation, as in the batch
        xi = v_mag * (float(np.dot(v, _cross(dv, ddv))) / float(np.dot(vxdv, vxdv)))
    return float(np.dot(v, dv)) / v2, omega_vec, omega_mag, xi


def _as_rows(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise InvalidParameter(f"expected shape (N, 3), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameter("non-finite vector component")
    return a


def invariants_batch(v, dv, ddv):
    """Invariants and RoCoF split of every row of (N, 3) arrays; a
    degenerate, non-rotating or overflowing row is flagged (see
    ``BatchInvariants``)."""
    v, dv, ddv = _as_rows(v), _as_rows(dv), _as_rows(ddv)
    if not v.shape == dv.shape == ddv.shape:
        raise InvalidParameter(f"shape mismatch {v.shape}, {dv.shape}, {ddv.shape}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v_mag = rownorm(v)
        v2 = v_mag * v_mag
        rho = rowdot(v, dv) / v2
        vxdv = np.cross(v, dv)
        omega_vec = vxdv / v2[:, None]
        omega_mag = rownorm(omega_vec)
        vxdv2 = rowdot(vxdv, vxdv)
        tau = rowdot(v, np.cross(dv, ddv)) / vxdv2
        omega_dot = np.cross(v, ddv) / v2[:, None] - 2.0 * rho[:, None] * omega_vec
        omega2 = omega_mag**2
        eta = rowdot(omega_vec, omega_dot) / omega2
        kappa = omega_mag / v_mag
        xi = v_mag * tau
    degenerate = v_mag <= EPS_V
    rotating = ~degenerate & (omega_mag > EPS_W)
    no_rotation = ~degenerate & ~rotating
    # past the float64 range a value is inf or NaN, or a quotient over an
    # infinite |v|^2, |v x v'|^2 or |omega|^2 is flushed to zero.  Implied
    # checks: a NaN in v x v' takes two infinite products, which force one
    # in v . v' (so rho); xi is finite only with tau, eta only with omega_dot.
    tangent_ok = np.isfinite(v2) & np.isfinite(rho)
    rotation_ok = (
        np.isfinite(vxdv2) & np.isfinite(omega2) & np.isfinite(xi) & np.isfinite(eta)
    )
    overflow = (~degenerate & ~tangent_ok) | (rotating & ~rotation_ok)
    for col in (tau, xi):
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
        overflow=overflow,
    )


def identity_residuals(v, dv, b):
    """Relative residuals of the two derivative splits on every row of
    the (N, 3) arrays v, v' and b, their ``invariants_batch`` result:
        reconstruction = |rho v + omega x v - v'| / max(|v'|, EPS_V)
        rocof = |omega' - eta omega - tau (v x omega)| / max(|omega'|, |omega|)
    Both are NaN on a degenerate row, and rocof also on a row without
    rotation; an overflow is for b to flag, and warns of nothing."""
    w = b.omega_vec
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v_split = b.rho[:, None] * v + np.cross(w, v) - dv
        w_split = b.omega_dot - b.eta[:, None] * w - b.tau[:, None] * np.cross(v, w)
        return (rownorm(v_split) / np.maximum(rownorm(dv), EPS_V),
                rownorm(w_split) / np.maximum(rownorm(b.omega_dot), b.omega_mag))


def frame(v, dv, ddv):
    """Frenet triad (T, N, B) of every row, as (N, 3) arrays: the unit
    tangent v/|v|, the unit normal n/|n| with n = v' - rho v, and the
    unit binormal omega/|omega|.  All three are NaN on a row without
    rotation, where the normal and binormal are undefined."""
    b = invariants_batch(v, dv, ddv)
    v, dv = np.asarray(v, dtype=np.float64), np.asarray(dv, dtype=np.float64)
    n = dv - b.rho[:, None] * v
    with np.errstate(divide="ignore", invalid="ignore"):
        triad = (
            v / b.v_mag[:, None],
            n / rownorm(n)[:, None],
            b.omega_vec / b.omega_mag[:, None],
        )
    undefined = (b.degenerate | b.no_rotation)[:, None]
    return tuple(np.where(undefined, np.nan, x) for x in triad)
