"""Shared helpers for the test suite."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from geomfreq import frenet, signals
from geomfreq.geometry import rowdot

W_O = 100.0 * math.pi
OMEGA_POS = W_O / math.sqrt(3.0)


def scenario_arrays(scenario_id, t0, t1, dt):
    """Times t0 + k*dt and the exact analytic (N, 3) arrays v, v', v''
    of a preset scenario on that grid."""
    model = signals.make_scenario(scenario_id)
    times = t0 + dt * np.arange(int(round((t1 - t0) / dt)) + 1)
    return (times, *signals.eval_arrays(model, times))


def ddv_expansion(v, dv, ddv):
    """The kernel's rows with v'' expanded as a2 v + b2 n + c2 omega.

    {v, n = v' - rho v, omega} is an orthogonal basis wherever the
    curve rotates, so each coefficient is one projection.  Also gives
    rho' = (v . v'') / |v|^2 + |omega|^2 - rho^2, for the closed forms
    a2 = rho' + rho^2 - |omega|^2, b2 = 2 rho + eta and c2 = |v| xi.
    """
    b = frenet.invariants_batch(v, dv, ddv)
    v, dv, ddv = (np.asarray(x, dtype=np.float64) for x in (v, dv, ddv))
    n = dv - b.rho[:, None] * v
    w = b.omega_vec
    with np.errstate(divide="ignore", invalid="ignore"):
        a2 = rowdot(ddv, v) / b.v_mag**2
        b2 = rowdot(ddv, n) / rowdot(n, n)
        c2 = rowdot(ddv, w) / b.omega_mag**2
    residual = ddv - (a2[:, None] * v + b2[:, None] * n + c2[:, None] * w)
    rho_prime = rowdot(v, ddv) / b.v_mag**2 + b.omega_mag**2 - b.rho**2
    return SimpleNamespace(
        b=b, n=n, a2=a2, b2=b2, c2=c2, residual=residual, rho_prime=rho_prime
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
