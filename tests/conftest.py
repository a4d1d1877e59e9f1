"""Shared helpers for the test suite."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from geomfreq import frenet, signals
from geomfreq.geometry import rowdot

W_O = 100.0 * math.pi
OMEGA_POS = W_O / math.sqrt(3.0)
DRAWN_T1 = 0.1  # s, end of the window drawn models are checked on


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


def _magnitude(draw, lo, hi):
    """A magnitude Profile whose offset is in [lo, hi] V, with a slope of
    up to one offset per second and a swing of up to 0.3 offsets, so it
    stays above 0.6 offsets on [0, DRAWN_T1]."""
    offset = draw(st.floats(lo, hi))
    return signals.Profile(offset, draw(st.floats(-offset, offset)),
                           draw(st.floats(0.0, 0.3 * offset)), draw(st.floats(0.0, 100.0)))


def _speed(draw):
    """An angular speed at 1, 3, 5 or 11 times 50 Hz, within 5%."""
    return draw(st.sampled_from((1, 3, 5, 11))) * W_O * draw(st.floats(0.95, 1.05))


def _phase(draw, c):
    """Channel c's phase in a balanced set, within 0.5 rad."""
    return -2.0 * math.pi / 3.0 * c + draw(st.floats(-0.5, 0.5))


def _angle(draw, theta0):
    """An angle Profile at ``_speed`` from theta0, frequency modulated by
    up to pi rad at up to 4 pi rad/s."""
    return signals.Profile(theta0, _speed(draw), draw(st.floats(0.0, math.pi)),
                           draw(st.floats(0.0, 4.0 * math.pi)))


@st.composite
def signal_models(draw):
    """A three-phase SignalModel whose magnitudes vary: each channel has a
    component of 0.5-20 V, near its phase of a balanced set (within 0.5
    rad), and may add a second of at most 0.3 times the first's offset at
    any phase.  Every term of both Profiles is drawn."""
    channels = []
    for c in range(3):
        first = _magnitude(draw, 0.5, 20.0)
        comps = [signals.Component(first, _angle(draw, _phase(draw, c)))]
        if draw(st.booleans()):
            second = _magnitude(draw, 0.0, 0.3 * first.offset)
            phase = draw(st.floats(-math.pi, math.pi))
            comps.append(signals.Component(second, _angle(draw, phase)))
        channels.append(tuple(comps))
    return signals.SignalModel(channels=tuple(channels))


@st.composite
def stationary_models(draw):
    """A stationary three-phase SignalModel, as ``signal_models`` draws its
    first components but with one speed for all three and every slope,
    swing and modulation term 0: V_c sin(w t + theta0_c), V_c in 0.5-20 V."""
    w = _speed(draw)
    return signals.SignalModel(channels=tuple(
        (signals.Component(signals.Profile(draw(st.floats(0.5, 20.0))), signals.Profile(_phase(draw, c), w)),)
        for c in range(3)
    ))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
