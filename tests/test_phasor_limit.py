"""The phasor limit of the geometric invariants.

A stationary set v_c(t) = V_c sin(w t + theta0_c) is the ellipse
v(t) = A cos wt + B sin wt, with A_c = V_c sin theta0_c and
B_c = V_c cos theta0_c the parts of its three phasors.  Then
v x v' = w (A x B) at every instant, so

    omega(t) = w (A x B) / |v(t)|^2,    xi = 0,

|omega| runs between w s2/s1 (where |v| = s1) and w s1/s2 (where
|v| = s2), s1 >= s2 the singular values of [A B], the ellipse's
semi-axes, and its mean over a period is w: the curve turns once.  The
kernel's rows come from ``signals.eval_arrays``; A, B and w come from
the model's (V, theta0, w) parameters, and |v|^2 from the kernel's own
v rows, so that the check reads the kernel's v x v' against w (A x B)
and not two roundings of v against each other.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from geomfreq import frenet, signals
from geomfreq.geometry import rowcross, rowdot

from conftest import stationary_models

# relative to w, fixed before the first run.  Two runs of 4000 random
# draws from the ranges of stationary_models (s1/s2 up to 46) read at
# most 2.3e-14 of w on omega and 6.1e-15 relative on the extremes, mean
# and xi; E0-E2 at most 8.9e-16
REL = 1e-13
# instants per period, set after a scratch run in which N = 1000 left
# the mean of |omega| 1.1e-9 off at s1/s2 = 49: over N instants it is off
# by about 2 r^(N/2), r = (s1 - s2)/(s1 + s2), which is 1e-32 at
# s1/s2 = 54, the largest those ranges give
N = 4000


def phasor_parts(model):
    """(A, B, w) of a stationary model's single components."""
    comps = [ch[0] for ch in model.channels]
    V = np.array([c.magnitude.offset for c in comps])
    theta0 = np.array([c.angle.offset for c in comps])
    return V * np.sin(theta0), V * np.cos(theta0), comps[0].angle.slope


def check_phasor_limit(model):
    A, B, w = phasor_parts(model)
    _, (s1, s2), axes = np.linalg.svd(np.column_stack((A, B)))
    period = 2.0 * math.pi / w
    # N instants of one period, then the two where (cos wt, sin wt) is an
    # axis of the ellipse: there |v| is s1 and s2
    apexes = [math.atan2(a[1], a[0]) % (2.0 * math.pi) / w for a in axes]
    t = np.concatenate((np.arange(N) * (period / N), apexes))
    v, dv, ddv = signals.eval_arrays(model, t)
    b = frenet.invariants_batch(v, dv, ddv)

    omega = w * rowcross(A, B) / rowdot(v, v)[:, None]
    assert np.abs(b.omega_vec - omega).max() <= REL * w
    assert np.abs(b.xi).max() <= REL * w
    assert b.omega_mag.min() == pytest.approx(w * s2 / s1, rel=REL)
    assert b.omega_mag.max() == pytest.approx(w * s1 / s2, rel=REL)
    assert b.omega_mag[:N].mean() == pytest.approx(w, rel=REL)


@pytest.mark.parametrize("sid", ["E0", "E1", "E2"])
def test_a_stationary_preset_is_its_phasors_ellipse(sid):
    check_phasor_limit(signals.make_scenario(sid))


@settings(max_examples=100, deadline=None)
@given(stationary_models())
def test_a_drawn_stationary_set_is_its_phasors_ellipse(model):
    check_phasor_limit(model)
