"""The kernel's forward error against the exact oracle ``tests/exact.py``,
in units of u = 2**-53, with every bound fixed before the test first ran.

BOUNDS holds each bound in u.  On a row whose v and v' are at least 30
degrees apart (sin >= SIN_WELL):
- rho within 14 u of the row's |omega|;
- |omega| within 9 u of itself;
- omega' within 32 u of the scale W = |v''| / |v| + 2 |omega| |v'| / |v|
  of its two terms, and eta within 96 u of W / |omega|;
- xi within 58 u of max(|xi|, |omega|), where also R / sin^3 <= XI_COND,
  with R = |v| |v''| / |v'|^2.
On every other row ("near"), |omega| within 8 u / sin of itself.

The bounds come from the first-order worst case of the kernel's
arithmetic.  v x v' errs by up to sqrt(2) u |v| |v'| against
|v x v'| = sin |v| |v'|, so |omega| is off by up to (sqrt(2) / sin +
7.5) u: 10.3 u at sin = 1/2, and below 8 u / sin for any smaller sine.
rho is off by up to (2 + 6 cos) u |v'| / |v|, 14.4 u of |omega| at
sin = 1/2.  xi's triple product errs by up to 5.4 u |v| |v'| |v''|,
5.4 u R / sin^3 of |omega|; with xi's other terms that is about 58 u at
R / sin^3 = 8.  The rho, |omega| and xi bounds are also twice the largest
errors an earlier prototype of this oracle measured (7, 4.5 and 29 u).
The RoCoF bounds are 1.6 times their worst cases, 20 u W and
60 u W / |omega|.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

import exact
from conftest import DRAWN_T1, scenario_arrays, signal_models
from geomfreq import frenet, signals

U = 2.0**-53
SIN_WELL = 0.5
BOUNDS = {"rho": 14, "omega": 9, "rocof": 32, "eta": 96, "xi": 58, "near": 8}
XI_COND = 8.0
PRESETS = ("DC", "SINGLE_PHASE", *(f"E{k}" for k in range(9)))


def _norm(x):
    return math.sqrt(sum(c * c for c in x))


def forward_errors(v, dv, ddv):
    """Each bounded error of every non-degenerate row, in u over its
    scale, against the bound's name: one list per bound."""
    b = frenet.invariants_batch(v, dv, ddv)
    out = {name: [] for name in BOUNDS}
    for k, row in enumerate(zip(v.tolist(), dv.tolist(), ddv.tolist())):
        if b.degenerate[k]:
            continue
        ex = exact.invariants(*row)
        w, s = ex.omega_mag, ex.sin_vdv
        w_err = abs(b.omega_mag[k] - w)
        if s < SIN_WELL:
            # 0 where v and v' are parallel: any error is within the bound
            out["near"].append(w_err * s / (w * U) if s else 0.0)
            continue
        out["rho"].append(abs(b.rho[k] - ex.rho) / (w * U))
        out["omega"].append(w_err / (w * U))
        if b.no_rotation[k]:
            continue
        v_mag, dv_mag = ex.v_mag, _norm(row[1])
        scale = _norm(row[2]) / v_mag + 2.0 * w * dv_mag / v_mag
        out["rocof"].append(_norm(np.subtract(b.omega_dot[k], ex.omega_dot)) / (scale * U))
        out["eta"].append(abs(b.eta[k] - ex.eta) * w / (scale * U))
        if ex.ratio / s**3 <= XI_COND:
            out["xi"].append(abs(b.xi[k] - ex.xi) / (max(abs(ex.xi), w) * U))
    return out


def _assert_within_bounds(errors):
    worst = {name: max(errs, default=0.0) for name, errs in errors.items()}
    assert all(worst[name] <= bound for name, bound in BOUNDS.items()), worst


def _near_parallel_rows(rng, sines, per_sine=8):
    """Rows whose v' is at an angle asin(s) from v, for each s in sines,
    at magnitudes from 1e-3 to 1e3 V and directions drawn from rng."""
    n = len(sines) * per_sine
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    p = np.cross(v, rng.normal(size=(n, 3)))
    p /= np.linalg.norm(p, axis=1)[:, None]
    s = np.repeat(sines, per_sine)[:, None]
    unit = v / np.linalg.norm(v, axis=1)[:, None]
    dv = (np.sqrt(1.0 - s * s) * unit + s * p) * 10.0 ** rng.uniform(-1, 4, size=(n, 1))
    return v, dv, rng.normal(size=(n, 3)) * 1e5


@pytest.mark.parametrize("sid", PRESETS)
def test_kernel_is_within_rounding_of_the_exact_invariants_on_the_presets(sid):
    _, v, dv, ddv = scenario_arrays(sid, 0.0, 0.2, 1e-3)
    _assert_within_bounds(forward_errors(v, dv, ddv))


@settings(max_examples=25, deadline=None)
@given(signal_models())
def test_kernel_is_within_rounding_of_the_exact_invariants_on_drawn_models(model):
    times = np.linspace(0.0, DRAWN_T1, 41)
    _assert_within_bounds(forward_errors(*signals.eval_arrays(model, times)))


def test_omega_error_near_parallel_grows_as_one_over_the_sine(rng):
    v, dv, ddv = _near_parallel_rows(rng, 10.0 ** -np.arange(1.0, 13.0))
    errors = forward_errors(v, dv, ddv)
    assert len(errors["near"]) == len(v)
    _assert_within_bounds(errors)
