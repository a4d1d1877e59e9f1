"""Decomposing the rate of change of frequency.

The derivative of the azimuthal frequency vector splits into a part
parallel to omega (the conventional RoCoF) and a torsional part
tau * (v x omega).  When all three phases share the same frequency
modulation (E6) the torsional part vanishes and |omega'| = |eta||omega|
exactly.  When one phase is modulated differently (E7, E8) the two
curves separate: a conventional RoCoF meter would under-report the
frequency dynamics.

Run:  python3 demos/03_rocof_decomposition.py
"""

import numpy as np

from geomfreq import frenet, signals
from geomfreq.geometry import rownorm


def rocof_split(model, times):
    """omega', eta omega, tau (v x omega) and the residual at each time."""
    v, dv, ddv = signals.eval_arrays(model, times)
    b = frenet.invariants_batch(v, dv, ddv)
    sym = b.eta[:, None] * b.omega_vec
    antisym = b.tau[:, None] * np.cross(v, b.omega_vec)
    return b, sym, antisym, b.omega_dot - sym - antisym


for sid in ("E6", "E7", "E8"):
    model = signals.make_scenario(sid)
    b, _, antisym, _ = rocof_split(model, np.arange(0.0, 2.5, 5e-3))
    wd = rownorm(b.omega_dot)
    moving = wd > 1e-6
    gap = np.abs(wd - np.abs(b.eta) * b.omega_mag)[moving] / wd[moving]
    print(f"{sid}:")
    print(f"  max |tau v x omega|            = {rownorm(antisym).max():12.6f} rad/s^2")
    print(f"  max gap | |omega'|-|eta omega| | / |omega'| = {gap.max(initial=0.0):8.2%}")
    print()

print("Sample decomposition on E8 at t = 1.2 s:")
b, sym, antisym, residual = rocof_split(signals.make_scenario("E8"), (1.2,))
np.set_printoptions(precision=4, suppress=True)
print(f"  omega'        = {b.omega_dot[0]}")
print(f"  eta * omega   = {sym[0]}")
print(f"  tau (v x w)   = {antisym[0]}")
print(f"  residual norm = {rownorm(residual)[0]:.3e}")
