"""Geometric frequency of stationary waveforms.

A DC voltage traces a straight line (no rotation at all), a single-phase
analytic pair traces a circle in a plane, and a balanced three-phase set
traces a circle whose plane is orthogonal to (1,1,1).  The azimuthal
frequency vector makes all three cases directly comparable.

Run:  python3 demos/01_stationary_invariants.py
"""

import math

import numpy as np

from geomfreq import frenet, signals

np.set_printoptions(precision=4, suppress=True)


def show(title, model, t):
    v, dv, ddv = signals.eval_arrays(model, (t,))
    b = frenet.invariants_batch(v, dv, ddv)
    rotating = not b.no_rotation[0]
    print(f"\n{title}  (t = {t} s)")
    print(f"  v        = {v[0]}")
    print(f"  |v|      = {b.v_mag[0]:.4f} V")
    print(f"  rho      = {b.rho[0]:+.3e} 1/s")
    print(f"  omega    = {b.omega_vec[0]}  (|omega| = {b.omega_mag[0]:.4f} rad/s)")
    print(f"  xi       = {b.xi[0]:+.3e} 1/s")
    print(f"  rotating = {rotating}")
    if rotating:
        T, N, B = frenet.frame(v, dv, ddv)
        print(f"  binormal = {B[0]}")


show("DC level (straight line)", signals.make_scenario("DC"), 0.1)
show("single-phase analytic pair (plane circle)",
     signals.make_scenario("SINGLE_PHASE"), 0.0)
show("balanced three-phase set E0", signals.make_scenario("E0"), 0.0)
show("unbalanced magnitudes E1", signals.make_scenario("E1"), 0.0)
show("unbalanced angles E2", signals.make_scenario("E2"), 2.5e-3)

print("\nFor the balanced set, omega stays pinned at (w_o/sqrt(3))(1,1,1):")
times = (0.0, 0.005, 0.013)
b = frenet.invariants_batch(*signals.eval_arrays(signals.make_scenario("E0"), times))
for t, omega in zip(times, b.omega_vec):
    print(f"  t = {t:6.3f}  omega = {omega}"
          f"   expected component {100 * math.pi / math.sqrt(3):.4f}")
