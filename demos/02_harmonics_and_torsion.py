"""Harmonic distortion and the torsional frequency.

A balanced 11th harmonic (E3) keeps the voltage curve planar, so the
torsional frequency xi stays at zero.  Distorting the harmonic's phase
displacements (E4) or magnitudes (E5) bends the curve out of its plane
and xi becomes a large oscillating quantity, even though the waveforms
look almost identical to the eye.

Run:  python3 demos/02_harmonics_and_torsion.py
"""

import numpy as np

from geomfreq import frenet, signals

for sid in ("E3", "E4", "E5"):
    model = signals.make_scenario(sid)
    ts = np.arange(0.0, 0.04, 1e-4)
    b = frenet.invariants_batch(*signals.eval_arrays(model, ts))
    xi, w = b.xi, b.omega_mag
    print(f"{sid}: over one 20 ms period x2")
    print(f"  max |xi|   = {np.max(np.abs(xi)):10.4f} 1/s")
    print(f"  |omega| in [{w.min():9.4f}, {w.max():9.4f}] rad/s")
    print()

print("The closed-form three-phase route gives the same numbers:")
from geomfreq import threephase

model = signals.make_scenario("E5")
times = np.array([0.001, 0.007, 0.013])
g = frenet.invariants_batch(*signals.eval_arrays(model, times))
cf = threephase.closed_form_invariants(signals.phase_jets(model, times))
for k, t in enumerate(times.tolist()):
    print(f"  t = {t}: generic xi = {g.xi[k]:+.6f}   closed form xi = {cf.xi[k]:+.6f}")
