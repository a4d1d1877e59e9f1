"""Rotating (dq0) frame and the two splits of the voltage derivative.

The inertial derivative of the voltage can be split two ways:
  v' = v_hat' + r x v     (rotating-frame derivative + frame rotation)
  v' = rho v + omega x v  (geometric symmetric + antisymmetric parts)
The sums always agree.  The individual terms coincide only when the
dq frame spins at the actual signal frequency; a Clarke frame
(w_dq = 0) makes the rotation term vanish instead.  A frame is just its
speed w_dq and initial angle theta0, passed to ``park.to_dq0``; one
call, ``park.derivative_frame_check``, needs only w_dq and reports rho,
omega, the deviation from the frame speed and both checks; the terms
are rebuilt from them here.

Run:  python3 demos/05_park_frame.py
"""

import math

import numpy as np

from geomfreq import frenet, park, signals

np.set_printoptions(precision=4, suppress=True)

W_O = 100.0 * math.pi
t = np.array([0.0073])  # park takes (N,) times and (N, 3) rows; one instant is N = 1
v, dv, ddv = signals.eval_arrays(signals.make_scenario("E0"), t)

SYNC = (W_O, -math.pi / 2)  # w_dq, theta0: synchronous and d-aligned
for label, (w_dq, theta0) in (
    ("synchronous frame (w_dq = w_o, aligned)", SYNC),
    ("detuned frame (w_dq = w_o + 2 pi)", (W_O + 2 * math.pi, 0.0)),
    ("Clarke frame (w_dq = 0)", (0.0, 0.0)),
):
    vdq0, dvdq0, _ = park.to_dq0(t, v, dv, ddv, w_dq, theta0)
    rep = park.derivative_frame_check(vdq0, dvdq0, w_dq)
    vdq0, dvdq0 = vdq0[0], dvdq0[0]
    print(label)
    print(f"  v_dq0          = {vdq0}")
    print(f"  delta_omega    = {rep.delta_omega[0]:+.4f} rad/s")
    print(f"  rotating  dv   = {dvdq0}")
    print(f"  rotation  term = {np.cross((0.0, 0.0, w_dq), vdq0)}")
    print(f"  rho v          = {rep.rho[0] * vdq0}")
    print(f"  omega x v      = {np.cross(rep.omega_vec[0], vdq0)}")
    print(f"  sum rel. err   = {rep.sum_rel_err[0]:.3e}"
          f"   termwise equal: {rep.terms_equal[0]}")
    print()

print("rho, |omega|, xi are frame invariants (abc vs round trip):")
for sid, t in (("E5", 0.013), ("E8", 1.3)):
    t = np.array([t])
    rows = signals.eval_arrays(signals.make_scenario(sid), t)
    a = frenet.invariants_batch(*rows)
    b = frenet.invariants_batch(*park.from_dq0(t, *park.to_dq0(t, *rows, *SYNC), *SYNC))
    print(f"  {sid} t={t[0]}: rho {a.rho[0]:+.6f} / {b.rho[0]:+.6f}"
          f"   |omega| {a.omega_mag[0]:.4f} / {b.omega_mag[0]:.4f}"
          f"   xi {a.xi[0]:+.6f} / {b.xi[0]:+.6f}")
