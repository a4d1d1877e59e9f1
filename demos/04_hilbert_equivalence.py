"""Instantaneous frequency as a geometric quantity.

Embedding a scalar signal together with its Hilbert transform as a
plane curve (u, u_hat, 0) and computing the azimuthal frequency of
that curve reproduces the classical instantaneous frequency
phi' = (u_hat' u - u' u_hat) / (u^2 + u_hat^2) -- the two expressions
are the same arithmetic, so they agree to rounding even for signals
that are not narrowband.

Run:  python3 demos/04_hilbert_equivalence.py
"""

import math

import numpy as np

from geomfreq import hilbert

dt = 1e-4
t = dt * np.arange(4000)  # 0.4 s: integer number of 50 Hz periods

print("pure 50 Hz tone:")
u = np.cos(2.0 * math.pi * 50.0 * t)
report = hilbert.geometric_equivalence(hilbert.analytic_embed(t, dt, u))
n = report.omega_mag.size
mid = slice(n // 4, 3 * n // 4)
print(f"  mean |omega| mid-window = {report.omega_mag[mid].mean():.6f} rad/s"
      f"   (100 pi = {100 * math.pi:.6f})")
print(f"  max |omega_z - phi'| / |phi'|   = {report.max_rel_dev:.3e}")
print(f"  max |xi| (planarity)            = {report.max_abs_xi:.3e}")

print("\namplitude-modulated tone (radial frequency appears):")
u = (1.0 + 0.1 * np.sin(2.0 * math.pi * 5.0 * t)) * np.cos(
    2.0 * math.pi * 50.0 * t
)
report = hilbert.geometric_equivalence(hilbert.analytic_embed(t, dt, u))
print(f"  max |rho| mid-window            = {np.max(np.abs(report.rho[mid])):.4f} 1/s")
print(f"  max |omega_z - phi'| / |phi'|   = {report.max_rel_dev:.3e}")

print("\nchirp 50 -> 54 Hz over the window:")
u = np.cos(2.0 * math.pi * (50.0 * t + 5.0 * t**2))
report = hilbert.geometric_equivalence(hilbert.analytic_embed(t, dt, u))
for k in np.linspace(n // 4, 3 * n // 4, 5, dtype=int):
    tk = report.times[k]
    print(f"  t = {tk:6.3f}  |omega| = {report.omega_mag[k]:9.4f}"
          f"   analytic {2 * math.pi * (50 + 10 * tk):9.4f} rad/s")
