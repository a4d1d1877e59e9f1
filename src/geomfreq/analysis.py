"""The analysis table of ``geomfreq analyze``: one row per sample, one
column per invariant, computed as column arrays.  A row is degenerate or
without rotation by the thresholds ``frenet.EPS_V`` and ``frenet.EPS_W``;
the table writes 0.0 for omega and kappa on a row without rotation,
where the kernel reports their rounding residue."""

import numpy as np

from . import frenet
from .errors import DegenerateInput, FloatOverflow

COLUMNS = (
    "t",
    "v",
    "rho",
    "w1",
    "w2",
    "w3",
    "w",
    "xi",
    "kappa",
    "tau",
    "eta",
    "rocof1",
    "rocof2",
    "rocof3",
    "rotation_defined",
)


def analyze(t, v, dv, ddv):
    """Analysis columns of N samples given as (N, 3) derivative arrays.

    Returns (columns, degenerate_speed_count): one float array per
    name in COLUMNS, NaN where a cell is undefined (every cell but t on
    a degenerate-speed row; eta and RoCoF on a row without rotation).
    On a row without rotation w1, w2, w3, w, xi, kappa and tau are 0.0,
    and ``rotation_defined`` holds 0.0 there and 1.0 elsewhere.  Raises
    DegenerateInput when every sample is degenerate, and FloatOverflow
    when the invariants of a sample that is not degenerate overflow
    float64.
    """
    t = np.asarray(t, dtype=np.float64)
    b = frenet.invariants_batch(v, dv, ddv)
    degenerate = int(np.count_nonzero(b.degenerate))
    if degenerate and degenerate == b.degenerate.size:
        raise DegenerateInput("every sample is degenerate")
    if b.overflow.any():
        rows = np.flatnonzero(b.overflow)
        raise FloatOverflow(
            f"the invariants overflow float64 at {rows.size} of {t.size} samples "
            f"(first at t = {float(t[rows[0]])!r})"
        )
    for col in (b.omega_vec, b.omega_mag, b.kappa):
        col[b.no_rotation] = 0.0
    rotation = np.where(b.no_rotation, 0.0, 1.0)
    rotation[b.degenerate] = np.nan
    columns = (
        t,
        b.v_mag,
        b.rho,
        *b.omega_vec.T,
        b.omega_mag,
        b.xi,
        b.kappa,
        b.tau,
        b.eta,
        *b.omega_dot.T,
        rotation,
    )
    return columns, degenerate
