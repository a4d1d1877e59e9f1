"""Metamorphic properties of ``frenet.invariants_batch``.

Each test transforms the rows v, v', v'' of a preset curve in a way
whose effect on the invariants follows from their definitions, and
checks the kernel's rows on the transformed curve against the mapped
rows of the original:

    rotation R        omega -> R omega, omega' -> R omega'; scalars kept
    reflection M      omega -> -M omega, omega' -> -M omega'; tau, xi flip
    time reversal     v' -> -v': rho, omega, tau, xi, eta flip; omega' kept
    time scaling a    v' -> a v', v'' -> a^2 v'': rates by a, omega' by a^2
    amplitude c       v -> c v: rates kept, kappa and tau by 1/c

The rows are E5 (harmonic, non-planar) and E8 (frequency modulated,
unbalanced), where the curve always rotates, so no row is degenerate.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from geomfreq import frenet, signals

REL = 1e-11  # of each row's scale (see _assert_maps); the worst seen is 4e-13
ROWS = 16
DT = 1e-3


@st.composite
def curves(draw):
    """v, v', v'' of E5 or E8 at ROWS times from a drawn start."""
    sid = draw(st.sampled_from(("E5", "E8")))
    t0 = draw(st.floats(min_value=0.0, max_value=2.0))
    return signals.eval_arrays(signals.make_scenario(sid), t0 + DT * np.arange(ROWS))


@st.composite
def rotations(draw):
    """A proper rotation matrix from a drawn unit quaternion."""
    q = np.array(draw(st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4)))
    n = np.linalg.norm(q)
    assume(n > 0.1)
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@st.composite
def reflections(draw):
    """The Householder reflection I - 2 n n^T across a drawn plane."""
    n = np.array(draw(st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3)))
    norm = np.linalg.norm(n)
    assume(norm > 0.1)
    n = n / norm
    return np.eye(3) - 2.0 * np.outer(n, n)


# 10^e for e in [-6, 6].  An amplitude of 1e-12 would put every row under
# the absolute EPS_V = 1e-9 V and make it degenerate, so amplitudes down
# to 1e-12 wait for a degeneracy cut-off relative to the input's scale.
scales = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)


def _assert_maps(b, want):
    """b has no degenerate, non-rotating or overflowing row, and each field
    in ``want`` within REL of the row's scale taken from ``want``: |omega|
    for rho, omega, xi and eta, |omega|/|v| for kappa and tau, and
    |omega|^2 for omega'.  A per-cell relative bound cannot work: the
    torsion of a nearly planar row is small against its rounding."""
    assert not (b.degenerate.any() or b.no_rotation.any() or b.overflow.any())
    w = np.linalg.norm(want["omega_vec"], axis=1)
    scale = {"kappa": w / want["v_mag"], "tau": w / want["v_mag"], "omega_dot": w**2}
    for name, x in want.items():
        err = np.abs(getattr(b, name) - x)
        err = err.max(axis=1) if err.ndim == 2 else err
        bound = want["v_mag"] if name == "v_mag" else scale.get(name, w)
        assert np.all(err <= REL * bound), name


def _fields(b, **maps):
    """Every compared field of b, with ``maps`` applied by name."""
    names = ("v_mag", "rho", "omega_vec", "kappa", "tau", "xi", "eta", "omega_dot")
    return {n: maps[n](getattr(b, n)) if n in maps else getattr(b, n) for n in names}


@given(curves(), rotations())
def test_rotation_turns_omega_and_keeps_the_scalars(curve, R):
    b = frenet.invariants_batch(*curve)
    turned = frenet.invariants_batch(*(x @ R.T for x in curve))
    turn = {n: lambda w: w @ R.T for n in ("omega_vec", "omega_dot")}
    _assert_maps(turned, _fields(b, **turn))


@given(curves(), reflections())
def test_reflection_flips_omega_and_xi(curve, M):
    b = frenet.invariants_batch(*curve)
    mirrored = frenet.invariants_batch(*(x @ M.T for x in curve))
    turn = {n: lambda w: -w @ M.T for n in ("omega_vec", "omega_dot")}
    _assert_maps(mirrored, _fields(b, tau=np.negative, xi=np.negative, **turn))


@given(curves())
def test_time_reversal_flips_the_rates_exactly(curve):
    v, dv, ddv = curve
    b = frenet.invariants_batch(v, dv, ddv)
    r = frenet.invariants_batch(v, -dv, ddv)
    assert not (b.degenerate.any() or b.no_rotation.any() or b.overflow.any())
    for name in ("rho", "omega_vec", "tau", "xi", "eta"):
        np.testing.assert_array_equal(getattr(r, name), -getattr(b, name), err_msg=name)
    for name in ("v_mag", "omega_mag", "kappa", "omega_dot"):
        np.testing.assert_array_equal(getattr(r, name), getattr(b, name), err_msg=name)


@given(curves(), scales)
def test_time_scaling_scales_the_rates(curve, a):
    v, dv, ddv = curve
    b = frenet.invariants_batch(v, dv, ddv)
    fast = frenet.invariants_batch(v, a * dv, a * a * ddv)
    rates = {n: lambda x: a * x for n in ("rho", "omega_vec", "kappa", "tau", "xi", "eta")}
    _assert_maps(fast, _fields(b, omega_dot=lambda x: a * a * x, **rates))


@given(curves(), scales)
def test_amplitude_scaling_keeps_the_rates(curve, c):
    b = frenet.invariants_batch(*curve)
    scaled = frenet.invariants_batch(*(c * x for x in curve))
    per_c = {n: lambda x: x / c for n in ("kappa", "tau")}
    _assert_maps(scaled, _fields(b, v_mag=lambda x: c * x, **per_c))
