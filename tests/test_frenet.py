"""Geometric invariants, frame, and RoCoF decomposition on exact rows."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy_reference
import reference
from geomfreq import frenet, signals
from geomfreq.errors import DegenerateInput
from geomfreq.geometry import rowdot, rownorm

from conftest import OMEGA_POS, W_O, ddv_expansion, scenario_arrays

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
# one random instant as three (1, 3) rows v, v', v''
jets = st.tuples(*(coord,) * 9).map(lambda c: np.reshape(c, (3, 1, 3)))


def _rows(scenario_id, *times):
    """v, v', v'' of a preset at the given times, as (N, 3) arrays."""
    return signals.eval_arrays(signals.make_scenario(scenario_id), times)


def _single_phase(*times):
    return signals.eval_arrays(signals.single_phase_model(), times)


def _const(v, dv=(0, 0, 0), ddv=(0, 0, 0)):
    """One instant given by hand, as (1, 3) rows."""
    return np.array([v], float), np.array([dv], float), np.array([ddv], float)


def _velocity_residual(v, dv, b):
    """v' - (rho v + omega x v) on every row."""
    return dv - (b.rho[:, None] * v + np.cross(b.omega_vec, v))


def _antisym(v, b):
    """The torsional RoCoF part tau (v x omega)."""
    return b.tau[:, None] * np.cross(v, b.omega_vec)


# ---------------------------------------------------------------- speed


def test_speed_single_axis():
    assert frenet.invariants_batch(*_const((12, 0, 0))).v_mag[0] == 12.0


def test_speed_balanced_three_phase():
    v, dv, ddv = _rows("E0", 0.0)
    np.testing.assert_allclose(v[0], [0.0, -10.392304845, 10.392304845])
    v_mag = frenet.invariants_batch(v, dv, ddv).v_mag[0]
    assert v_mag == pytest.approx(14.6969, abs=1e-4)
    # |v| of a balanced set is V * sqrt(3/2) at every instant
    assert v_mag == pytest.approx(12.0 * math.sqrt(1.5), rel=1e-12)


def test_speed_zero_vector():
    rows = _const((0, 0, 0), (1, 0, 0))
    assert rownorm(rows[0])[0] == 0.0
    assert frenet.invariants_batch(*rows).degenerate[0]


# ----------------------------------------------------------- invariants


def test_invariants_dc_not_rotating():
    b = frenet.invariants_batch(*_const((5, 0, 0)))
    assert b.v_mag[0] == 5.0
    assert b.rho[0] == 0.0
    np.testing.assert_array_equal(b.omega_vec[0], [0, 0, 0])
    assert b.omega_mag[0] == b.kappa[0] == b.tau[0] == b.xi[0] == 0.0
    assert b.no_rotation[0] and not b.degenerate[0]


def test_invariants_single_phase_plane_curve():
    v, dv, ddv = _single_phase(0.0)
    np.testing.assert_allclose(v[0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(dv[0], [0.0, 2.0 * math.pi, 0.0], atol=1e-14)
    np.testing.assert_allclose(
        ddv[0], [-4.0 * math.pi**2, 0.0, 0.0], atol=1e-13
    )
    b = frenet.invariants_batch(v, dv, ddv)
    assert b.rho[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(
        b.omega_vec[0], [0.0, 0.0, 2.0 * math.pi], atol=1e-12
    )
    assert b.xi[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.0173, 0.05])
def test_invariants_positive_sequence(t):
    b = frenet.invariants_batch(*_rows("E0", t))
    assert abs(b.rho[0]) <= 1e-9
    assert abs(b.xi[0]) <= 1e-9
    np.testing.assert_allclose(
        b.omega_vec[0], [OMEGA_POS] * 3, rtol=1e-6
    )
    assert b.omega_mag[0] == pytest.approx(W_O, rel=1e-9)
    assert b.kappa[0] == pytest.approx(W_O / b.v_mag[0], rel=1e-12)


def test_invariants_negative_sequence():
    model = signals.make_scenario(
        "E0", theta0=(0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0)
    )
    b = frenet.invariants_batch(*signals.eval_arrays(model, (0.0, 0.007, 0.021)))
    for k in range(3):
        np.testing.assert_allclose(b.omega_vec[k], [-OMEGA_POS] * 3, rtol=1e-6)
        assert abs(b.rho[k]) <= 1e-9


def test_invariants_degenerate_speed():
    with pytest.raises(DegenerateInput):
        frenet.invariants((0, 0, 0), (1, 0, 0), (0, 0, 0))
    b = frenet.invariants_batch(*_const((0, 0, 0), (1, 0, 0)))
    assert b.degenerate[0] and math.isnan(b.rho[0])


# ---------------------------------------------------------------- frame


def test_frame_single_phase_is_canonical_basis():
    T, N, B = frenet.frame(*_single_phase(0.0))
    np.testing.assert_allclose(T[0], [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(N[0], [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(B[0], [0, 0, 1], atol=1e-12)


def test_frame_balanced_binormal():
    B = frenet.frame(*_rows("E0", 0.0, 0.004, 0.019))[2]
    for k in range(3):
        np.testing.assert_allclose(
            B[k], np.ones(3) / math.sqrt(3.0), rtol=1e-9
        )


def test_frame_orthonormal_across_scenarios():
    for sid in ("E2", "E5", "E8"):
        T, N, B = frenet.frame(*scenario_arrays(sid, 0.0, 0.04, 1e-3)[1:])
        for u in (T, N, B):
            np.testing.assert_allclose(rownorm(u), 1.0, rtol=0, atol=1e-10)
        assert np.all(np.abs(rowdot(T, N)) <= 1e-10)
        assert np.all(np.abs(rowdot(T, B)) <= 1e-10)
        assert np.all(np.abs(rowdot(N, B)) <= 1e-10)
        np.testing.assert_allclose(np.cross(T, N), B, atol=1e-10)


def test_frame_dc_degenerate_rotation():
    # no rotation: the normal and binormal, so the triad, are undefined
    for u in frenet.frame(*_const((5, 0, 0))):
        assert np.all(np.isnan(u))


# --------------------------------------------------- velocity identity


def test_velocity_identity_dc_exact_zero():
    v, dv, ddv = _const((5, 0, 0))
    res = _velocity_residual(v, dv, frenet.invariants_batch(v, dv, ddv))
    np.testing.assert_array_equal(res[0], [0, 0, 0])


def test_velocity_identity_harmonic_jet():
    v, dv, ddv = _rows("E5", 0.01)
    res = _velocity_residual(v, dv, frenet.invariants_batch(v, dv, ddv))
    assert rownorm(res)[0] <= 1e-9 * rownorm(dv)[0]


@pytest.mark.parametrize("sid", ["E0", "E1", "E2", "E3", "E4", "E6", "E7", "E8"])
def test_velocity_identity_all_scenarios(sid):
    _, v, dv, ddv = scenario_arrays(sid, 0.0, 0.05, 2e-3)
    res = _velocity_residual(v, dv, frenet.invariants_batch(v, dv, ddv))
    assert np.all(rownorm(res) <= 1e-9 * rownorm(dv))


# ------------------------------------------------------------ rho_prime


def test_rho_prime_stationary_cases():
    assert ddv_expansion(*_rows("E0", 0.013)).rho_prime[0] == pytest.approx(0.0, abs=1e-8)
    assert ddv_expansion(*_const((5, 0, 0))).rho_prime[0] == 0.0


@pytest.mark.parametrize("sid,t", [("E6", 0.3), ("E8", 0.3), ("E8", 1.7)])
def test_rho_prime_matches_finite_difference(sid, t):
    h = 1e-6
    lo, mid, hi = (_rows(sid, t + k * h) for k in (-1, 0, 1))
    rho_lo, rho_hi = (frenet.invariants_batch(*rows).rho[0] for rows in (lo, hi))
    fd = (rho_hi - rho_lo) / (2.0 * h)
    analytic = ddv_expansion(*mid).rho_prime[0]
    assert abs(analytic - fd) <= 1e-4 * max(abs(fd), 1e-3)


# ------------------------------------------------------------ omega_dot


def test_omega_dot_stationary_zero():
    assert rownorm(frenet.invariants_batch(*_rows("E0", 0.004)).omega_dot)[0] <= 1e-6
    assert rownorm(frenet.invariants_batch(*_single_phase(0.1)).omega_dot)[0] <= 1e-9


def test_omega_dot_matches_finite_difference():
    t, h = 1.0, 1e-6
    lo, mid, hi = (frenet.invariants_batch(*_rows("E7", t + k * h)) for k in (-1, 0, 1))
    fd = (hi.omega_vec[0] - lo.omega_vec[0]) / (2.0 * h)
    analytic = mid.omega_dot[0]
    assert np.linalg.norm(analytic - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-3)


# ---------------------------------------------------------------- rocof


def test_rocof_balanced_modulation_is_conventional():
    # equal per-phase modulation keeps the curve planar: no torsional part
    v, dv, ddv = _rows("E6", 0.5)
    b = frenet.invariants_batch(v, dv, ddv)
    wd, w = rownorm(b.omega_dot)[0], b.omega_mag[0]
    assert rownorm(_antisym(v, b))[0] <= 1e-8 * max(wd, w)
    assert wd == pytest.approx(abs(b.eta[0]) * w, rel=1e-8, abs=1e-8)


def test_rocof_stationary_zero():
    b = frenet.invariants_batch(*_rows("E0", 0.02))
    assert rownorm(b.omega_dot)[0] <= 1e-6
    assert abs(b.eta[0]) <= 1e-8


def test_rocof_torsional_case():
    v, dv, ddv = _rows("E8", 1.2)
    b = frenet.invariants_batch(v, dv, ddv)
    antisym = _antisym(v, b)
    residual = b.omega_dot - b.eta[:, None] * b.omega_vec - antisym
    assert rownorm(residual)[0] <= 1e-8 * rownorm(b.omega_dot)[0]
    assert rownorm(antisym)[0] > 0.0


def test_rocof_degenerate_rotation():
    b = frenet.invariants_batch(*_const((5, 0, 0)))
    assert b.no_rotation[0]
    assert math.isnan(b.eta[0]) and np.all(np.isnan(b.omega_dot[0]))


# -------------------------------------- second derivative decomposition


def test_decomposition_balanced_stationary():
    d = ddv_expansion(*_rows("E0", 0.0))
    a2_closed = d.rho_prime + d.b.rho**2 - d.b.omega_mag**2
    assert d.a2[0] == pytest.approx(-W_O**2, rel=1e-9)
    assert abs(d.b2[0]) <= 1e-6 * W_O**2
    assert abs(d.c2[0]) <= 1e-6 * W_O
    assert a2_closed[0] == pytest.approx(d.a2[0], rel=1e-9)


def test_decomposition_single_phase():
    d = ddv_expansion(*_single_phase(0.0))
    assert d.a2[0] == pytest.approx(-4.0 * math.pi**2, rel=1e-9)
    assert abs(d.b2[0]) <= 1e-9
    assert abs(d.c2[0]) <= 1e-9


@pytest.mark.parametrize("sid", ["E4", "E5", "E7", "E8"])
def test_decomposition_reconstructs_ddv(sid):
    _, v, dv, ddv = scenario_arrays(sid, 0.0, 0.05, 2.5e-3)
    d = ddv_expansion(v, dv, ddv)
    a2_closed = d.rho_prime + d.b.rho**2 - d.b.omega_mag**2
    assert np.all(rownorm(d.residual) <= 1e-9 * rownorm(ddv))
    np.testing.assert_allclose(d.a2, a2_closed, rtol=1e-8, atol=1e-6)


def test_decomposition_matches_plus_sign_candidate():
    # pick a sample with a clearly nonzero eta so the candidates differ;
    # the projection gives b2 = 2 rho + eta, not 2 rho - eta
    d = ddv_expansion(*_rows("E8", 0.3))
    rho, eta, b2 = d.b.rho[0], d.b.eta[0], d.b2[0]
    assert abs(eta) > 1e-3
    plus, minus = 2.0 * rho + eta, 2.0 * rho - eta
    scale = max(abs(b2), abs(minus), abs(plus), 1e-30)
    assert abs(b2 - plus) <= 1e-6 * scale
    assert not abs(b2 - minus) <= 1e-6 * scale
    assert d.c2[0] == pytest.approx(d.b.v_mag[0] * d.b.xi[0], rel=1e-6, abs=1e-9)


# ------------------------------------------------- identity properties


@given(jets)
def test_appendix_identities_random_jets(j):
    v, dv, ddv = j
    v_mag = rownorm(v)[0]
    assume(v_mag > 1e-3)
    b = frenet.invariants_batch(v, dv, ddv)
    assume(not b.no_rotation[0])
    w, w_mag = b.omega_vec, b.omega_mag[0]
    # keep v and v' away from near-parallel, where n is pure cancellation
    assume(w_mag * v_mag > 1e-2 * max(rownorm(dv)[0], 1e-9))
    n = dv - b.rho[:, None] * v
    n_mag = rownorm(n)[0]
    scale = w_mag * v_mag
    assert abs(n_mag - scale) <= 1e-9 * scale
    np.testing.assert_allclose(
        np.cross(n, w) / w_mag**2, v, rtol=0, atol=1e-9 * v_mag
    )
    np.testing.assert_allclose(
        np.cross(v, n) / v_mag**2,
        w,
        rtol=0,
        atol=1e-9 * w_mag,
    )
    assert abs(rowdot(v, n)[0]) <= 1e-9 * v_mag * n_mag
    assert abs(rowdot(v, w)[0]) <= 1e-9 * scale
    assert abs(rowdot(n, w)[0]) <= 1e-9 * n_mag * w_mag


@given(jets)
def test_reconstruction_random_jets(j):
    v, dv, ddv = j
    assume(rownorm(v)[0] > 1e-3)
    # the identity holds for any omega, however slow
    res = _velocity_residual(v, dv, frenet.invariants_batch(v, dv, ddv))
    assert rownorm(res)[0] <= 1e-9 * max(rownorm(dv)[0], 1.0)


def _parallel(j):
    """The jet with v' = c v: omega is rounding noise, a no_rotation row
    whose omega the kernel still reports."""
    v, dv, ddv = j
    return v, dv[:, :1] * v, ddv


# "default" draws any jet; "eps_w=0" draws jets that rotate by no more
# than rounding, the DC case below the EPS_W mask
@pytest.mark.parametrize("shape", [_parallel, lambda j: j], ids=["eps_w=0", "default"])
@given(j=jets)
def test_identity_residuals_are_the_test_side_restatements(shape, j):
    v, dv, ddv = shape(j)
    b = frenet.invariants_batch(v, dv, ddv)
    recon, rocof = frenet.identity_residuals(v, dv, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want_recon = rownorm(_velocity_residual(v, dv, b)) / np.maximum(rownorm(dv), frenet.EPS_V)
        want_rocof = rownorm(b.omega_dot - b.eta[:, None] * b.omega_vec - _antisym(v, b)) / (
            np.maximum(rownorm(b.omega_dot), b.omega_mag)
        )
    np.testing.assert_array_equal(recon, want_recon)
    np.testing.assert_array_equal(rocof, want_rocof)


def test_identity_residuals_are_nan_exactly_where_undefined():
    e0 = _rows("E0", 0.0, 0.013)
    rows = [_const((0, 0, 0), (1, 2, 3)), _const((5, 0, 0)), _const((1, 2, 3), (2, 4, 6)), e0]
    v, dv, ddv = (np.concatenate(x) for x in zip(*rows))
    b = frenet.invariants_batch(v, dv, ddv)
    np.testing.assert_array_equal(b.degenerate, [True, False, False, False, False])
    np.testing.assert_array_equal(b.no_rotation, [False, True, True, False, False])
    recon, rocof = frenet.identity_residuals(v, dv, b)
    np.testing.assert_array_equal(np.isnan(recon), b.degenerate)
    np.testing.assert_array_equal(np.isnan(rocof), b.degenerate | b.no_rotation)
    assert np.all(recon[~b.degenerate] <= 1e-12)
    assert np.all(rocof[3:] <= 1e-8)


@pytest.mark.parametrize("w", [0.5e-9, 1e-9])
def test_slow_rotation_keeps_omega_and_drops_torsion(w):
    # 0 < |omega| <= EPS_W: a no_rotation row, yet omega = v x v'/|v|^2
    v, dv, ddv = _const((2, 0, 0), (0.6, 2 * w, 0), (1, 2, 3))
    b = frenet.invariants_batch(v, dv, ddv)
    g = reference.invariants(v[0], dv[0], ddv[0])
    assert b.no_rotation[0] and not g.rotating
    assert 0.0 < b.omega_mag[0] <= frenet.EPS_W
    np.testing.assert_array_equal(b.omega_vec[0], g.omega)
    assert b.omega_mag[0] == g.omega_mag and b.kappa[0] == g.kappa
    assert b.tau[0] == b.xi[0] == 0.0
    assert math.isnan(b.eta[0]) and np.all(np.isnan(b.omega_dot[0]))


def test_xi_zero_without_rotation():
    b = frenet.invariants_batch(*_const((3, 4, 0), (3, 4, 0), (1, 1, 1)))
    assert b.no_rotation[0]
    assert b.xi[0] == 0.0


# ------------------------------------------- invariants against numpy

# components m * 10^e, |m| <= 1, |e| <= 150: |v|^2 stays finite, while
# |v x v'|^2 and v . (v' x v'') overflow or underflow on some draws
component = st.builds(
    lambda m, e: m * 10.0**e,
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=-150, max_value=150),
)
vector = st.tuples(component, component, component).map(np.array)


@st.composite
def instants(draw):
    """v, v', v'' with, on some draws, v' parallel to v or |v| near EPS_V."""
    v, dv, ddv = draw(vector), draw(vector), draw(vector)
    kind = draw(st.sampled_from(("general", "parallel", "near EPS_V")))
    if kind == "parallel":
        dv = draw(component) * v
    elif kind == "near EPS_V":
        unit = v / max(np.max(np.abs(v)), 1e-300)
        v = unit * draw(st.floats(min_value=0.0, max_value=2.0 * frenet.EPS_V))
    return v, dv, ddv


def _outcome(invariants, v, dv, ddv):
    """Every field of the result as raw bytes, or the exception raised."""
    try:
        with np.errstate(all="ignore"):
            g = invariants(v, dv, ddv)
    except DegenerateInput as exc:
        return "DegenerateInput", str(exc)
    return tuple((type(x), np.asarray(x).tobytes()) for x in g)


@settings(max_examples=500)
@given(instants())
def test_invariants_is_the_numpy_body_bit_for_bit(jet):
    assert _outcome(frenet.invariants, *jet) == _outcome(numpy_reference.invariants, *jet)


def test_invariants_is_the_numpy_body_on_random_rows(rng):
    # full-precision mantissas, where an inner product rounds: one scale
    # 10^e per row, |e| <= 150, every 50th row with v' parallel to v
    n = 5000
    rows = rng.normal(size=(n, 3, 3)) * 10.0 ** rng.integers(-150, 151, size=(n, 1, 1))
    rows[::50, 1] = rows[::50, 0] * rng.normal(size=(n // 50, 1))
    for v, dv, ddv in rows:
        assert _outcome(frenet.invariants, v, dv, ddv) == _outcome(
            numpy_reference.invariants, v, dv, ddv
        )


@given(st.tuples(*(st.floats(allow_nan=False),) * 6))
def test_cross_is_np_cross_bit_for_bit(c):
    # full float range and infinities: products overflow to inf and
    # inf - inf gives NaN, in the same places as np.cross
    a, b = np.array(c[:3]), np.array(c[3:])
    with np.errstate(all="ignore"):
        assert frenet._cross(a, b).tobytes() == np.cross(a, b).tobytes()
