"""Rotating-frame (dq0) transform and derivative-frame identities."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomfreq import frenet, park, signals
from geomfreq.errors import DegenerateInput, FloatOverflow, InvalidParameter
from geomfreq.geometry import MAX_ANGLE

from conftest import W_O

# a frame is (w_dq, theta0): the synchronous, d-aligned one and a detuned one
SYNC = (W_O, -math.pi / 2.0)
ASYNC = (0.7 * W_O, 0.3)


def _jet(sid, t):
    """(t, v, v', v'') of a preset at one time, as (1,) times and (1, 3) rows."""
    t = np.array([t])
    return (t, *signals.eval_arrays(signals.make_scenario(sid), t))


def _e0_jet(t):
    return _jet("E0", t)


def _to_dq0(j, w_dq, theta0=0.0):
    """(t, v_dq0, v_hat', v_hat'') of a jet (t, v, v', v'')."""
    return (j[0], *park.to_dq0(*j, w_dq, theta0))


# ------------------------------------------------------------ Park matrices

_ANGLES = np.random.default_rng(22).uniform(-100.0, 100.0, 200)


@pytest.mark.parametrize(
    "theta",
    [_ANGLES, np.array([MAX_ANGLE, -MAX_ANGLE, 0.0, -0.0]), np.float64(0.7), np.array(-2.1)],
    ids=["random", "edges", "scalar", "0-d"],
)
def test_park_matrix_inverts_inverse_park_matrix(theta):
    P, Q = park.park_matrix(theta), park.inverse_park_matrix(theta)
    assert P.shape == Q.shape == np.shape(theta) + (3, 3)
    assert P.flags.c_contiguous  # a strided P rounds differently in to_dq0's matmul
    # a few ulp, plus the rounding of theta + shift: the phases of a frame
    # angle near MAX_ANGLE are 120 degrees apart to within its spacing only
    tol = 8.0 * np.finfo(float).eps + np.spacing(np.abs(theta))[..., None, None]
    assert np.all(np.abs(P @ Q - np.eye(3)) <= tol)


# ---------------------------------------------------------------- to_dq0


def test_synchronous_balanced_is_constant():
    for t in (0.0, 0.0042, 0.017):
        _, vdq0, dvdq0, _ = _to_dq0(_e0_jet(t), *SYNC)
        np.testing.assert_allclose(vdq0, [[12.0, 0.0, 0.0]], atol=1e-9)
        np.testing.assert_allclose(dvdq0, 0.0, atol=1e-6)


def test_clarke_case_rotates_at_signal_frequency():
    for t in (0.0, 0.003):
        _, vdq0, dvdq0, _ = _to_dq0(_e0_jet(t), 0.0)
        rep = park.derivative_frame_check(vdq0, dvdq0, 0.0)
        assert rep.delta_omega[0] == pytest.approx(W_O, rel=1e-9)


def test_zero_input_zero_output():
    _, vdq0, dvdq0, ddvdq0 = _to_dq0((np.array([0.1]), *np.zeros((3, 1, 3))), *SYNC)
    for x in (vdq0, dvdq0, ddvdq0):
        np.testing.assert_array_equal(x, [[0, 0, 0]])


def test_round_trip_restores_jet():
    for sid, t in (("E2", 0.0137), ("E8", 0.91)):
        j = _jet(sid, t)
        for back, x in zip(park.from_dq0(*_to_dq0(j, *SYNC), *SYNC), j[1:]):
            np.testing.assert_allclose(back, x, atol=1e-9 * np.linalg.norm(x))


def test_rotating_derivatives_match_finite_differences():
    # central differences in t of the dq0 component functions check the
    # rotation term apart from the round trip, in a detuned frame
    h = 2.0**-24  # t + k*h stays exact for t a multiple of h
    for t in (0.25, 0.9, 1.6):
        t = round(t / h) * h
        lo, mid, hi = (_to_dq0(_jet("E8", t + k * h), *ASYNC) for k in (-1, 0, 1))
        _, _, dvdq0, ddvdq0 = mid
        fd1 = (hi[1] - lo[1]) / (2.0 * h)
        fd2 = (hi[2] - lo[2]) / (2.0 * h)
        np.testing.assert_allclose(dvdq0, fd1, atol=1e-7 * np.linalg.norm(dvdq0))
        np.testing.assert_allclose(ddvdq0, fd2, atol=1e-7 * np.linalg.norm(ddvdq0))


@pytest.mark.parametrize("frame", [SYNC, ASYNC], ids=["sync", "async"])
@pytest.mark.parametrize("sid", ["E0", "E5", "E8"])
def test_n_instants_equal_n_single_instants(sid, frame):
    # a row's bits do not depend on the rows beside it: N rows against
    # their (1, 3) slices, one instant each
    times = np.linspace(0.0, 1.9, 37)
    v, dv, ddv = signals.eval_arrays(signals.make_scenario(sid), times)
    dq = park.to_dq0(times, v, dv, ddv, *frame)
    back = park.from_dq0(times, *dq, *frame)
    rep = park.derivative_frame_check(*dq[:2], frame[0])
    for k in range(times.size):
        row = slice(k, k + 1)
        one = park.to_dq0(times[row], v[row], dv[row], ddv[row], *frame)
        assert len(one) == len(dq) == 3
        for x, xs in zip(one, dq):
            np.testing.assert_array_equal(x, xs[row])
        for x, xs in zip(park.from_dq0(times[row], *one, *frame), back):
            np.testing.assert_array_equal(x, xs[row])
        rep_one = park.derivative_frame_check(*one[:2], frame[0])
        for f in dataclasses.fields(rep):
            assert isinstance(getattr(rep_one, f.name), np.ndarray), f.name
            np.testing.assert_array_equal(
                getattr(rep_one, f.name), getattr(rep, f.name)[row], err_msg=f.name, strict=True
            )


# every function takes (N,) times and (N, 3) rows: one instant is N = 1,
# not a scalar time or a (3,) vector
_ONE = _jet("E5", 0.013)
_VECTOR = [x[0] for x in _ONE[1:]]


@pytest.mark.parametrize("call", [
    lambda: park.to_dq0(0.013, *_ONE[1:], *SYNC),
    lambda: park.from_dq0(0.013, *_ONE[1:], *SYNC),
    lambda: park.to_dq0(np.array([0.013, 0.014]), *_ONE[1:], *SYNC),
], ids=["scalar-to_dq0", "scalar-from_dq0", "two-times-one-row"])
def test_times_not_one_per_row_are_refused(call):
    with pytest.raises(InvalidParameter, match=r"\(N,\) times and \(N, 3\) rows"):
        call()


@pytest.mark.parametrize("call", [
    lambda: park.to_dq0(_ONE[0], *_VECTOR, *SYNC),
    lambda: park.from_dq0(_ONE[0], *_VECTOR, *SYNC),
    lambda: park.inertial_derivative(*_VECTOR[:2], W_O),
    lambda: park.derivative_frame_check(*_VECTOR[:2], W_O),
    lambda: park.derivative_frame_check(_ONE[1], _VECTOR[1], W_O),
], ids=["to_dq0", "from_dq0", "inertial_derivative", "derivative_frame_check", "mixed"])
def test_vector_is_refused(call):
    with pytest.raises(InvalidParameter, match=r"\(N, 3\) rows, got shapes .*\(3,\)"):
        call()


# -------------------------------------------------------- dq0 invariants


def test_synchronous_invariants_remark_single_phase_form():
    _, vdq0, dvdq0, _ = _to_dq0(_e0_jet(0.0073), *SYNC)
    rep = park.derivative_frame_check(vdq0, dvdq0, W_O)
    assert rep.rho[0] == pytest.approx(0.0, abs=1e-9)
    assert rep.delta_omega[0] == pytest.approx(0.0, abs=1e-6)
    np.testing.assert_allclose(rep.omega_vec, [[0.0, 0.0, W_O]], atol=1e-6)


def test_constant_dq_signal_is_at_frame_speed():
    w_dq = W_O + 2.0 * math.pi
    rep = park.derivative_frame_check([(9.0, 4.0, 0.0)], [(0.0, 0.0, 0.0)], w_dq)
    assert rep.delta_omega[0] == 0.0
    np.testing.assert_allclose(rep.omega_vec, [[0.0, 0.0, w_dq]], atol=1e-12)


def test_invariants_match_frenet_route(rng):
    # with v_o != 0 the full three-component omega expression must still
    # reproduce rho v + omega x v = inertial derivative
    for _ in range(50):
        vdq0, dvdq0 = rng.normal(scale=10.0, size=(2, 1, 3))
        rep = park.derivative_frame_check(vdq0, dvdq0, W_O)
        inertial = park.inertial_derivative(vdq0, dvdq0, W_O)
        lhs = rep.rho * vdq0 + np.cross(rep.omega_vec, vdq0)
        np.testing.assert_allclose(
            lhs, inertial, atol=1e-9 * max(np.linalg.norm(inertial), 1.0)
        )


# The amplitude-invariant transform scales the dq plane by sqrt(2/3) and
# the zero-sequence axis by 1/sqrt(3), so with v_o != 0 it is not a scaled
# rotation and does not keep rho and omega.  Stretching v_o by sqrt(2)
# makes it one (and commutes with the frame rotation about e_o).
_CONFORMAL = np.array([1.0, 1.0, math.sqrt(2.0)])


@pytest.mark.parametrize("frame", [SYNC, ASYNC], ids=["sync", "async"])
@pytest.mark.parametrize("sid", ["E0", "E5", "E8"])
def test_dq0_invariants_equal_abc_frenet(sid, frame):
    times = np.linspace(0.01, 1.9, 25)
    v, dv, ddv = signals.eval_arrays(signals.make_scenario(sid), times)
    ref = frenet.invariants_batch(v, dv, ddv)
    vdq0, dvdq0, _ = park.to_dq0(times, v, dv, ddv, *frame)
    rep = park.derivative_frame_check(vdq0 * _CONFORMAL, dvdq0 * _CONFORMAL, frame[0])
    tol = 1e-9 * ref.omega_mag
    assert np.all(np.abs(rep.rho - ref.rho) <= tol)
    assert np.all(np.abs(np.linalg.norm(rep.omega_vec, axis=1) - ref.omega_mag) <= tol)


def test_balanced_needs_zero_sequence_value_and_derivative():
    # on E8 at t = 0, v_o vanishes but v_o' does not: not balanced
    _, vdq0, dvdq0, _ = _to_dq0(_jet("E8", 0.0), *SYNC)
    assert abs(vdq0[0, 2]) <= 1e-9 * np.linalg.norm(vdq0)
    rep = park.derivative_frame_check(vdq0, dvdq0, W_O)
    assert not rep.balanced[0] and math.isnan(rep.delta_omega[0])
    assert math.isnan(rep.balanced_identity_err[0])
    # E0 is balanced at every instant, in any frame
    times = signals.sample_times(0.0, 0.1, 1e-4)
    jet = signals.eval_arrays(signals.make_scenario("E0"), times)
    for w_dq, theta0 in (SYNC, ASYNC):
        rep = park.derivative_frame_check(*park.to_dq0(times, *jet, w_dq, theta0)[:2], w_dq)
        assert rep.balanced.all()
        assert np.max(rep.balanced_identity_err) <= 1e-9


def test_invariants_degenerate_speed():
    with pytest.raises(DegenerateInput):
        park.derivative_frame_check([(0, 0, 0)], [(1, 0, 0)], W_O)


@pytest.mark.parametrize("scale", [1.4e154, 1e200])
def test_invariants_overflow_is_refused_without_a_warning(scale):
    """|v|^2 leaves float64 past |v| ~ 1.34e154: a FloatOverflow, as in
    ``analysis.analyze``, not NaN errors behind RuntimeWarnings."""
    with pytest.raises(FloatOverflow, match="dq0 invariants overflow float64 at 1 of 2"):
        park.derivative_frame_check(
            np.array([[1.0, 0.0, 0.0], [scale, 0.0, 0.0]]),
            np.array([[0.0, 1.0, 0.0], [0.0, 1e3, 0.0]]),
            1.0,
        )
    # |v'|^2 past float64 alone (v' parallel to v) leaves exact invariants: no refusal
    rep = park.derivative_frame_check([(1.0, 0.0, 0.0)], [(scale, 0.0, 0.0)], 0.0)
    assert rep.rho[0] == scale and rep.sum_rel_err[0] == 0.0 and rep.terms_equal[0]


# ------------------------------------------------ derivative frame check


def test_frame_check_synchronous_termwise_equal():
    _, vdq0, dvdq0, _ = _to_dq0(_e0_jet(0.011), *SYNC)
    rep = park.derivative_frame_check(vdq0, dvdq0, W_O)
    assert rep.sum_rel_err[0] <= 1e-9
    assert rep.terms_equal[0]
    assert rep.balanced_identity_err[0] <= 1e-9


def test_frame_check_clarke_derivative_is_rotating_derivative():
    _, vdq0, dvdq0, _ = _to_dq0(_e0_jet(0.004), 0.0)
    rep = park.derivative_frame_check(vdq0, dvdq0, 0.0)
    np.testing.assert_array_equal(park.inertial_derivative(vdq0, dvdq0, 0.0), dvdq0)
    assert rep.sum_rel_err[0] <= 1e-9


def test_frame_check_generic_sums_agree_terms_differ(rng):
    for _ in range(20):
        vdq0, dvdq0 = rng.normal(scale=5.0, size=(2, 1, 3))
        rep = park.derivative_frame_check(vdq0, dvdq0, W_O)
        assert rep.sum_rel_err[0] <= 1e-9
    # a frame spinning away from the signal cannot match termwise
    _, vdq0, dvdq0, _ = _to_dq0(_e0_jet(0.006), 0.5 * W_O)
    rep = park.derivative_frame_check(vdq0, dvdq0, 0.5 * W_O)
    assert not rep.terms_equal[0]


# --------------------------------------------------- frame invariance


@pytest.mark.parametrize("sid,t", [("E1", 0.0062), ("E5", 0.013), ("E8", 1.3)])
def test_geometric_invariants_are_frame_invariant(sid, t):
    j = _jet(sid, t)
    g_abc = frenet.invariants_batch(*j[1:])
    g_rt = frenet.invariants_batch(*park.from_dq0(*_to_dq0(j, *SYNC), *SYNC))
    assert g_rt.rho[0] == pytest.approx(g_abc.rho[0], rel=1e-9, abs=1e-9)
    assert g_rt.omega_mag[0] == pytest.approx(g_abc.omega_mag[0], rel=1e-9)
    assert g_rt.xi[0] == pytest.approx(g_abc.xi[0], rel=1e-9, abs=1e-9)


# ------------------------------------------------------ property: dq0 route


@settings(max_examples=60, deadline=None)
@given(
    sid=st.sampled_from([f"E{k}" for k in range(9)]),
    w_dq=st.floats(-1e4, 1e4),
    theta0=st.floats(-1e3, 1e3),
    times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_dq0_route_round_trips_and_bounds_the_frame_angle(sid, w_dq, theta0, times, sign):
    times = np.array(times)
    jet = signals.eval_arrays(signals.make_scenario(sid), times)
    dq = park.to_dq0(times, *jet, w_dq, theta0)
    for back, x in zip(park.from_dq0(times, *dq, w_dq, theta0), jet):
        err = np.linalg.norm(back - x, axis=-1)
        assert np.all(err <= 1e-9 * np.linalg.norm(x, axis=-1))
    rep = park.derivative_frame_check(*dq[:2], w_dq)
    assert np.all(rep.sum_rel_err <= park.MAX_SUM_REL_ERR)
    # theta0 puts the frame angle at the first instant 1e-12 relative (8.6e-3
    # rad) above or below the bound, far more than the rounding of w_dq t + theta0
    t = times[:1]
    for transform, rows in ((park.to_dq0, jet), (park.from_dq0, dq)):
        one = [x[:1] for x in rows]
        for factor, refused in ((1.0 + 1e-12, True), (1.0 - 1e-12, False)):
            edge = sign * MAX_ANGLE * factor - w_dq * t[0]
            if refused:
                with pytest.raises(InvalidParameter, match="geometry.MAX_ANGLE"):
                    transform(t, *one, w_dq, edge)
            else:
                transform(t, *one, w_dq, edge)


@pytest.mark.parametrize("transform", [park.to_dq0, park.from_dq0])
@pytest.mark.parametrize(
    "w_dq, theta0, angle",
    [(0.0, 1e17, "1e+17"), (0.0, math.nan, "inf"), (math.inf, 0.0, "inf")],
    ids=["past-bound", "nan-theta0", "inf-wdq"],
)
def test_both_transforms_refuse_a_frame_angle_alike(transform, w_dq, theta0, angle):
    # an infinite w_dq makes the angle inf * 0 = NaN at t = 0, read as inf
    t, rows = np.array([0.0, 1e-3]), np.array([[12.0, 0.0, 0.0], [0.0, 12.0, 0.0]])
    message = f"frame angle {angle} rad is past geometry.MAX_ANGLE = 2**33"
    with pytest.raises(InvalidParameter, match="^" + re.escape(message) + "$"):
        transform(t, rows, rows, rows, w_dq, theta0)
