"""Rotating-frame (dq0) transform and derivative-frame identities."""

import math

import numpy as np
import pytest

from geomfreq import frenet, park, signals
from geomfreq.errors import DegenerateSpeed
from geomfreq.frenet import Jet2
from geomfreq.park import DqoJet, ParkConfig

from conftest import W_O

SYNC = ParkConfig(w_dq=W_O, theta0=-math.pi / 2.0)


def _e0_jet(t):
    return signals.eval_jet(signals.make_scenario("E0"), t)


# ---------------------------------------------------------------- to_dq0


def test_synchronous_balanced_is_constant():
    for t in (0.0, 0.0042, 0.017):
        dq = park.to_dq0(_e0_jet(t), SYNC)
        np.testing.assert_allclose(dq.vdq0, [12.0, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(dq.dvdq0, 0.0, atol=1e-6)


def test_clarke_case_rotates_at_signal_frequency():
    cfg = ParkConfig(w_dq=0.0)
    for t in (0.0, 0.003):
        dq = park.to_dq0(_e0_jet(t), cfg)
        g = park.dq0_invariants(dq, cfg)
        assert g.delta_omega == pytest.approx(W_O, rel=1e-9)


def test_zero_input_zero_output():
    j = Jet2(0.1, (0, 0, 0), (0, 0, 0), (0, 0, 0))
    dq = park.to_dq0(j, SYNC)
    np.testing.assert_array_equal(dq.vdq0, [0, 0, 0])
    np.testing.assert_array_equal(dq.dvdq0, [0, 0, 0])


def test_round_trip_restores_jet():
    for sid, t in (("E2", 0.0137), ("E8", 0.91)):
        j = signals.eval_jet(signals.make_scenario(sid), t)
        back = park.from_dq0(park.to_dq0(j, SYNC), SYNC)
        np.testing.assert_allclose(back.v, j.v, atol=1e-9 * np.linalg.norm(j.v))
        np.testing.assert_allclose(back.dv, j.dv, atol=1e-9 * np.linalg.norm(j.dv))
        np.testing.assert_allclose(
            back.ddv, j.ddv, atol=1e-9 * np.linalg.norm(j.ddv)
        )


def test_rotating_derivatives_match_finite_differences():
    # central differences in t of the dq0 component functions check the
    # rotation term apart from the round trip, in a detuned frame
    model = signals.make_scenario("E8")
    cfg = ParkConfig(w_dq=0.7 * W_O, theta0=0.3)
    h = 2.0**-24  # t + k*h stays exact for t a multiple of h
    for t in (0.25, 0.9, 1.6):
        t = round(t / h) * h
        lo, mid, hi = (
            park.to_dq0(signals.eval_jet(model, t + k * h), cfg) for k in (-1, 0, 1)
        )
        fd1 = (hi.vdq0 - lo.vdq0) / (2.0 * h)
        fd2 = (hi.dvdq0 - lo.dvdq0) / (2.0 * h)
        np.testing.assert_allclose(mid.dvdq0, fd1, atol=1e-7 * np.linalg.norm(mid.dvdq0))
        np.testing.assert_allclose(mid.ddvdq0, fd2, atol=1e-7 * np.linalg.norm(mid.ddvdq0))


# -------------------------------------------------------- dq0 invariants


def test_synchronous_invariants_remark_single_phase_form():
    dq = park.to_dq0(_e0_jet(0.0073), SYNC)
    g = park.dq0_invariants(dq, SYNC)
    assert g.rho == pytest.approx(0.0, abs=1e-9)
    assert g.delta_omega == pytest.approx(0.0, abs=1e-6)
    np.testing.assert_allclose(g.omega_vec, [0.0, 0.0, W_O], atol=1e-6)


def test_constant_dq_signal_is_at_frame_speed():
    cfg = ParkConfig(w_dq=W_O + 2.0 * math.pi)
    j = DqoJet(t=0.2, vdq0=(9.0, 4.0, 0.0), dvdq0=(0.0, 0.0, 0.0))
    g = park.dq0_invariants(j, cfg)
    assert g.delta_omega == 0.0
    np.testing.assert_allclose(g.omega_vec, [0.0, 0.0, cfg.w_dq], atol=1e-12)


def test_invariants_match_frenet_route(rng):
    # with v_o != 0 the full three-component omega expression must still
    # reproduce rho v + omega x v = inertial derivative
    for _ in range(50):
        vdq0, dvdq0 = rng.normal(scale=10.0, size=(2, 3))
        j = DqoJet(t=0.0, vdq0=vdq0, dvdq0=dvdq0)
        g = park.dq0_invariants(j, SYNC)
        inertial = park.inertial_derivative(j, SYNC)
        lhs = g.rho * j.vdq0 + np.cross(g.omega_vec, j.vdq0)
        np.testing.assert_allclose(
            lhs, inertial, atol=1e-9 * max(np.linalg.norm(inertial), 1.0)
        )


# The amplitude-invariant transform scales the dq plane by sqrt(2/3) and
# the zero-sequence axis by 1/sqrt(3), so with v_o != 0 it is not a scaled
# rotation and does not keep rho and omega.  Stretching v_o by sqrt(2)
# makes it one (and commutes with the frame rotation about e_o).
_CONFORMAL = np.array([1.0, 1.0, math.sqrt(2.0)])


@pytest.mark.parametrize(
    "cfg", [SYNC, ParkConfig(w_dq=0.7 * W_O, theta0=0.3)], ids=["sync", "async"]
)
@pytest.mark.parametrize("sid", ["E0", "E5", "E8"])
def test_dq0_invariants_equal_abc_frenet(sid, cfg):
    model = signals.make_scenario(sid)
    for t in np.linspace(0.01, 1.9, 25):
        j = signals.eval_jet(model, float(t))
        ref = frenet.invariants(j)
        dq = park.to_dq0(j, cfg)
        g = park.dq0_invariants(
            DqoJet(t=dq.t, vdq0=dq.vdq0 * _CONFORMAL, dvdq0=dq.dvdq0 * _CONFORMAL),
            cfg,
        )
        tol = 1e-9 * ref.omega_mag
        assert abs(g.rho - ref.rho) <= tol
        assert abs(np.linalg.norm(g.omega_vec) - ref.omega_mag) <= tol


def test_invariants_degenerate_speed():
    j = DqoJet(t=0.0, vdq0=(0, 0, 0), dvdq0=(1, 0, 0))
    with pytest.raises(DegenerateSpeed):
        park.dq0_invariants(j, SYNC)


# ------------------------------------------------ derivative frame check


def test_frame_check_synchronous_termwise_equal():
    dq = park.to_dq0(_e0_jet(0.011), SYNC)
    rep = park.derivative_frame_check(dq, SYNC)
    assert rep.sum_rel_err <= 1e-9
    assert rep.terms_equal
    assert rep.balanced_identity_err <= 1e-9


def test_frame_check_clarke_derivative_is_rotating_derivative():
    cfg = ParkConfig(w_dq=0.0)
    dq = park.to_dq0(_e0_jet(0.004), cfg)
    rep = park.derivative_frame_check(dq, cfg)
    np.testing.assert_array_equal(rep.rotation_term, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(rep.inertial_dv, rep.rotating_dv)
    assert rep.sum_rel_err <= 1e-9


def test_frame_check_generic_sums_agree_terms_differ(rng):
    cfg = ParkConfig(w_dq=W_O)
    for _ in range(20):
        vdq0, dvdq0 = rng.normal(scale=5.0, size=(2, 3))
        rep = park.derivative_frame_check(
            DqoJet(t=0.0, vdq0=vdq0, dvdq0=dvdq0), cfg
        )
        assert rep.sum_rel_err <= 1e-9
    # a frame spinning away from the signal cannot match termwise
    dq = park.to_dq0(_e0_jet(0.006), ParkConfig(w_dq=0.5 * W_O))
    rep = park.derivative_frame_check(dq, ParkConfig(w_dq=0.5 * W_O))
    assert not rep.terms_equal


# --------------------------------------------------- frame invariance


@pytest.mark.parametrize("sid,t", [("E1", 0.0062), ("E5", 0.013), ("E8", 1.3)])
def test_geometric_invariants_are_frame_invariant(sid, t):
    j = signals.eval_jet(signals.make_scenario(sid), t)
    g_abc = frenet.invariants(j)
    back = park.from_dq0(park.to_dq0(j, SYNC), SYNC)
    g_rt = frenet.invariants(back)
    assert g_rt.rho == pytest.approx(g_abc.rho, rel=1e-9, abs=1e-9)
    assert g_rt.omega_mag == pytest.approx(g_abc.omega_mag, rel=1e-9)
    assert g_rt.xi == pytest.approx(g_abc.xi, rel=1e-9, abs=1e-9)
