"""Closed-form three-phase invariants against the generic Frenet route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomfreq import frenet, signals, threephase
from geomfreq.errors import DegenerateInput, InvalidParameter
from geomfreq.threephase import PhaseJet

from conftest import DRAWN_T1, OMEGA_POS, W_O, signal_models

TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def _stationary_jet(V=(12.0, 12.0, 12.0), t=0.0, sign=1.0):
    """A stationary set at one instant; sign -1 is the negative sequence."""
    theta0 = sign * np.array([0.0, -TWO_THIRDS_PI, TWO_THIRDS_PI])
    return PhaseJet(V=V, dV=np.zeros(3), ddV=np.zeros(3), theta=W_O * t + theta0,
                    dtheta=np.full(3, W_O), ddtheta=np.zeros(3))


def test_phasejet_rejects_negative_magnitude():
    with pytest.raises(InvalidParameter):
        PhaseJet(V=[12.0, -1.0, 12.0], dV=np.zeros(3), ddV=np.zeros(3),
                 theta=np.zeros(3), dtheta=np.zeros(3), ddtheta=np.zeros(3))


@pytest.mark.parametrize("phases", [2, 4])
def test_phasejet_needs_three_phases(phases):
    fields = dict(V=np.ones(3), dV=np.zeros(3), ddV=np.zeros(3), theta=np.zeros(3),
                  dtheta=np.full(3, W_O), ddtheta=np.zeros(3))
    for name in fields:
        bad = dict(fields, **{name: np.ones((5, phases))})
        with pytest.raises(InvalidParameter, match=name):
            PhaseJet(**bad)


def test_closed_form_balanced_matches_the_cartesian_omega():
    # omega = (v x v') / v^2, so this checks the closed-form |v| too
    cf = threephase.closed_form_invariants(_stationary_jet())
    b = frenet.invariants_batch(*signals.eval_arrays(signals.make_scenario("E0"), (0.0,)))
    np.testing.assert_allclose(cf.omega_vec, b.omega_vec[0], rtol=1e-12)


def test_closed_form_zero_magnitudes_degenerate():
    jet = PhaseJet(V=np.zeros(3), dV=np.zeros(3), ddV=np.zeros(3),
                   theta=0.1 * np.arange(3), dtheta=np.full(3, W_O), ddtheta=np.zeros(3))
    with pytest.raises(DegenerateInput):
        threephase.closed_form_invariants(jet)


def test_closed_form_positive_sequence():
    """(rho, omega, xi) = (0, (w_o/sqrt(3))(1, 1, 1), 0) whatever V, and
    omega flips sign for the negative sequence."""
    for sign in (1.0, -1.0):
        for V in (12.0, 24.0):
            cf = threephase.closed_form_invariants(_stationary_jet(V=(V, V, V), sign=sign))
            assert abs(cf.rho) <= 1e-9
            assert abs(cf.xi) <= 1e-9
            np.testing.assert_allclose(cf.omega_vec, [sign * OMEGA_POS] * 3, rtol=1e-9)


def test_closed_form_unbalanced_special_case():
    # with constant magnitudes and dtheta = w_o everywhere, rho reduces to
    # w_o * sum V_i^2 sin(2 theta_i) / (2 v^2)
    jet = _stationary_jet(V=(12.0, 8.0, 12.0), t=1.3e-3)
    cf = threephase.closed_form_invariants(jet)
    v2 = float(np.sum(jet.V**2 * np.sin(jet.theta) ** 2))
    expected = W_O * float(np.sum(jet.V**2 * np.sin(2.0 * jet.theta))) / (2.0 * v2)
    assert cf.rho == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "sid,t",
    [("E2", 2.5e-3), ("E1", 0.0), ("E4", 0.013), ("E5", 0.007), ("E8", 1.1)],
)
def test_closed_form_matches_generic_route(sid, t):
    model = signals.make_scenario(sid)
    cf = threephase.closed_form_invariants(signals.phase_jets(model, t))
    g = frenet.invariants_batch(*signals.eval_arrays(model, (t,)))
    rho, w, w_mag, xi = g.rho[0], g.omega_vec[0], g.omega_mag[0], g.xi[0]
    scale = max(abs(rho), w_mag)
    assert abs(cf.rho - rho) <= 1e-6 * scale
    np.testing.assert_allclose(cf.omega_vec, w, atol=1e-6 * w_mag)
    assert abs(cf.xi - xi) <= 1e-6 * max(abs(xi), 1.0)


# of |omega| for rho and omega, of max(|omega|, |xi|) for xi: the worst
# seen on 2300 models of 50 times each, from three seeds, is 3.7e-13
# (rho), 1.4e-13 (omega) and 4.6e-13 (xi), which reads 3.6e-9 over
# |omega| alone, on rows where |omega| is a few rad/s and |xi| large
DRAWN_REL = 1e-11


@settings(max_examples=60, deadline=None)
@given(signal_models(), st.lists(st.floats(0.0, DRAWN_T1), min_size=1, max_size=50))
def test_closed_form_matches_the_kernel_on_drawn_models(model, times):
    """Magnitudes with slope, swing and rate, and angles at 1-11 times
    50 Hz with modulation: the closed form's dV, ddV terms against the
    kernel on the same model's analytic rows."""
    cf = threephase.closed_form_invariants(signals.phase_jets(model, np.array(times)))
    g = frenet.invariants_batch(*signals.eval_arrays(model, times))
    assert not g.no_rotation.any()
    assert np.all(np.abs(cf.rho - g.rho) <= DRAWN_REL * g.omega_mag)
    assert np.all(np.linalg.norm(cf.omega_vec - g.omega_vec, axis=1) <= DRAWN_REL * g.omega_mag)
    assert np.all(np.abs(cf.xi - g.xi) <= DRAWN_REL * np.maximum(g.omega_mag, np.abs(g.xi)))


@pytest.mark.parametrize("sid", ["DC", "SINGLE_PHASE", "E0", "E3", "E5", "E8"])
def test_n_instants_equal_n_single_instants(sid):
    model = signals.make_scenario(sid)
    times = np.linspace(0.0, 1.9, 37)
    jet = signals.phase_jets(model, times)
    cf = threephase.closed_form_invariants(jet)
    for k, t in enumerate(times.tolist()):
        one = signals.phase_jets(model, t)
        for name, x in vars(one).items():
            assert x.shape == (3,)
            np.testing.assert_array_equal(x, getattr(jet, name)[k])
        cf_one = threephase.closed_form_invariants(one)
        assert np.ndim(cf_one.rho) == 0 and cf_one.rho == cf.rho[k]
        assert np.ndim(cf_one.xi) == 0 and cf_one.xi == cf.xi[k]
        np.testing.assert_array_equal(cf_one.omega_vec, cf.omega_vec[k])


def test_zero_sequence_rank_deficiency():
    """Three equal phases: v and v' both lie along (1, 1, 1), so they span
    no plane and neither route finds a rotation."""
    theta = W_O * 0.003
    jet = PhaseJet(V=np.full(3, 12.0), dV=np.zeros(3), ddV=np.zeros(3),
                   theta=np.full(3, theta), dtheta=np.full(3, W_O), ddtheta=np.zeros(3))
    cf = threephase.closed_form_invariants(jet)
    np.testing.assert_array_equal(cf.omega_vec, 0.0)
    assert cf.xi == 0.0
    v, dv, ddv = (
        np.full((1, 3), x)
        for x in (12.0 * math.sin(theta), 12.0 * W_O * math.cos(theta),
                  -12.0 * W_O**2 * math.sin(theta))
    )
    b = frenet.invariants_batch(v, dv, ddv)
    assert b.no_rotation.tolist() == [True] and b.degenerate.tolist() == [False]
    assert b.omega_mag.tolist() == [0.0] and b.xi.tolist() == [0.0]
