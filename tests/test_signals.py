"""Scenario generators: presets, analytic jets, sampling, phase jets."""

import math

import numpy as np
import pytest

from geomfreq import frenet, signals
from geomfreq.errors import InvalidParameter, InvalidRange, UnknownScenario

from conftest import W_O

TWO_THIRDS_PI = 2.0 * math.pi / 3.0


# ------------------------------------------------------------- presets


def test_preset_e0_parameters():
    model = signals.make_scenario("E0")
    assert model.w_o == W_O
    for i, ch in enumerate(model.channels):
        (comp,) = ch
        assert comp.magnitude.offset == 12.0
        assert comp.angle.slope == W_O
    assert model.channels[1][0].angle.intercept == -TWO_THIRDS_PI
    assert model.channels[2][0].angle.intercept == TWO_THIRDS_PI


def test_preset_e4_harmonic_angles():
    model = signals.make_scenario("E4")
    harmonics = [ch[1] for ch in model.channels]
    for h in harmonics:
        assert h.angle.slope == 11 * W_O
        assert h.magnitude.offset == 0.5
    assert harmonics[1].angle.intercept == pytest.approx(-2.7 * math.pi / 3.0)
    assert harmonics[2].angle.intercept == pytest.approx(2.7 * math.pi / 3.0)


def test_preset_e8_modulation():
    model = signals.make_scenario("E8")
    mods = [ch[0].angle for ch in model.channels]
    assert mods[0].mod_amplitude == math.pi
    assert mods[1].mod_amplitude == math.pi
    assert mods[2].mod_amplitude == pytest.approx(1.1 * math.pi)
    for m in mods:
        assert m.mod_rate == pytest.approx(0.4 * math.pi)


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        signals.make_scenario("E9")


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        signals.three_phase_model(V=(-1.0, 12.0, 12.0))
    with pytest.raises(InvalidParameter):
        signals.three_phase_model(
            harmonic=(1, (0.5, 0.5, 0.5), (0.0, 0.0, 0.0))
        )
    with pytest.raises(InvalidParameter):
        signals.dc_model(vdc=-2.0)
    with pytest.raises(InvalidParameter):
        signals.make_scenario("E0", bogus=1.0)


# ------------------------------------------------------------- eval_jet


def test_eval_jet_e0_at_zero():
    j = signals.eval_jet(signals.make_scenario("E0"), 0.0)
    np.testing.assert_allclose(
        j.v, [0.0, -10.3923, 10.3923], atol=1e-4
    )


def test_eval_jet_dc():
    model = signals.make_scenario("DC")
    for t in (0.0, 0.3, 2.0):
        j = signals.eval_jet(model, t)
        np.testing.assert_array_equal(j.v, [5.0, 0.0, 0.0])
        np.testing.assert_array_equal(j.dv, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(j.ddv, [0.0, 0.0, 0.0])


def test_eval_jet_harmonic_sum_at_zero():
    j = signals.eval_jet(signals.make_scenario("E3"), 0.0)
    # 12 sin 0 + 0.5 sin 0 = 0
    assert j.v[0] == pytest.approx(0.0, abs=1e-14)


# --------------------------------------------------------------- sample


def test_sample_e0_constant_norm():
    series = signals.sample(signals.make_scenario("E0"), 0.0, 0.04, 1e-4)
    assert len(series) == 401
    norms = np.linalg.norm(series.values, axis=1)
    np.testing.assert_allclose(norms, 12.0 * math.sqrt(1.5), atol=1e-9)


def test_sample_empty_range():
    with pytest.raises(InvalidRange):
        signals.sample(signals.make_scenario("E0"), 0.1, 0.1, 1e-4)
    with pytest.raises(InvalidRange):
        signals.sample(signals.make_scenario("E0"), 0.0, 0.1, -1e-4)


def test_sample_times_grid_cap(monkeypatch):
    # one sample over the cap is refused before the grid is allocated
    with pytest.raises(InvalidRange, match="MAX_SAMPLES"):
        signals.sample_times(0.0, float(signals.MAX_SAMPLES), 1.0)
    monkeypatch.setattr(signals, "MAX_SAMPLES", 11)
    assert signals.sample_times(0.0, 10.0, 1.0).size == 11
    with pytest.raises(InvalidRange, match="MAX_SAMPLES"):
        signals.sample_times(0.0, 11.0, 1.0)


def test_sample_long_window_finite():
    series = signals.sample(signals.make_scenario("E6"), 0.0, 5.0, 1e-3)
    assert len(series) == 5001
    assert np.all(np.isfinite(series.values))


# ------------------------------------------- analytic derivative checks


@pytest.mark.parametrize("sid", ["E1", "E4", "E6", "E8"])
def test_derivatives_match_finite_differences(sid, rng):
    model = signals.make_scenario(sid)
    # steps chosen as powers of two with t on the coarse grid, so the
    # finite-difference noise floor stays well below the tolerance
    h1, h2 = 2.0**-23, 2.0**-19
    for _ in range(25):
        t = round(float(rng.uniform(0.01, 2.0)) / h2) * h2
        j = signals.eval_jet(model, t)
        vs1 = np.array(
            [signals.eval_jet(model, t + k * h1).v for k in (-2, -1, 0, 1, 2)]
        )
        vs2 = np.array(
            [signals.eval_jet(model, t + k * h2).v for k in (-2, -1, 0, 1, 2)]
        )
        fd1 = (vs1[0] - 8 * vs1[1] + 8 * vs1[3] - vs1[4]) / (12 * h1)
        fd2 = (
            -vs2[0] + 16 * vs2[1] - 30 * vs2[2] + 16 * vs2[3] - vs2[4]
        ) / (12 * h2**2)
        assert np.linalg.norm(j.dv - fd1) <= 1e-5 * np.linalg.norm(j.dv)
        assert np.linalg.norm(j.ddv - fd2) <= 1e-5 * np.linalg.norm(j.ddv)


def test_balanced_modulation_null_rho_and_xi():
    model = signals.make_scenario("E6")
    for t in np.linspace(0.0, 5.0, 101):
        g = frenet.invariants(signals.eval_jet(model, float(t)))
        assert abs(g.rho) <= 1e-8
        assert abs(g.xi) <= 1e-8


@pytest.mark.parametrize("sid", ["E0", "E1", "E2"])
def test_stationary_scenarios_planar(sid):
    model = signals.make_scenario(sid)
    for t in np.linspace(0.0, 0.1, 101):
        g = frenet.invariants(signals.eval_jet(model, float(t)))
        assert abs(g.xi) <= 1e-8


# ----------------------------------------------------------- phase jets


@pytest.mark.parametrize("sid", ["E0", "E5", "E7"])
def test_phase_jets_reproduce_channel_values(sid):
    model = signals.make_scenario(sid)
    for t in (0.0031, 0.0177, 0.5):
        jets = signals.phase_jets(model, t)
        j = signals.eval_jet(model, t)
        for c in range(3):
            p = jets[c]
            assert p.V * math.sin(p.theta) == pytest.approx(
                j.v[c], rel=1e-10, abs=1e-10
            )
            dv = p.dV * math.sin(p.theta) + p.V * p.dtheta * math.cos(p.theta)
            assert dv == pytest.approx(j.dv[c], rel=1e-9, abs=1e-8)
