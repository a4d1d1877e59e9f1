"""Scenario generators: presets, analytic jets, sampling, phase jets."""

import math
import re

import numpy as np
import pytest

from geomfreq import frenet, numdiff, signals
from geomfreq.errors import FloatOverflow, InvalidParameter
from geomfreq.geometry import MAX_ANGLE
from geomfreq.series import TimeSeries
from geomfreq.threephase import PhaseJet

from conftest import W_O

TWO_THIRDS_PI = 2.0 * math.pi / 3.0


# ------------------------------------------------------------- presets


def test_preset_e0_parameters():
    model = signals.make_scenario("E0")
    for i, ch in enumerate(model.channels):
        (comp,) = ch
        assert comp.magnitude.offset == 12.0
        assert comp.angle.slope == W_O
    assert model.channels[1][0].angle.offset == -TWO_THIRDS_PI
    assert model.channels[2][0].angle.offset == TWO_THIRDS_PI


def test_preset_e4_harmonic_angles():
    model = signals.make_scenario("E4")
    harmonics = [ch[1] for ch in model.channels]
    for h in harmonics:
        assert h.angle.slope == 11 * W_O
        assert h.magnitude.offset == 0.5
    assert harmonics[1].angle.offset == pytest.approx(-2.7 * math.pi / 3.0)
    assert harmonics[2].angle.offset == pytest.approx(2.7 * math.pi / 3.0)


def test_preset_e8_modulation():
    model = signals.make_scenario("E8")
    mods = [ch[0].angle for ch in model.channels]
    assert mods[0].amplitude == math.pi
    assert mods[1].amplitude == math.pi
    assert mods[2].amplitude == pytest.approx(1.1 * math.pi)
    for m in mods:
        assert m.rate == pytest.approx(0.4 * math.pi)


def test_unknown_scenario():
    with pytest.raises(InvalidParameter):
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
    with pytest.raises(InvalidParameter, match="vdc"):
        signals.dc_model(vdc=math.inf)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, pytest.param(10**400, id="int-past-float64")])
@pytest.mark.parametrize(
    "name, build",
    [("vdc", signals.dc_model),
     ("V", signals.single_phase_model),
     ("V", lambda x: signals.three_phase_model(V=(12.0, x, 12.0))),
     ("harmonic V", lambda x: signals.three_phase_model(harmonic=(11, (0.5, 0.5, x), (0.0,) * 3)))],
    ids=["dc", "single-phase", "three-phase", "harmonic"],
)
def test_a_bad_magnitude_is_refused_when_the_model_is_built(name, build, bad):
    # a NaN, inf or past-float64 magnitude is a bad parameter, not a later
    # non-finite sample, FloatOverflow or OverflowError
    with pytest.raises(InvalidParameter, match=f"^{name} must be non-negative and finite, got {bad}$"):
        build(bad)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-past-float64")])
def test_a_non_finite_harmonic_order_is_a_bad_parameter(h):
    # int(h) would raise ValueError on a NaN and OverflowError on an inf,
    # and h * w_o OverflowError on an int past float64's range
    with pytest.raises(InvalidParameter, match=f"^harmonic order must be finite, got {h}$"):
        signals.three_phase_model(harmonic=(h, (0.5,) * 3, (0.0,) * 3))


def test_a_model_is_three_channels():
    comp = signals.Component(signals.Profile(1.0), signals.Profile(0.0, W_O))
    for channels in ((), ((comp,), (comp,)), ((comp,),) * 4):
        with pytest.raises(InvalidParameter, match="^model must have exactly three channels$"):
            signals.SignalModel(channels)


# ---------------------------------------------------------- eval_arrays


def test_eval_jet_e0_at_zero():
    v = signals.eval_arrays(signals.make_scenario("E0"), (0.0,))[0]
    np.testing.assert_allclose(
        v[0], [0.0, -10.3923, 10.3923], atol=1e-4
    )


def test_eval_jet_dc():
    v, dv, ddv = signals.eval_arrays(signals.make_scenario("DC"), (0.0, 0.3, 2.0))
    np.testing.assert_array_equal(v, [[5.0, 0.0, 0.0]] * 3)
    np.testing.assert_array_equal(dv, np.zeros((3, 3)))
    np.testing.assert_array_equal(ddv, np.zeros((3, 3)))


def test_eval_jet_harmonic_sum_at_zero():
    v = signals.eval_arrays(signals.make_scenario("E3"), (0.0,))[0]
    # 12 sin 0 + 0.5 sin 0 = 0
    assert v[0, 0] == pytest.approx(0.0, abs=1e-14)


# --------------------------------------------------------------- sample


def test_sample_e0_constant_norm():
    series = signals.sample(signals.make_scenario("E0"), 0.0, 0.04, 1e-4)
    assert len(series) == 401
    norms = np.linalg.norm(series.values, axis=1)
    np.testing.assert_allclose(norms, 12.0 * math.sqrt(1.5), atol=1e-9)


def test_sample_empty_range():
    with pytest.raises(InvalidParameter):
        signals.sample(signals.make_scenario("E0"), 0.1, 0.1, 1e-4)
    with pytest.raises(InvalidParameter):
        signals.sample(signals.make_scenario("E0"), 0.0, 0.1, -1e-4)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf, pytest.param(10**400, id="int-past-float64")])
@pytest.mark.parametrize(
    "grid",
    [lambda dt: signals.sample_times(0.0, 1.0, dt),
     lambda dt: TimeSeries(np.arange(4.0), dt, np.zeros((4, 3)))],
    ids=["sample_times", "TimeSeries"],
)
def test_a_bad_step_is_refused_alike(grid, dt):
    with pytest.raises(InvalidParameter, match=f"^dt must be positive and finite, got {dt}$"):
        grid(dt)


def test_sample_times_grid_cap(monkeypatch):
    # one sample over the cap is refused before the grid is allocated
    with pytest.raises(InvalidParameter, match="MAX_SAMPLES"):
        signals.sample_times(0.0, float(signals.MAX_SAMPLES), 1.0)
    monkeypatch.setattr(signals, "MAX_SAMPLES", 11)
    assert signals.sample_times(0.0, 10.0, 1.0).size == 11
    with pytest.raises(InvalidParameter, match="MAX_SAMPLES"):
        signals.sample_times(0.0, 11.0, 1.0)


def test_sample_times_last_point_within_float64():
    # 1.5 steps round to 2: the last point, 2e308, would overflow
    with pytest.raises(InvalidParameter, match="bad range"):
        signals.sample_times(0.0, 1.5e308, 1e308)
    assert signals.sample_times(0.0, 1.4e308, 1e308).tolist() == [0.0, 1e308]


@pytest.mark.parametrize(
    "model, t, v_overflows",
    [
        # a magnitude 1 + 1e308 t that is past float64 at t = 3 s
        (signals.SignalModel(((signals.Component(signals.Profile(1.0, 1e308), signals.Profile(0.0, W_O)),),
                              (), ())), 3.0, True),
        # an angle within the bound whose rate w_o V makes v' overflow
        (signals.three_phase_model(V=(1e200,) * 3, w_o=1e110), 1e-102, True),
        # the angle stays within the bound, but the rate 2 pi 1e200 rad/s
        # squares past float64 in v'' and in |z'|^2
        (signals.single_phase_model(1.0, 2.0 * math.pi * 1e200), [0.0, 1e-198], True),
        # v is finite, but the phasor jet divides by |z|^2 = 1e400
        (signals.three_phase_model(V=(1e200,) * 3), 0.01, False),
        (signals.dc_model(1e200), 0.01, False),
    ],
    ids=["magnitude-past-float64", "rate-past-float64", "rate-squared-past-float64",
         "50Hz-at-1e200", "dc-at-1e200"],
)
def test_the_kernel_refuses_a_jet_past_float64_without_a_warning(model, t, v_overflows):
    # pytest turns a RuntimeWarning into an error: each refusal is check_overflow's
    with pytest.raises(FloatOverflow, match="^the signal's derivatives overflow float64$"):
        signals.phase_jets(model, t)
    if v_overflows:
        with pytest.raises(FloatOverflow, match="^the signal's derivatives overflow float64$"):
            signals.eval_arrays(model, t)
    else:
        assert all(np.isfinite(x).all() for x in signals.eval_arrays(model, t))


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
        _, dv, ddv = (x[0] for x in signals.eval_arrays(model, (t,)))
        stencil = np.arange(-2, 3)  # t + k*h, k = -2..2
        vs1 = signals.eval_arrays(model, t + stencil * h1)[0]
        vs2 = signals.eval_arrays(model, t + stencil * h2)[0]
        fd1 = (vs1[0] - 8 * vs1[1] + 8 * vs1[3] - vs1[4]) / (12 * h1)
        fd2 = (
            -vs2[0] + 16 * vs2[1] - 30 * vs2[2] + 16 * vs2[3] - vs2[4]
        ) / (12 * h2**2)
        assert np.linalg.norm(dv - fd1) <= 1e-5 * np.linalg.norm(dv)
        assert np.linalg.norm(ddv - fd2) <= 1e-5 * np.linalg.norm(ddv)


@pytest.mark.parametrize(
    "profile",
    [
        signals.Profile(0.3, W_O, 0.8, 40.0 * math.pi),  # 50 Hz angle, 0.8 rad at 20 Hz
        signals.Profile(12.0, 0.0, 1.5, 6.0 * math.pi),  # 12 V magnitude, 1.5 V at 3 Hz
    ],
    ids=["angle", "magnitude"],
)
def test_profile_derivatives_match_the_stencil(profile, rng):
    # power-of-two steps with the times on the coarse grid keep t + k*h
    # exact; the f'' step is coarser than check_signals' because the
    # angle reaches 630 rad here, and its rounding is divided by h^2
    h1, h2 = 2.0**-23, 2.0**-14
    times = np.round(rng.uniform(-2.0, 2.0, 50) / h2) * h2
    assert times.min() < 0.0 < times.max()
    _, df, ddf = profile.eval(times)
    stencil = np.arange(-2, 3)[:, None]  # t + k*h, k = -2..2
    fd1 = numdiff.stencil_derivatives(profile.eval(times + stencil * h1)[0], h1)[0][0]
    fd2 = numdiff.stencil_derivatives(profile.eval(times + stencil * h2)[0], h2)[1][0]
    assert np.linalg.norm(df - fd1) <= 1e-5 * np.linalg.norm(df)
    assert np.linalg.norm(ddf - fd2) <= 1e-5 * np.linalg.norm(ddf)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("slope, t", [(0.0, 0.0), (W_O, 3.7), (-11.0 * W_O, -250.0)])
def test_signal_angle_bound(sign, slope, t):
    # the angle at t sits 1e-12 relative (8.6e-3 rad) above or below the
    # bound, far more than the rounding of offset + slope t
    for factor, refused in ((1.0 + 1e-12, True), (1.0 - 1e-12, False)):
        angle = signals.Profile(sign * MAX_ANGLE * factor - slope * t, slope)
        model = signals.SignalModel(((signals.Component(signals.Profile(1.0), angle),), (), ()))
        for evaluate in (signals.eval_arrays, signals.phase_jets):
            if refused:
                with pytest.raises(InvalidParameter, match="geometry.MAX_ANGLE"):
                    evaluate(model, (t,))
            else:
                evaluate(model, (t,))


def test_balanced_modulation_null_rho_and_xi():
    model = signals.make_scenario("E6")
    b = frenet.invariants_batch(*signals.eval_arrays(model, np.linspace(0.0, 5.0, 101)))
    assert np.all(np.abs(b.rho) <= 1e-8)
    assert np.all(np.abs(b.xi) <= 1e-8)


@pytest.mark.parametrize("sid", ["E0", "E1", "E2"])
def test_stationary_scenarios_planar(sid):
    model = signals.make_scenario(sid)
    b = frenet.invariants_batch(*signals.eval_arrays(model, np.linspace(0.0, 0.1, 101)))
    assert np.all(np.abs(b.xi) <= 1e-8)


# ----------------------------------------------------------- phase jets


@pytest.mark.parametrize("sid", ["E0", "E5", "E7"])
def test_phase_jets_reproduce_channel_values(sid):
    model = signals.make_scenario(sid)
    for t in (0.0031, 0.0177, 0.5):
        p = signals.phase_jets(model, t)
        v, dv, _ = (x[0] for x in signals.eval_arrays(model, (t,)))
        s, c = np.sin(p.theta), np.cos(p.theta)
        assert p.V * s == pytest.approx(v, rel=1e-10, abs=1e-10)
        assert p.dV * s + p.V * p.dtheta * c == pytest.approx(dv, rel=1e-9, abs=1e-8)


# ------------------------------------------ the kernel vs a per-component loop
#
# The signal kernel evaluates every component of a model at once; these
# loops evaluate one component at a time, as the kernel's predecessor
# did, and are its oracle: the same formulas in the same order, so the
# kernel must give the same bits.  Both take a scalar time as one entry
# of an array (a 0-d x**2 is libm pow, which can round unlike an
# array's square).


def _loop_component(comp, t):
    """(m, m', m'', theta, theta', theta'') of one component at t."""
    with np.errstate(over="ignore", invalid="ignore"):
        angle = comp.angle.eval(t)
    worst = np.abs(angle[0]).max(initial=0.0)
    if not worst <= MAX_ANGLE:
        worst = np.inf if np.isnan(worst) else worst  # a NaN angle is reported as inf
        raise InvalidParameter(f"signal angle {worst:.6g} rad is past geometry.MAX_ANGLE = 2**33")
    return comp.magnitude.eval(t) + angle


def _loop_channel(components, t):
    f = df = ddf = 0.0
    for comp in components:
        m, dm, ddm, th, dth, ddth = _loop_component(comp, t)
        s, c = np.sin(th), np.cos(th)
        f += m * s
        df += dm * s + m * dth * c
        ddf += (ddm - m * dth**2) * s + (2.0 * dm * dth + m * ddth) * c
    return f, df, ddf


def loop_eval_arrays(model, times):
    times = np.ravel(np.asarray(times, dtype=np.float64))
    out = np.empty((3, times.size, 3))
    for c, ch in enumerate(model.channels):
        for d, x in enumerate(_loop_channel(ch, times)):
            out[d, :, c] = x  # a scalar 0.0 for a channel without components
    return out[0], out[1], out[2]


def _loop_phase_jet(components, t):
    shape = np.shape(t)
    t = np.ravel(np.asarray(t, dtype=np.float64))
    z = dz = ddz = np.zeros(t.shape, dtype=np.complex128)
    for comp in components:
        m, dm, ddm, th, dth, ddth = _loop_component(comp, t)
        e = np.exp(1j * th)
        z = z + m * e
        dz = dz + (dm + 1j * m * dth) * e
        ddz = ddz + (ddm + 2j * dm * dth + (1j * ddth - dth**2) * m) * e
    V = np.abs(z)
    live = V > signals.EPS_ENVELOPE
    V = np.where(live, V, 1.0)
    zc = z.conjugate()
    dV = (zc * dz).real / V
    dtheta = (zc * dz).imag / V**2
    ddV = ((np.abs(dz) ** 2 + (zc * ddz).real) - dV**2) / V
    ddtheta = (zc * ddz).imag / V**2 - 2.0 * (dV / V) * dtheta
    jet = (V, dV, ddV, np.angle(z), dtheta, ddtheta)
    return tuple(np.where(live, x, 0.0).reshape(shape) for x in jet)


def loop_phase_jets(model, t):
    channels = (_loop_phase_jet(ch, t) for ch in model.channels)
    return PhaseJet(*(np.stack(x, axis=-1) for x in zip(*channels)))


def _assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("sid", list(signals._PRESETS))
@pytest.mark.parametrize(
    "times, rows",
    [
        (0.0123, None),
        ((-0.37,), None),
        # 23 times over slices of 7 rows: three full slices and one of 2
        (np.concatenate([[0.0, -0.0], np.linspace(-0.31, 2.47, 21)]), 7),
    ],
    ids=["scalar", "one", "slices"],
)
def test_kernel_matches_the_component_loop(sid, times, rows, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(signals, "EVAL_ROWS", rows)
    model = signals.make_scenario(sid)
    _assert_same_bits(signals.eval_arrays(model, times), loop_eval_arrays(model, times))
    _assert_same_bits(
        vars(signals.phase_jets(model, times)).values(),
        vars(loop_phase_jets(model, times)).values(),
    )


def test_nan_angle_is_reported_as_inf():
    # a rate that overflowed to inf makes the angle inf * 0 = NaN at t = 0
    comp = signals.Component(signals.Profile(1.0), signals.Profile(0.0, math.inf))
    model = signals.SignalModel(((comp,), (), ()))
    for evaluate in (signals.eval_arrays, signals.phase_jets, loop_eval_arrays, loop_phase_jets):
        with pytest.raises(InvalidParameter, match="signal angle inf rad is past"):
            evaluate(model, (0.0, 1.0))


@pytest.mark.parametrize("rows", [None, 2])
def test_angle_refusal_names_the_first_component(rows, monkeypatch):
    # both angles are past the bound at every time, the second further;
    # the first is named with its worst angle over all times, 2**34 at
    # t = 2, which slices of 2 rows reach only after the first slice
    # past the bound
    if rows is not None:
        monkeypatch.setattr(signals, "EVAL_ROWS", rows)
    first = signals.Component(signals.Profile(1.0), signals.Profile(1.5 * MAX_ANGLE, 0.25 * MAX_ANGLE))
    second = signals.Component(signals.Profile(1.0), signals.Profile(3.0 * MAX_ANGLE))
    model = signals.SignalModel(((first, second), (), ()))
    message = re.escape(f"signal angle {2.0 * MAX_ANGLE:.6g} rad is past")
    for evaluate in (signals.eval_arrays, signals.phase_jets, loop_eval_arrays, loop_phase_jets):
        with pytest.raises(InvalidParameter, match=message):
            evaluate(model, (0.0, 0.5, 1.5, 2.0))


# ------------------------------------------------ a sequence of models


def _joined(per_model):
    """Field k of each model's result, as (N, 3) rows, joined model-major."""
    return [np.concatenate([np.reshape(x, (-1, 3)) for x in field]) for field in zip(*per_model)]


@pytest.mark.parametrize(
    "times, rows",
    [
        (0.0123, None),
        (np.concatenate([[0.0, -0.0], np.linspace(-0.31, 2.47, 21)]), 7),
    ],
    ids=["scalar", "slices"],
)
def test_a_sequence_is_its_models_joined(times, rows, monkeypatch):
    """Every preset, DC and SINGLE_PHASE with their channels of no
    component among them, in one call: the rows of the per-model calls
    and of the component loop, model-major, bit for bit."""
    if rows is not None:
        monkeypatch.setattr(signals, "EVAL_ROWS", rows)
    models = [signals.make_scenario(sid) for sid in signals._PRESETS]
    assert len(models) == 11
    got = signals.eval_arrays(models, times)
    _assert_same_bits(got, _joined(signals.eval_arrays(m, times) for m in models))
    _assert_same_bits(got, _joined(loop_eval_arrays(m, times) for m in models))
    got = vars(signals.phase_jets(models, times)).values()
    _assert_same_bits(got, _joined(vars(signals.phase_jets(m, times)).values() for m in models))
    _assert_same_bits(got, _joined(vars(loop_phase_jets(m, times)).values() for m in models))


def test_a_sequence_refuses_its_model_past_the_angle_bound():
    far = signals.three_phase_model(theta0=(0.0, 0.0, 3.0 * MAX_ANGLE))
    times = (0.0, 0.5)
    with pytest.raises(InvalidParameter) as alone:
        signals.eval_arrays(far, times)
    models = [signals.make_scenario("E0"), far, signals.make_scenario("E7")]
    for evaluate in (signals.eval_arrays, signals.phase_jets):
        with pytest.raises(InvalidParameter, match=f"^{re.escape(str(alone.value))}$"):
            evaluate(models, times)


def test_an_empty_sequence_is_refused():
    for evaluate in (signals.eval_arrays, signals.phase_jets):
        with pytest.raises(InvalidParameter, match="no signal model"):
            evaluate([], (0.0,))
