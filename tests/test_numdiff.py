"""Stencil differentiation, smoothing filter, zero-sequence removal."""

import math

import numpy as np
import pytest

import numpy_reference
from geomfreq import frenet, numdiff, signals
from geomfreq.errors import FloatOverflow, InvalidParameter
from geomfreq.series import TimeSeries

from conftest import W_O


def _series(values, dt=1e-3):
    values = np.asarray(values, dtype=float)
    return TimeSeries(dt * np.arange(len(values)), dt, values)


# ------------------------------------------------- differentiate_arrays


def test_polynomials_are_exact():
    t = 1e-3 * np.arange(20)
    quartic = 2.0 - t + 3.0 * t**2 - 0.5 * t**3 + 4.0 * t**4
    ramp = 5.0 * t
    const = np.full_like(t, 7.0)
    series = _series(np.column_stack([quartic, ramp, const]))
    _, _, dv, ddv = numdiff.differentiate_arrays(series)
    for k in range(dv.shape[0]):
        tk = t[k + numdiff.TRIM]
        d1 = -1.0 + 6.0 * tk - 1.5 * tk**2 + 16.0 * tk**3
        d2 = 6.0 - 3.0 * tk + 48.0 * tk**2
        assert dv[k, 0] == pytest.approx(d1, rel=1e-9, abs=1e-8)
        assert ddv[k, 0] == pytest.approx(d2, rel=1e-7, abs=1e-5)
        assert dv[k, 1] == pytest.approx(5.0, rel=1e-12)
        assert abs(ddv[k, 1]) <= 1e-6
        assert abs(dv[k, 2]) <= 1e-9 and abs(ddv[k, 2]) <= 1e-6


def test_retained_timestamps_align():
    series = signals.sample(signals.make_scenario("E0"), 0.0, 0.01, 1e-3)
    times, v, dv, ddv = numdiff.differentiate_arrays(series)
    for x in (times, v, dv, ddv):
        assert len(x) == len(series) - 2 * numdiff.TRIM
    expected = series.times[numdiff.TRIM : -numdiff.TRIM]
    np.testing.assert_array_equal(times, expected)
    np.testing.assert_array_equal(v, series.values[numdiff.TRIM : -numdiff.TRIM])


def test_balanced_set_frequency_recovered():
    series = signals.sample(signals.make_scenario("E0"), 0.0, 0.1, 1e-4)
    w = frenet.invariants_batch(*numdiff.differentiate_arrays(series)[1:]).omega_mag
    assert np.all(np.abs(w - W_O) <= 1e-3 * W_O)


def test_halving_dt_gains_an_order():
    model = signals.make_scenario("E0")
    errs = {}
    for dt in (2e-4, 1e-4):
        series = signals.sample(model, 0.0, 0.1, dt)
        w = frenet.invariants_batch(*numdiff.differentiate_arrays(series)[1:]).omega_mag
        errs[dt] = np.max(np.abs(w - W_O))
    assert errs[2e-4] / errs[1e-4] >= 8.0


def test_too_few_samples():
    with pytest.raises(InvalidParameter):
        numdiff.differentiate_arrays(_series(np.zeros((3, 3)) + [1.0, 2.0, 3.0]))


def test_wrong_channel_count():
    # a recording is three channels: the constructor refuses any other count
    for channels in (1, 2, 4):
        shapes = rf"\(N, 3\) rows, got shapes \(10,\), \(10, {channels}\)$"
        with pytest.raises(InvalidParameter, match=shapes):
            TimeSeries(1e-3 * np.arange(10), 1e-3, np.ones((10, channels)))


def test_a_series_has_a_sample():
    with pytest.raises(InvalidParameter, match="^time series needs at least one sample$"):
        TimeSeries(np.zeros(0), 1e-3, np.zeros((0, 3)))


def test_stencil_overflow_is_raised():
    # 16 f1 and -30 f2 leave the float64 range on alternating 1e308 samples
    values = np.full((64, 3), -1.5e308)
    values[:, 0] = 1e308 * (-1.0) ** np.arange(64)
    with pytest.raises(FloatOverflow, match="stencil derivatives"):
        numdiff.differentiate_arrays(_series(values, 1e-4))


def test_stencil_step_square_overflow_is_raised():
    # a float's ** raises OverflowError past a step of about 1.34e154 s;
    # that is an overflow of the input's scale, named by its step
    values = np.cos(0.3 * np.arange(64))[:, None] * [1.0, 0.0, 0.0]
    with pytest.raises(FloatOverflow, match=r"step dt = 2e\+154 s squared overflows"):
        numdiff.differentiate_arrays(_series(values, 2e154))
    assert np.isfinite(numdiff.differentiate_arrays(_series(values, 1e154))[3]).all()


def test_stencil_second_derivative_divides_by_the_pow_square():
    # dt**2 is libm pow, which can round one ulp apart from dt * dt: with
    # glibc, 12 dt**2 and 12 (dt * dt) differ at dt = 0.0588.  The second
    # derivative keeps the pow bits that every output was written with
    dt = 0.0588
    f = np.cos(0.3 * np.arange(5.0))
    d2 = numdiff.stencil_derivatives(f, dt)[1]
    assert d2[0] == (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * dt**2)


@pytest.mark.parametrize(
    "derive",
    [numdiff.remove_zero_sequence, lambda s: numdiff.lowpass_first_order(s, 2e-4)],
    ids=["zero-sequence", "filter"],
)
def test_derived_overflow_is_raised_but_a_given_nan_is_a_bad_range(derive):
    # the phase sum and the filter step leave the float64 range, with no
    # RuntimeWarning (pytest turns one into an error)
    values = np.full((64, 3), -1.5e308)
    values[:, 0] = 1e308 * (-1.0) ** np.arange(64)
    with pytest.raises(FloatOverflow, match="overflow float64"):
        derive(_series(values, 1e-4))
    values[3, 1] = np.nan
    with pytest.raises(InvalidParameter, match="non-finite sample value"):
        _series(values)


# -------------------------------------------------------------- lowpass


def test_lowpass_constant_fixed_point():
    series = _series(np.ones((30, 3)) * [1.0, -2.0, 0.5])
    out = numdiff.lowpass_first_order(series, 5e-3)
    np.testing.assert_array_equal(out.values, series.values)


def test_lowpass_step_response():
    dt = 1e-3
    tc = 10 * dt
    step = np.zeros((60, 3))
    step[1:, :] = 1.0
    out = numdiff.lowpass_first_order(_series(step, dt), tc)
    # after one time constant past the step the output is near 1 - 1/e
    k = 1 + round(tc / dt)
    assert out.values[k, 0] == pytest.approx(1.0 - math.e**-1, abs=0.05)


def test_lowpass_small_tau_is_identity():
    series = signals.sample(signals.make_scenario("E0"), 0.0, 0.01, 1e-3)
    out = numdiff.lowpass_first_order(series, 1e-15)
    np.testing.assert_allclose(out.values, series.values, atol=1e-9)


def test_lowpass_is_causal():
    base = np.zeros((40, 3))
    changed = base.copy()
    changed[25:, :] = 3.0  # future change must not affect earlier outputs
    a = numdiff.lowpass_first_order(_series(base), 4e-3)
    b = numdiff.lowpass_first_order(_series(changed), 4e-3)
    np.testing.assert_array_equal(a.values[:25], b.values[:25])


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e150, -1e150])
def test_lowpass_is_the_numpy_loop_bit_for_bit(rng, scale):
    # random recordings of 1 to 400 samples, offsets and noise at the
    # same scale, against the numpy recurrence it replaced
    for n in (1, 2, 7, 400):
        values = scale * (rng.normal(size=(n, 3)) + rng.normal(size=3))
        for dt, tau in ((1e-4, 1.2e-4), (1e-3, 5e-3), (2.5e-5, 1e-15)):
            series = _series(values, dt)
            out = numdiff.lowpass_first_order(series, tau)
            want = numpy_reference.lowpass_values(series.values, dt / (tau + dt))
            assert out.values.flags.c_contiguous
            assert out.values.tobytes() == want.tobytes(), (n, dt, tau)


def test_lowpass_rejects_bad_time_constant():
    series = _series(np.zeros((10, 3)))
    for tc in (0.0, -1.0, math.inf, math.nan):
        message = f"^time_constant must be positive and finite, got {tc}$"
        with pytest.raises(InvalidParameter, match=message):
            numdiff.lowpass_first_order(series, tc)


# -------------------------------------------------- zero-sequence removal


def test_remove_zero_sequence_pure_common_mode():
    vals = np.column_stack([np.sin(np.arange(10.0))] * 3)
    out = numdiff.remove_zero_sequence(_series(vals))
    np.testing.assert_allclose(out.values, 0.0, atol=1e-15)


def test_remove_zero_sequence_balanced_unchanged():
    series = signals.sample(signals.make_scenario("E0"), 0.0, 0.02, 1e-3)
    out = numdiff.remove_zero_sequence(series)
    np.testing.assert_allclose(out.values, series.values, atol=1e-12)


def test_remove_zero_sequence_constant_offsets():
    series = _series(np.tile([1.0, 2.0, 3.0], (6, 1)))
    out = numdiff.remove_zero_sequence(series)
    np.testing.assert_allclose(out.values, np.tile([-1.0, 0.0, 1.0], (6, 1)))
