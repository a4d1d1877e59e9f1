"""Numerical path: derivatives of sampled three-phase recordings.

A recording is a ``series.TimeSeries``, whose constructor ensures
exactly three channels.  Derivatives use centered 5-point stencils
(4th-order first derivative, second derivative exact through
quartics); the two outermost samples on each side are dropped rather
than extrapolated, so a recording needs MIN_SAMPLES.  An optional causal
first-order IIR filter smooths noisy channels before differentiation,
and zero-sequence removal handles rank-deficient three-phase sets.
"""

from itertools import accumulate

import numpy as np

from .errors import FloatOverflow, InvalidParameter
from .geometry import check_overflow, check_positive

TRIM = 2  # samples dropped on each side by the 5-point stencils
MIN_SAMPLES = 2 * TRIM + 1  # the fewest samples the stencils take


def stencil_derivatives(values, dt):
    """First and second derivatives of sampled columns.

    Returns (d1, d2) for the interior samples values[TRIM:-TRIM].  Raises
    FloatOverflow when the step's square overflows float64."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n < MIN_SAMPLES:
        raise InvalidParameter(f"need at least {MIN_SAMPLES} samples, got {n}")
    f0 = values[:-4]
    f1 = values[1:-3]
    f2 = values[2:-2]
    f3 = values[3:-1]
    f4 = values[4:]
    d1 = (f0 - 8.0 * f1 + 8.0 * f3 - f4) / (12.0 * dt)
    try:  # dt**2 is libm pow, whose bits the outputs keep: dt * dt can round apart
        d2 = (-f0 + 16.0 * f1 - 30.0 * f2 + 16.0 * f3 - f4) / (12.0 * dt**2)
    except OverflowError:  # a float's ** raises where a product gives inf
        raise FloatOverflow(f"the stencil step dt = {dt} s squared overflows float64") from None
    return d1, d2


def differentiate_arrays(series):
    """Retained times and (N, 3) arrays v, v', v'' of a recording,
    N = len(series) - 2 * TRIM.  Raises FloatOverflow when a derivative
    overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2 = stencil_derivatives(series.values, series.dt)
    check_overflow("the stencil derivatives of the samples overflow float64", d1, d2)
    return series.times[TRIM:-TRIM], series.values[TRIM:-TRIM], d1, d2


def lowpass_first_order(series, time_constant):
    """Causal first-order IIR smoothing per channel.

    y[k] = y[k-1] + dt/(tc + dt) * (x[k] - y[k-1]), y[0] = x[0].
    """
    check_positive("time_constant", time_constant)  # inf holds y at x[0]; NaN makes y NaN
    alpha = series.dt / (time_constant + series.dt)
    # per channel in Python floats: the subtract, multiply and add of a
    # numpy row update, so the same bits, without numpy's per-call cost
    y = [
        list(accumulate(x, lambda yk, xk: yk + alpha * (xk - yk)))
        for x in series.values.T.tolist()
    ]
    return series.with_values(np.ascontiguousarray(np.array(y).T))


def remove_zero_sequence(series):
    """Subtract the instantaneous mean (v_a + v_b + v_c)/3 per sample."""
    with np.errstate(over="ignore", invalid="ignore"):  # with_values reports it
        mean = series.values.mean(axis=1, keepdims=True)
        return series.with_values(series.values - mean)
