"""Row-wise vector algebra (``rowdot``, ``rownorm`` and ``np.cross`` over
rows), the one check of times and rows, the planar phase rate Im(z'/z)
of a phasor, and the period means of rho and |omega|."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomfreq import analysis, frenet, hilbert, park, signals
from geomfreq.errors import InvalidParameter
from geomfreq.geometry import phase_rate, rowdot, rownorm
from geomfreq.numdiff import differentiate_arrays
from geomfreq.series import TimeSeries

from conftest import W_O, scenario_arrays
from reference import cross, dot

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
# a few vectors as the rows of an (N, 3) array
rows = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.tuples(finite, finite, finite), min_size=n, max_size=n)
).map(lambda r: np.array(r, dtype=np.float64))


def _triple(a, b, c):
    return rowdot(a, np.cross(b, c))


def test_inner_examples():
    a = np.array([[1, 0, 0], [1, 2, 3], [0.0, -6.0 * math.sqrt(3.0), 6.0 * math.sqrt(3.0)]])
    b = np.array([[0, 1, 0], [1, 2, 3], [1, 1, 1]], dtype=np.float64)
    d = rowdot(a, b)
    assert d[0] == 0.0
    assert d[1] == 14.0
    # balanced three-phase snapshot against the zero-sequence direction
    assert abs(d[2]) < 1e-12
    assert rownorm(a)[1] == math.sqrt(14.0)


def test_cross_examples():
    a = np.array([[1, 0, 0], [2.0, -1.0, 5.0], [1, 2, 3]], dtype=np.float64)
    b = np.array([[0, 1, 0], [2.0, -1.0, 5.0], [4, 5, 6]], dtype=np.float64)
    np.testing.assert_allclose(np.cross(a, b), [[0, 0, 1], [0, 0, 0], [-3, 6, -3]])


def test_triple_scalar_examples():
    e = np.eye(3)
    assert _triple(e[:1], e[1:2], e[2:])[0] == 1.0
    a, b = np.array([[1.0, 2, 3]]), np.array([[4.0, 5, 6]])
    assert _triple(a, a, b)[0] == 0.0
    assert _triple(a, b, np.array([[7.0, 8, 10]]))[0] == -3.0


@given(rows, rows)
def test_cross_orthogonal_to_factors(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    axb = np.cross(a, b)
    scale = np.maximum(np.maximum(rownorm(a), rownorm(b)) * rownorm(axb), 1.0)
    assert np.all(np.abs(rowdot(a, axb)) <= 1e-12 * scale)
    assert np.all(np.abs(rowdot(b, axb)) <= 1e-12 * scale)
    # the row cross product is the plain-float one, row by row
    ab = np.maximum(rownorm(a) * rownorm(b), 1.0)
    for k in range(n):
        np.testing.assert_allclose(axb[k], cross(a[k], b[k]), rtol=0, atol=1e-12 * ab[k])


@given(rows, rows)
def test_cross_antisymmetric(a, b):
    n = min(len(a), len(b))
    np.testing.assert_array_equal(np.cross(a[:n], b[:n]), -np.cross(b[:n], a[:n]))


@given(rows, rows, rows)
def test_triple_product_cyclic(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]
    t1 = _triple(a, b, c)
    t2 = _triple(c, a, b)
    t3 = _triple(b, c, a)
    scale = np.maximum(rownorm(a) * rownorm(b) * rownorm(c), 1.0)
    assert np.all(np.abs(t1 - t2) <= 1e-12 * scale)
    assert np.all(np.abs(t1 - t3) <= 1e-12 * scale)


@given(rows, rows)
def test_lagrange_identity(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    lhs = rownorm(np.cross(a, b)) ** 2
    rhs = rownorm(a) ** 2 * rownorm(b) ** 2 - rowdot(a, b) ** 2
    scale = np.maximum(rownorm(a) ** 2 * rownorm(b) ** 2, 1.0)
    assert np.all(np.abs(lhs - rhs) <= 1e-10 * scale)
    # the row dot product is the plain-float one, row by row
    for k in range(n):
        assert abs(rowdot(a, b)[k] - dot(a[k], b[k])) <= 1e-12 * scale[k]


# ------------------------------------------------------- times and rows

E0 = scenario_arrays("E0", 0.0, 0.01, 1e-3)  # 11 times and their rows v, v', v''
# every function that takes one curve's rows, called as (t, v, v', v'')
TAKES_ROWS = {
    "invariants_batch": lambda t, *jet: frenet.invariants_batch(*jet),
    "frame": lambda t, *jet: frenet.frame(*jet),
    "analyze": analysis.analyze,
    "to_dq0": lambda t, *jet: park.to_dq0(t, *jet, W_O),
    "from_dq0": lambda t, *jet: park.from_dq0(t, *jet, W_O),
    "inertial_derivative": lambda t, v, dv, ddv: park.inertial_derivative(v, dv, W_O),
    "derivative_frame_check": lambda t, v, dv, ddv: park.derivative_frame_check(v, dv, W_O),
    "TimeSeries": lambda t, v, dv, ddv: TimeSeries(t, 1e-3, v),
}
TAKES_TIMES = ("analyze", "to_dq0", "from_dq0", "TimeSeries")


@pytest.mark.parametrize("call", TAKES_ROWS.values(), ids=TAKES_ROWS)
def test_rows_are_refused_alike_everywhere(call):
    t, v, dv, ddv = E0
    call(t, v, dv, ddv)
    shapes = r"^expected \(N,\) times and \(N, 3\) rows, got shapes (\(11,\), )?\(11, 2\)"
    with pytest.raises(InvalidParameter, match=shapes):
        call(t, v[:, :2], dv, ddv)
    for cell in (np.nan, np.inf):
        bad = v.copy()
        bad[4, 1] = cell
        with pytest.raises(InvalidParameter, match="^non-finite sample value$"):
            call(t, bad, dv, ddv)


def _bits(out):
    """(dtype, shape, bytes) of every array or number in a call's result."""
    if dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    if isinstance(out, (tuple, list)):
        return [_bits(x) for x in out]
    out = np.asarray(out)
    return out.dtype.str, out.shape, out.tobytes()


@pytest.mark.parametrize("call", TAKES_ROWS.values(), ids=TAKES_ROWS)
def test_rows_of_any_number_type_give_the_float64_bits(call):
    """Lists, int tuples and float32 rows are read as the float64 rows of
    the same numbers (``frame`` leaves the check to ``invariants_batch``)."""
    t, *jet = E0
    assert _bits(call(t.tolist(), *(x.tolist() for x in jet))) == _bits(call(t, *jet))
    ints = [np.round(x).astype(int) for x in jet]
    want = _bits(call(t, *(x.astype(np.float64) for x in ints)))
    assert _bits(call(t, *(tuple(map(tuple, x.tolist())) for x in ints))) == want
    singles = [x.astype(np.float32) for x in jet]
    want = _bits(call(t, *(x.astype(np.float64) for x in singles)))
    assert _bits(call(t, *singles)) == want


@pytest.mark.parametrize("name", TAKES_TIMES)
def test_times_not_one_per_row_are_refused_everywhere(name):
    # 7 times beside 11 rows: analyze once returned them next to 11-row columns
    t, v, dv, ddv = E0
    with pytest.raises(InvalidParameter, match=r"got shapes \(7,\), \(11, 3\)"):
        TAKES_ROWS[name](t[:7], v, dv, ddv)


# --------------------------------------------------- the planar phasor link


# power-invariant Clarke rows e_x, e_y, with e_x x e_y = (1, 1, 1)/sqrt(3)
CLARKE = np.array([[2.0, -1.0, -1.0], [0.0, math.sqrt(3.0), -math.sqrt(3.0)]]) / math.sqrt(6.0)
ZERO_SEQUENCE = np.ones(3) / math.sqrt(3.0)


def _phasor_gaps(sid):
    """|Im(z'/z) - omega . (1, 1, 1)/sqrt(3)| and |Re(z'/z) - rho|, over
    |omega|, at 400 instants in [0, 0.2] s; z = x + jy is the Clarke
    phasor of the preset's voltage."""
    jet = signals.eval_arrays(signals.make_scenario(sid), np.linspace(0.0, 0.2, 400))
    b = frenet.invariants_batch(*jet)
    (x, y), (dx, dy) = CLARKE @ jet[0].T, CLARKE @ jet[1].T
    im_gap = np.abs(phase_rate(x, y, dx, dy) - b.omega_vec @ ZERO_SEQUENCE)
    re_gap = np.abs((x * dx + y * dy) / (x * x + y * y) - b.rho)
    return im_gap / b.omega_mag, re_gap / b.omega_mag


@pytest.mark.parametrize("sid", ["E0", "E3", "E6"])
def test_phasor_rates_are_the_invariants_without_zero_sequence(sid):
    im_gap, re_gap = _phasor_gaps(sid)
    assert im_gap.max() <= 1e-14
    assert re_gap.max() <= 1e-14


@pytest.mark.parametrize("sid", ["E1", "E2", "E4", "E5", "E7", "E8"])
def test_phase_rate_is_not_omega_with_zero_sequence(sid):
    assert _phasor_gaps(sid)[0].max() > 1e-4


@pytest.mark.parametrize(
    "tone",
    [
        lambda t: np.cos(100.0 * math.pi * t),
        lambda t: (1.0 + 0.3 * np.sin(6.0 * math.pi * t))
        * np.cos(100.0 * math.pi * t + 0.5 * np.sin(4.0 * math.pi * t)),
    ],
    ids=["50Hz", "am-pm"],
)
def test_embedding_rho_is_the_phasor_growth_rate(tone):
    dt = 1e-4
    t = dt * np.arange(8192)
    embedded = hilbert.analytic_embed(t, dt, tone(t))
    rep = hilbert.geometric_equivalence(embedded)
    _, v, dv, _ = differentiate_arrays(embedded)
    (x, y), (dx, dy) = v[:, :2].T, dv[:, :2].T
    gap = np.abs((x * dx + y * dy) / (x * x + y * y) - rep.rho)
    assert np.all(gap <= 1e-14 * rep.omega_mag)


# --------------------------------------------------------- the period means

# on a planar set, |omega| averages to the phasor frequency
PERIOD = 0.02  # s, one cycle of the presets' 50 Hz


def _period(sid):
    """invariants_batch of the preset at 400 instants t = T k / 400 over one period T."""
    times = PERIOD * np.arange(400) / 400
    return frenet.invariants_batch(*signals.eval_arrays(signals.make_scenario(sid), times))


@pytest.mark.parametrize("sid", ["E0", "E1", "E2", "E3"])
def test_planar_sets_average_to_the_phasor_frequency(sid):
    b = _period(sid)
    assert abs(b.omega_mag.mean() - W_O) <= 1e-14 * W_O
    assert abs(b.rho.mean()) <= 1e-12


def test_unbalanced_planar_omega_swings_within_the_period():
    # the phase of V+ e^{jwt} + V- e^{-jwt} winds once per period, unevenly
    omega = _period("E2").omega_mag
    assert omega.min() < 0.75 * W_O
    assert omega.max() > 1.4 * W_O


@pytest.mark.parametrize("sid", ["E4", "E5"])
def test_non_planar_sets_do_not_average_to_the_phasor_frequency(sid):
    assert abs(_period(sid).omega_mag.mean() - W_O) > 5e-3 * W_O
