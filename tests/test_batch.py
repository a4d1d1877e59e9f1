"""The batched kernel against the plain-float reference.

``frenet.invariants_batch`` (and the array evaluation of the analytic
models feeding it) must reproduce what ``tests/reference.py`` gives
sample by sample: the same degenerate-speed and no-rotation masks, and
values within 1e-10 of each row's natural scale.  A per-cell relative
test cannot work: tau and xi of planar sets are rounding residue, so
two correct evaluations differ per cell by orders of magnitude relative
to themselves.  ``frenet.invariants``, the one per-instant function,
must give the bits of its batch row.
"""

import math

import numpy as np
import pytest

import reference
from conftest import scenario_arrays
from geomfreq import analysis, cli, cli_io, frenet, hilbert, numdiff, signals
from geomfreq.analysis import COLUMNS
from geomfreq.errors import DegenerateInput, FloatOverflow, InvalidParameter

REL = 1e-10
PRESETS = ("DC", "SINGLE_PHASE", "E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")


def _reference(v, dv, ddv):
    """The reference on every row: None on degenerate speed, else its
    invariants with eta and omega_dot None when the curve does not rotate."""
    return [reference.invariants(*row) for row in zip(v, dv, ddv)]


def _assert_matches(b, v, dv, ddv):
    """Masks identical; values within REL of the row's scale: |omega|
    for rho, omega, xi, eta; |omega|/|v| for kappa, tau; |omega|^2 for
    RoCoF.  Without rotation tau and xi must be exact zeros, eta and
    RoCoF NaN, and rho is held to REL of |rho|; omega and kappa keep
    their scale, however small."""
    refs = _reference(v, dv, ddv)
    assert b.v_mag.shape == (len(refs),)
    for k, g in enumerate(refs):
        assert b.degenerate[k] == (g is None), k
        if g is None:
            assert not b.no_rotation[k]
            for x in (b.v_mag, b.rho, b.omega_mag, b.kappa, b.tau, b.xi, b.eta):
                assert math.isnan(x[k])
            assert np.all(np.isnan(b.omega_vec[k])) and np.all(np.isnan(b.omega_dot[k]))
            continue
        assert b.no_rotation[k] == (not g.rotating), k
        assert abs(b.v_mag[k] - g.v_mag) <= REL * g.v_mag
        w = g.omega_mag
        assert abs(b.rho[k] - g.rho) <= REL * (w if g.rotating else abs(g.rho)), k
        assert np.max(np.abs(b.omega_vec[k] - g.omega)) <= REL * w, k
        assert abs(b.omega_mag[k] - w) <= REL * w, k
        assert abs(b.xi[k] - g.xi) <= REL * w, k
        assert abs(b.kappa[k] - g.kappa) <= REL * w / g.v_mag, k
        assert abs(b.tau[k] - g.tau) <= REL * w / g.v_mag, k
        if not g.rotating:
            assert math.isnan(b.eta[k]) and np.all(np.isnan(b.omega_dot[k]))
            assert b.tau[k] == b.xi[k] == 0.0
        else:
            assert abs(b.eta[k] - g.eta) <= REL * w, k
            assert np.max(np.abs(b.omega_dot[k] - g.omega_dot)) <= REL * w * w, k


def _assert_rows_are_bits_of_batch(v, dv, ddv):
    """``frenet.invariants`` of row k equals row k of the batch, bit for
    bit, and raises ``DegenerateInput`` where the batch row is degenerate."""
    b = frenet.invariants_batch(v, dv, ddv)
    for k in range(len(v)):
        if b.degenerate[k]:
            with pytest.raises(DegenerateInput):
                frenet.invariants(v[k], dv[k], ddv[k])
            continue
        g = frenet.invariants(v[k], dv[k], ddv[k])
        for name, x in zip(("rho", "omega_vec", "omega_mag", "xi"), g):
            np.testing.assert_array_equal(x, getattr(b, name)[k], err_msg=f"{name} row {k}")


def _outage_series(sid="E5", filter_tau=1.2e-4, remove_zero_seq=False):
    """A sampled preset with an 80-sample zero outage, as a recording
    would hold it, filtered and optionally zero-sequence free."""
    series = signals.sample(signals.make_scenario(sid), 0.0, 0.08, 1e-4)
    values = series.values.copy()
    values[300:380] = 0.0
    series = series.with_values(values)
    if remove_zero_seq:
        series = numdiff.remove_zero_sequence(series)
    if filter_tau is not None:
        series = numdiff.lowpass_first_order(series, filter_tau)
    return series


@pytest.mark.parametrize("sid", PRESETS)
def test_batch_matches_per_sample_on_presets(sid):
    model = signals.make_scenario(sid)
    times = 0.3 + 1e-3 * np.arange(400)
    # the analytic CLI route: array evaluation of the model, then the kernel
    v, dv, ddv = signals.eval_arrays(model, times)
    _assert_matches(frenet.invariants_batch(v, dv, ddv), v, dv, ddv)
    # the model at each time on its own gives the same rows
    for k in range(times.size):
        one = signals.eval_arrays(model, times[k : k + 1])
        for x, xs in zip(one, (v, dv, ddv)):
            np.testing.assert_array_equal(x[0], xs[k])


@pytest.mark.parametrize("sid", PRESETS)
def test_invariants_is_its_batch_row(sid):
    times = 0.3 + 1e-3 * np.arange(400)
    _assert_rows_are_bits_of_batch(*signals.eval_arrays(signals.make_scenario(sid), times))


def test_invariants_is_its_batch_row_on_hilbert_rows():
    # the rows geometric_equivalence feeds to frenet.invariants: the
    # plane curve (u, uh, 0) of a 50 Hz tone and its stencil derivatives
    dt = 1e-4
    t = dt * np.arange(4096)
    embedded = hilbert.analytic_embed(t, dt, np.cos(2.0 * math.pi * 50.0 * t))
    d1, d2 = numdiff.stencil_derivatives(embedded.values, dt)
    v = embedded.values[numdiff.TRIM : -numdiff.TRIM]
    _assert_rows_are_bits_of_batch(v, d1, d2)
    rep = hilbert.geometric_equivalence(embedded)
    b = frenet.invariants_batch(v, d1, d2)
    for mine, theirs in ((rep.rho, b.rho), (rep.omega_mag, b.omega_mag),
                         (rep.omega_z, b.omega_vec[:, 2]), (rep.xi, b.xi)):
        np.testing.assert_array_equal(mine, theirs)


@pytest.mark.parametrize(
    "filter_tau, remove_zero_seq", [(1.2e-4, False), (1.2e-4, True), (None, False)]
)
def test_batch_matches_per_sample_on_outage_recording(filter_tau, remove_zero_seq):
    series = _outage_series(filter_tau=filter_tau, remove_zero_seq=remove_zero_seq)
    t, v, dv, ddv = numdiff.differentiate_arrays(series)
    np.testing.assert_array_equal(t, series.times[numdiff.TRIM : -numdiff.TRIM])
    b = frenet.invariants_batch(v, dv, ddv)
    assert b.degenerate.any()
    if filter_tau is not None:
        # the filtered outage decays along a fixed direction: no rotation
        assert b.no_rotation.any()
    _assert_matches(b, v, dv, ddv)
    _assert_rows_are_bits_of_batch(v, dv, ddv)


def test_batch_thresholds_match_per_sample():
    """|v| and |omega| on both sides of EPS_V and EPS_W."""
    rows = [
        ([s, 0.0, 0.0], [0.3 * s, w * s, 0.0], [1.0, 2.0, 3.0])
        for s in (0.5e-9, 1e-9, 2e-9, 1.0)
        for w in (0.0, 0.5e-9, 1e-9, 1.5e-9, 5e-9, 2e-8, 1.0)
    ]
    v, dv, ddv = (np.array(x) for x in zip(*rows))
    b = frenet.invariants_batch(v, dv, ddv)
    assert b.degenerate.any() and b.no_rotation.any()
    assert (~b.degenerate & ~b.no_rotation).any()
    _assert_matches(b, v, dv, ddv)
    _assert_rows_are_bits_of_batch(v, dv, ddv)


def test_invariants_is_its_batch_row_when_v_squared_overflows():
    # |v|^2 = inf makes rho and omega NaN; both routes take a NaN omega
    # as no rotation (a huge recording through hilbert reaches this)
    v = np.array([[1e300, 1e300, 0.0]])
    dv = np.array([[1e302, -1e302, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_rows_are_bits_of_batch(v, dv, np.ones((1, 3)))
        assert frenet.invariants_batch(v, dv, np.ones((1, 3))).no_rotation[0]


def test_overflow_marks_rows_whose_products_leave_the_float_range():
    _, e5, de5, dde5 = (x[0] for x in scenario_arrays("E5", 0.0, 0.0, 1e-4))
    x, y, z = np.eye(3)
    rows = [  # v, v', v'', overflow
        (e5, de5, dde5, False),  # an E5 sample
        (1e300 * e5, 0.3e300 * e5[::-1], e5, True),  # |v|^2
        (1e80 * e5, 1e80 * de5, 1e80 * dde5, True),  # |v x v'|^2, so tau is -0.0
        (0 * e5, 1e300 * de5, 1e300 * dde5, False),  # degenerate: not checked
        (1e70 * e5, 1e70 * de5, 1e70 * dde5, False),  # every product finite
        (1e200 * e5, 1e200 * e5, e5, True),  # |v|^2, no rotation
        (1e150 * x, 3e150 * x, x, False),  # |v|^2 = 1e300, no rotation
        (1e200 * x, 1e100 * (x + y), 0 * x, True),  # |v|^2 alone: rho would read 0
        (1e150 * x, 1e160 * x, 0 * x, True),  # v . v', no rotation
        (1e150 * x, 1e160 * y, 0 * x, True),  # v x v'
        (1e-5 * x, 1e155 * y, 0 * x, True),  # |omega|^2 alone: omega = 1e160 rad/s
        (x, 1e100 * y, 1e250 * z, True),  # v . (v' x v''), so xi
        (x, 1e100 * y, 1e250 * y, True),  # omega . omega', so eta
    ]
    v, dv, ddv = (np.array(col) for col in list(zip(*rows))[:3])
    b = frenet.invariants_batch(v, dv, ddv)
    assert b.overflow.tolist() == [r[3] for r in rows]
    assert np.flatnonzero(b.degenerate).tolist() == [3]
    assert b.tau[2] == 0.0  # what the flag is for: a finite, wrong torsion
    with pytest.raises(FloatOverflow, match=r"at 9 of 13 samples \(first at t = 1\.0\)"):
        analysis.analyze(np.arange(13.0), v, dv, ddv)


def test_batch_rejects_bad_shapes_and_values():
    ok = np.ones((4, 3))
    with pytest.raises(InvalidParameter):
        frenet.invariants_batch(np.ones((4, 2)), ok, ok)
    with pytest.raises(InvalidParameter):
        frenet.invariants_batch(ok, np.ones((5, 3)), ok)
    for cell in (np.nan, np.inf):
        bad = ok.copy()
        bad[2, 1] = cell
        with pytest.raises(InvalidParameter):
            frenet.invariants_batch(ok, bad, ok)


def _parent_cells(t, v, dv, ddv):
    """The t string, the empty-cell pattern and the rotation_defined
    cell the per-sample route wrote for each row."""
    rows = []
    for tk, g in zip(t, _reference(v, dv, ddv)):
        if g is None:
            empty, flag = set(COLUMNS[1:]), ""
        elif not g.rotating:
            empty, flag = {"eta", "rocof1", "rocof2", "rocof3"}, "0"
        else:
            empty, flag = set(), "1"
        rows.append((repr(float(tk)), [c in empty for c in COLUMNS], flag))
    return rows


def _check_csv_against_parent(path, t, v, dv, ddv):
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(COLUMNS)
    assert lines[-1] == ""
    data = [ln.split(",") for ln in lines[1:-2]]
    expected = _parent_cells(t, v, dv, ddv)
    assert len(data) == len(expected)
    degenerate = 0
    for cells, (t, empty, flag) in zip(data, expected):
        assert cells[0] == t
        assert [c == "" for c in cells] == empty
        assert cells[-1] == flag
        degenerate += empty[1]
    assert lines[-2] == f"# degenerate_samples={degenerate}"


@pytest.mark.parametrize("sid", ["DC", "E7"])
def test_cli_analytic_csv_layout_matches_parent_route(tmp_path, sid):
    out = tmp_path / "an.csv"
    argv = ["analyze", "--scenario", sid, "--t0", "0.25", "--t1", "1.5",
            "--dt", "1e-3", "--out", str(out)]
    assert cli.main(argv) == 0
    times = np.array([0.25 + k * 1e-3 for k in range(1251)])
    rows = signals.eval_arrays(signals.make_scenario(sid), times)
    _check_csv_against_parent(out, times, *rows)


def test_cli_numeric_csv_layout_matches_parent_route(tmp_path):
    raw = _outage_series(filter_tau=None)
    wf, out = tmp_path / "wf.csv", tmp_path / "an.csv"
    cli_io.write_waveform_csv(wf, raw)
    argv = ["analyze", "--csv", str(wf), "--mode", "numeric",
            "--filter-tau", "1.2e-4", "--out", str(out)]
    assert cli.main(argv) == 0
    series = numdiff.lowpass_first_order(cli_io.read_waveform_csv(wf), 1.2e-4)
    _check_csv_against_parent(out, *numdiff.differentiate_arrays(series))


def test_analyze_writes_zeros_where_the_curve_does_not_rotate(tmp_path):
    # the filtered outage decays along a fixed direction: the kernel
    # reports omega's rounding residue there, the table writes 0.0
    wf, out = tmp_path / "wf.csv", tmp_path / "an.csv"
    cli_io.write_waveform_csv(wf, _outage_series(filter_tau=None))
    argv = ["analyze", "--csv", str(wf), "--filter-tau", "1.2e-4", "--out", str(out)]
    assert cli.main(argv) == 0
    series = numdiff.lowpass_first_order(cli_io.read_waveform_csv(wf), 1.2e-4)
    b = frenet.invariants_batch(*numdiff.differentiate_arrays(series)[1:])
    assert np.count_nonzero(b.omega_mag[b.no_rotation]) > 0
    rows = [dict(zip(COLUMNS, ln.split(","))) for ln in out.read_text().splitlines()[1:-1]]
    still = [r for r in rows if r["rotation_defined"] == "0"]
    assert len(still) == np.count_nonzero(b.no_rotation)
    for r in still:
        assert [r[c] for c in ("w1", "w2", "w3", "w", "kappa")] == ["0.0"] * 5


def test_analysis_csv_writes_in_blocks(tmp_path, monkeypatch):
    """Output does not depend on the block size."""
    series = _outage_series()
    wf = tmp_path / "wf.csv"
    cli_io.write_waveform_csv(wf, series)
    outs = []
    for block in (cli_io.BLOCK_ROWS, 7, 1):
        monkeypatch.setattr(cli_io, "BLOCK_ROWS", block)
        out = tmp_path / f"an{block}.csv"
        assert cli.main(["analyze", "--csv", str(wf), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
