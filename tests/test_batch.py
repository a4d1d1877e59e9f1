"""The batched kernel against the per-sample reference route.

``frenet.invariants_batch`` (and the array evaluation of the analytic
models feeding it) must reproduce what ``frenet.invariants`` and
``frenet.rocof`` give sample by sample: the same degenerate-speed and
no-rotation masks, and values within 1e-10 of each row's natural scale.
A per-cell relative test cannot work: tau and xi of planar sets are
rounding residue, so two correct evaluations differ per cell by orders
of magnitude relative to themselves.
"""

import math

import numpy as np
import pytest

from geomfreq import cli, cli_io, frenet, numdiff, signals
from geomfreq.analysis import COLUMNS
from geomfreq.errors import DegenerateSpeed

REL = 1e-10
PRESETS = ("DC", "SINGLE_PHASE", "E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")


def _reference(jet):
    """The per-sample route: None on degenerate speed, else (g, rc) with
    rc None when the curve does not rotate."""
    try:
        g = frenet.invariants(jet)
    except DegenerateSpeed:
        return None
    return g, (frenet.rocof(jet) if g.rotation_defined else None)


def _assert_matches(b, jets):
    """Masks identical; values within REL of the row's scale: |omega|
    for rho, omega, xi, eta; |omega|/|v| for kappa, tau; |omega|^2 for
    RoCoF.  Without rotation those scales are 0, so omega, kappa, tau,
    xi must be exact zeros and rho is held to REL of |rho|."""
    assert b.v_mag.shape == (len(jets),)
    for k, jet in enumerate(jets):
        ref = _reference(jet)
        assert b.degenerate[k] == (ref is None), k
        if ref is None:
            assert not b.no_rotation[k]
            for x in (b.v_mag, b.rho, b.omega_mag, b.kappa, b.tau, b.xi, b.eta):
                assert math.isnan(x[k])
            assert np.all(np.isnan(b.omega_vec[k])) and np.all(np.isnan(b.omega_dot[k]))
            continue
        g, rc = ref
        assert b.no_rotation[k] == (not g.rotation_defined), k
        assert abs(b.v_mag[k] - g.v_mag) <= REL * g.v_mag
        w = g.omega_mag
        assert abs(b.rho[k] - g.rho) <= REL * (w if rc else abs(g.rho)), k
        assert np.max(np.abs(b.omega_vec[k] - g.omega_vec)) <= REL * w, k
        assert abs(b.omega_mag[k] - w) <= REL * w, k
        assert abs(b.xi[k] - g.xi) <= REL * w, k
        assert abs(b.kappa[k] - g.kappa) <= REL * w / g.v_mag, k
        assert abs(b.tau[k] - g.tau) <= REL * w / g.v_mag, k
        if rc is None:
            assert math.isnan(b.eta[k]) and np.all(np.isnan(b.omega_dot[k]))
            for x in (b.omega_mag, b.kappa, b.tau, b.xi):
                assert x[k] == 0.0
        else:
            assert abs(b.eta[k] - rc.eta) <= REL * w, k
            assert np.max(np.abs(b.omega_dot[k] - rc.omega_dot)) <= REL * w * w, k


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
    jets = [signals.eval_jet(model, float(t)) for t in times]
    # the kernel on the very same jets
    b = frenet.invariants_batch(
        [j.v for j in jets], [j.dv for j in jets], [j.ddv for j in jets]
    )
    _assert_matches(b, jets)
    # the analytic CLI route: array evaluation of the model, then the kernel
    _assert_matches(frenet.invariants_batch(*signals.eval_arrays(model, times)), jets)


@pytest.mark.parametrize(
    "filter_tau, remove_zero_seq", [(1.2e-4, False), (1.2e-4, True), (None, False)]
)
def test_batch_matches_per_sample_on_outage_recording(filter_tau, remove_zero_seq):
    series = _outage_series(filter_tau=filter_tau, remove_zero_seq=remove_zero_seq)
    t, v, dv, ddv = numdiff.differentiate_arrays(series)
    jets = numdiff.differentiate(series)
    np.testing.assert_array_equal(t, [j.t for j in jets])
    b = frenet.invariants_batch(v, dv, ddv)
    assert b.degenerate.any()
    if filter_tau is not None:
        # the filtered outage decays along a fixed direction: no rotation
        assert b.no_rotation.any()
    _assert_matches(b, jets)


def test_batch_thresholds_match_per_sample():
    """|v| and |omega| on both sides of EPS_V and EPS_W."""
    jets = [
        frenet.Jet2(t=0.0, v=[s, 0.0, 0.0], dv=[0.3 * s, w * s, 0.0], ddv=[1.0, 2.0, 3.0])
        for s in (0.5e-9, 1e-9, 2e-9, 1.0)
        for w in (0.0, 0.5e-9, 1e-9, 1.5e-9, 5e-9, 2e-8, 1.0)
    ]
    b = frenet.invariants_batch(
        [j.v for j in jets], [j.dv for j in jets], [j.ddv for j in jets]
    )
    assert b.degenerate.any() and b.no_rotation.any()
    assert (~b.degenerate & ~b.no_rotation).any()
    _assert_matches(b, jets)


def test_batch_rejects_bad_shapes_and_values():
    ok = np.ones((4, 3))
    with pytest.raises(ValueError):
        frenet.invariants_batch(np.ones((4, 2)), ok, ok)
    with pytest.raises(ValueError):
        frenet.invariants_batch(ok, np.ones((5, 3)), ok)
    bad = ok.copy()
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        frenet.invariants_batch(ok, bad, ok)


def _parent_cells(jets):
    """The t string, the empty-cell pattern and the rotation_defined
    cell the per-sample route wrote for each row."""
    rows = []
    for jet in jets:
        ref = _reference(jet)
        if ref is None:
            empty, flag = set(COLUMNS[1:]), ""
        elif ref[1] is None:
            empty, flag = {"eta", "rocof1", "rocof2", "rocof3"}, "0"
        else:
            empty, flag = set(), "1"
        rows.append((repr(float(jet.t)), [c in empty for c in COLUMNS], flag))
    return rows


def _check_csv_against_parent(path, jets):
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(COLUMNS)
    assert lines[-1] == ""
    data = [ln.split(",") for ln in lines[1:-2]]
    expected = _parent_cells(jets)
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
    model = signals.make_scenario(sid)
    jets = [signals.eval_jet(model, 0.25 + k * 1e-3) for k in range(1251)]
    _check_csv_against_parent(out, jets)


def test_cli_numeric_csv_layout_matches_parent_route(tmp_path):
    raw = _outage_series(filter_tau=None)
    wf, out = tmp_path / "wf.csv", tmp_path / "an.csv"
    cli_io.write_waveform_csv(wf, raw)
    argv = ["analyze", "--csv", str(wf), "--mode", "numeric",
            "--filter-tau", "1.2e-4", "--out", str(out)]
    assert cli.main(argv) == 0
    series = numdiff.lowpass_first_order(cli_io.read_waveform_csv(wf), 1.2e-4)
    _check_csv_against_parent(out, numdiff.differentiate(series))


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
