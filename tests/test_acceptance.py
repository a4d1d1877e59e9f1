"""End-to-end acceptance suite.

Each test prints one pass/fail line (visible with ``pytest -s`` or in
the captured output of a failing run) and asserts the corresponding
numeric tolerance.
"""

import functools
import math

import numpy as np
import pytest

from geomfreq import cli, frenet, hilbert, park, signals, threephase
from geomfreq.geometry import rownorm

from conftest import ddv_expansion, scenario_arrays

W_O = 100.0 * math.pi
OMEGA_POS = W_O / math.sqrt(3.0)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return wrapper

    return deco


def _rows(scenario_id, t0, t1, dt):
    """v, v', v'' of a preset at t0 + k*dt, and their invariants."""
    v, dv, ddv = scenario_arrays(scenario_id, t0, t1, dt)[1:]
    return v, dv, ddv, frenet.invariants_batch(v, dv, ddv)


def _rocof_parts(v, b):
    """|omega'|, the torsional part tau (v x omega) and the residual
    omega' - eta omega - tau (v x omega) of every row."""
    antisym = b.tau[:, None] * np.cross(v, b.omega_vec)
    residual = b.omega_dot - b.eta[:, None] * b.omega_vec - antisym
    return rownorm(b.omega_dot), antisym, residual


@criterion("criterion 1: stationary positive/negative sequence invariants")
def test_criterion_1_stationary_sequences():
    b = _rows("E0", 0.0, 0.1, 1e-3)[3]
    assert np.all(np.abs(b.rho) <= 1e-9)
    assert np.all(np.abs(b.xi) <= 1e-9)
    np.testing.assert_allclose(b.omega_vec, np.full_like(b.omega_vec, OMEGA_POS), rtol=1e-6)
    assert np.all(np.abs(b.omega_mag - W_O) <= 1e-9 * W_O)
    model = signals.three_phase_model(theta0=(0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0))
    negative = frenet.invariants_batch(*signals.eval_arrays(model, 1e-3 * np.arange(101)))
    np.testing.assert_allclose(
        negative.omega_vec, np.full_like(negative.omega_vec, -OMEGA_POS), rtol=1e-6
    )


@criterion("criterion 2: planarity of E0-E3, torsion present in E4/E5")
def test_criterion_2_planarity_and_torsion():
    for sid in ("E0", "E1", "E2", "E3"):
        assert np.all(np.abs(_rows(sid, 0.0, 0.1, 1e-4)[3].xi) <= 1e-8)
    for sid in ("E4", "E5"):
        xi_max = np.max(np.abs(_rows(sid, 0.0, 0.04, 1e-4)[3].xi))
        assert xi_max >= 1.0


@criterion("criterion 3: balanced modulation keeps RoCoF conventional")
def test_criterion_3_balanced_time_variant():
    v, _, _, b = _rows("E6", 0.0, 5.0, 0.01)
    assert np.all(np.abs(b.rho) <= 1e-8)
    assert np.all(np.abs(b.xi) <= 1e-8)
    wd, antisym, _ = _rocof_parts(v, b)
    scale = np.maximum(wd, b.omega_mag)
    assert np.all(rownorm(antisym) <= 1e-8 * scale)
    assert np.all(np.abs(wd - np.abs(b.eta) * b.omega_mag) <= 1e-8 * scale)


@criterion("criterion 4: torsional RoCoF in unbalanced modulation")
def test_criterion_4_torsional_rocof():
    for sid in ("E7", "E8"):
        v, _, _, b = _rows(sid, 0.0, 2.5, 1e-3)
        rot = ~(b.degenerate | b.no_rotation)
        wd, _, residual = (x[rot] for x in _rocof_parts(v, b))
        w, eta = b.omega_mag[rot], b.eta[rot]
        assert np.all(rownorm(residual) <= 1e-8 * np.maximum(wd, w))
        moving = wd > 1e-6
        gap = np.abs(wd - np.abs(eta) * w)[moving] / wd[moving]
        assert np.max(gap, initial=0.0) >= 0.01


@criterion("criterion 5: closed forms agree with the generic route")
def test_criterion_5_oracle_equivalence():
    times = 1e-4 * np.arange(1001)
    for sid in ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"):
        model = signals.make_scenario(sid)
        g = frenet.invariants_batch(*signals.eval_arrays(model, times))
        cf = threephase.closed_form_invariants(signals.phase_jets(model, times))
        scale = np.maximum(np.abs(g.rho), g.omega_mag)
        assert np.all(np.abs(cf.rho - g.rho) <= 1e-6 * scale)
        assert np.all(rownorm(cf.omega_vec - g.omega_vec) <= 1e-6 * g.omega_mag)


@criterion("criterion 6: normal-vector identity suite on random jets")
def test_criterion_6_identity_suite():
    rng = np.random.default_rng(6)
    # one (3, 3) draw of v, v', v'' per instant, in the order a loop
    # would draw them; the first 1000 accepted instants are checked
    v, dv, ddv = np.moveaxis(rng.normal(scale=10.0, size=(1200, 3, 3)), 1, 0)
    g = frenet.invariants_batch(v, dv, ddv)
    # reject no rotation, short v, and near-parallel v, v' where n
    # itself is pure cancellation
    ok = ~(g.degenerate | g.no_rotation) & (g.v_mag >= 0.5)
    ok &= ~(g.omega_mag * g.v_mag < 1e-2 * rownorm(dv))
    keep = np.flatnonzero(ok)[:1000]
    assert keep.size == 1000
    v, dv = v[keep], dv[keep]
    w, w_mag, v_mag = g.omega_vec[keep], g.omega_mag[keep], g.v_mag[keep]
    n = dv - g.rho[keep, None] * v
    scale = w_mag * v_mag
    assert np.all(np.abs(rownorm(n) - scale) <= 1e-9 * scale)
    v_back = np.cross(n, w) / (w_mag**2)[:, None]
    assert np.all(rownorm(v_back - v) <= 1e-9 * v_mag)
    w_back = np.cross(v, n) / (v_mag**2)[:, None]
    assert np.all(rownorm(w_back - w) <= 1e-9 * w_mag)


@criterion("criterion 7: first/second derivative reconstruction")
def test_criterion_7_reconstruction():
    for sid in ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"):
        v, dv, ddv, b = _rows(sid, 0.0, 0.1, 1e-3)
        res = dv - (b.rho[:, None] * v + np.cross(b.omega_vec, v))
        assert np.all(rownorm(res) <= 1e-9 * rownorm(dv))
        d = ddv_expansion(v, dv, ddv)
        assert np.all(rownorm(d.residual) <= 1e-9 * rownorm(ddv))
        a2_closed = d.rho_prime + b.rho**2 - b.omega_mag**2
        assert np.all(np.abs(d.a2 - a2_closed) <= 1e-9 * np.abs(d.a2))


@criterion("criterion 8: numerical path accuracy and convergence order")
def test_criterion_8_numerical_path():
    from geomfreq import numdiff

    model = signals.make_scenario("E0")
    errs = {}
    for dt in (2e-4, 1e-4):
        series = signals.sample(model, 0.0, 0.1, dt)
        b = frenet.invariants_batch(*numdiff.differentiate_arrays(series)[1:])
        errs[dt] = np.max(np.abs(b.omega_mag - W_O))
    assert errs[1e-4] <= 1e-3 * W_O
    assert errs[2e-4] / errs[1e-4] >= 8.0


@criterion("criterion 9: Hilbert embedding reproduces phi'")
def test_criterion_9_hilbert_equivalence():
    dt = 1e-4
    # integer number of 50 Hz periods avoids spectral leakage in the
    # discrete Hilbert transform
    t = dt * np.arange(4000)
    u = np.cos(2.0 * math.pi * 50.0 * t)
    report = hilbert.geometric_equivalence(hilbert.analytic_embed(t, dt, u))
    assert report.max_rel_dev <= 1e-9
    n = report.omega_mag.size
    mid = slice(n // 4, 3 * n // 4)
    assert np.all(np.abs(report.omega_mag[mid] - W_O) <= 1e-3 * W_O)
    assert np.all(np.abs(report.phi_dot[mid] - W_O) <= 1e-3 * W_O)


@criterion("criterion 10: rotating-frame derivative identities")
def test_criterion_10_park_suite():
    model = signals.make_scenario("E0")
    for t in (0.0, 0.0051, 0.023):
        t = np.array([t])  # one instant: (1,) times and (1, 3) rows
        v, dv, ddv = signals.eval_arrays(model, t)
        vdq0, dvdq0, _ = park.to_dq0(t, v, dv, ddv, W_O, -math.pi / 2.0)  # synchronous
        rep = park.derivative_frame_check(vdq0, dvdq0, W_O)
        assert abs(rep.delta_omega[0]) <= 1e-6
        assert rep.terms_equal[0]
        # Clarke special case (w_dq = 0): no rotation term at all
        vdq0, dvdq0, _ = park.to_dq0(t, v, dv, ddv, 0.0)
        np.testing.assert_array_equal(park.inertial_derivative(vdq0, dvdq0, 0.0), dvdq0)
    rng = np.random.default_rng(10)
    for _ in range(200):
        vdq0, dvdq0 = rng.normal(scale=10.0, size=(2, 1, 3))
        rep = park.derivative_frame_check(vdq0, dvdq0, W_O)
        assert rep.sum_rel_err[0] <= 1e-9


@criterion("criterion 11: filtered numeric analysis flags imbalance onset")
def test_criterion_11_numeric_imbalance_detection(tmp_path):
    # balanced modulation up to t = 5 s, then phase c switches to the
    # larger modulation amplitude; the waveform is continuous at the
    # switch because the modulation crosses zero there
    from geomfreq import cli_io
    from geomfreq.series import TimeSeries

    dt = 1e-4
    balanced = signals.sample(signals.make_scenario("E6"), 4.5, 5.0 - dt, dt)
    unbalanced = signals.sample(signals.make_scenario("E8"), 5.0, 5.5, dt)
    values = np.vstack([balanced.values, unbalanced.values])
    series = TimeSeries(4.5 + dt * np.arange(len(values)), dt, values)
    wf = tmp_path / "composite.csv"
    out = tmp_path / "analysis.csv"
    cli_io.write_waveform_csv(wf, series)
    rc = cli.main(
        ["analyze", "--csv", str(wf), "--filter-tau", "2e-4", "--out", str(out)]
    )
    assert rc == 0

    rows = []
    for ln in out.read_text().splitlines()[1:]:
        if ln.startswith("#"):
            continue
        cells = ln.split(",")
        rows.append((float(cells[0]), float(cells[2]), float(cells[7])))
    before = [(r, x) for t, r, x in rows if 4.6 <= t <= 4.99]
    during = [(r, x) for t, r, x in rows if 5.02 <= t <= 5.48]
    assert before and during
    for r, x in before:
        assert abs(r) <= 1e-3
        assert abs(x) <= 1e-3
    assert max(max(abs(r), abs(x)) for r, x in during) > 1e-3
