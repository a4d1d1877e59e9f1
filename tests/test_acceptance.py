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
from geomfreq.frenet import Jet2
from geomfreq.geometry import cross, norm
from geomfreq.park import DqoJet, ParkConfig

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


def _jets(scenario_id, t0, t1, dt, **overrides):
    model = signals.make_scenario(scenario_id, **overrides)
    n = int(round((t1 - t0) / dt)) + 1
    return [signals.eval_jet(model, t0 + k * dt) for k in range(n)]


@criterion("criterion 1: stationary positive/negative sequence invariants")
def test_criterion_1_stationary_sequences():
    for j in _jets("E0", 0.0, 0.1, 1e-3):
        g = frenet.invariants(j)
        assert abs(g.rho) <= 1e-9
        assert abs(g.xi) <= 1e-9
        np.testing.assert_allclose(g.omega_vec, [OMEGA_POS] * 3, rtol=1e-6)
        assert abs(g.omega_mag - W_O) <= 1e-9 * W_O
    negative = _jets(
        "E0",
        0.0,
        0.1,
        1e-3,
        theta0=(0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0),
    )
    for j in negative:
        g = frenet.invariants(j)
        np.testing.assert_allclose(g.omega_vec, [-OMEGA_POS] * 3, rtol=1e-6)


@criterion("criterion 2: planarity of E0-E3, torsion present in E4/E5")
def test_criterion_2_planarity_and_torsion():
    for sid in ("E0", "E1", "E2", "E3"):
        for j in _jets(sid, 0.0, 0.1, 1e-4):
            assert abs(frenet.invariants(j).xi) <= 1e-8
    for sid in ("E4", "E5"):
        xi_max = max(
            abs(frenet.invariants(j).xi) for j in _jets(sid, 0.0, 0.04, 1e-4)
        )
        assert xi_max >= 1.0


@criterion("criterion 3: balanced modulation keeps RoCoF conventional")
def test_criterion_3_balanced_time_variant():
    for j in _jets("E6", 0.0, 5.0, 0.01):
        g = frenet.invariants(j)
        assert abs(g.rho) <= 1e-8
        assert abs(g.xi) <= 1e-8
        rc = frenet.rocof(j)
        scale = max(norm(rc.omega_dot), g.omega_mag)
        assert norm(rc.antisym_part) <= 1e-8 * scale
        assert abs(norm(rc.omega_dot) - abs(rc.eta) * g.omega_mag) <= 1e-8 * scale


@criterion("criterion 4: torsional RoCoF in unbalanced modulation")
def test_criterion_4_torsional_rocof():
    for sid in ("E7", "E8"):
        max_gap = 0.0
        for j in _jets(sid, 0.0, 2.5, 1e-3):
            g = frenet.invariants(j)
            if not g.rotation_defined:
                continue
            rc = frenet.rocof(j)
            wd = norm(rc.omega_dot)
            assert norm(rc.residual) <= 1e-8 * max(wd, g.omega_mag)
            if wd > 1e-6:
                max_gap = max(max_gap, abs(wd - abs(rc.eta) * g.omega_mag) / wd)
        assert max_gap >= 0.01


@criterion("criterion 5: closed forms agree with the generic route")
def test_criterion_5_oracle_equivalence():
    for sid in ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"):
        model = signals.make_scenario(sid)
        for k in range(1001):
            t = k * 1e-4
            g = frenet.invariants(signals.eval_jet(model, t))
            cf = threephase.closed_form_invariants(signals.phase_jets(model, t))
            scale = max(abs(g.rho), g.omega_mag)
            assert abs(cf.rho - g.rho) <= 1e-6 * scale
            assert norm(cf.omega_vec - g.omega_vec) <= 1e-6 * g.omega_mag


@criterion("criterion 6: normal-vector identity suite on random jets")
def test_criterion_6_identity_suite():
    rng = np.random.default_rng(6)
    count = 0
    while count < 1000:
        v, dv, ddv = rng.normal(scale=10.0, size=(3, 3))
        j = Jet2(t=0.0, v=v, dv=dv, ddv=ddv)
        g = frenet.invariants(j)
        if not g.rotation_defined or g.v_mag < 0.5:
            continue
        # reject near-parallel v, v' where n itself is pure cancellation
        if g.omega_mag * g.v_mag < 1e-2 * norm(j.dv):
            continue
        count += 1
        scale = g.omega_mag * g.v_mag
        assert abs(g.n_mag - scale) <= 1e-9 * scale
        v_back = cross(g.n_vec, g.omega_vec) / g.omega_mag**2
        assert norm(v_back - j.v) <= 1e-9 * g.v_mag
        w_back = cross(j.v, g.n_vec) / g.v_mag**2
        assert norm(w_back - g.omega_vec) <= 1e-9 * g.omega_mag


@criterion("criterion 7: first/second derivative reconstruction")
def test_criterion_7_reconstruction():
    for sid in ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"):
        for j in _jets(sid, 0.0, 0.1, 1e-3):
            assert norm(frenet.velocity_identity_residual(j)) <= 1e-9 * norm(
                j.dv
            )
            d = frenet.second_derivative_decomposition(j)
            assert norm(d.residual) <= 1e-9 * norm(j.ddv)
            assert abs(d.a2 - d.a2_closed) <= 1e-9 * abs(d.a2)


@criterion("criterion 8: numerical path accuracy and convergence order")
def test_criterion_8_numerical_path():
    from geomfreq import numdiff

    model = signals.make_scenario("E0")
    errs = {}
    for dt in (2e-4, 1e-4):
        series = signals.sample(model, 0.0, 0.1, dt)
        errs[dt] = max(
            abs(frenet.invariants(j).omega_mag - W_O)
            for j in numdiff.differentiate(series)
        )
    assert errs[1e-4] <= 1e-3 * W_O
    assert errs[2e-4] / errs[1e-4] >= 8.0


@criterion("criterion 9: Hilbert embedding reproduces phi'")
def test_criterion_9_hilbert_equivalence():
    dt = 1e-4
    # integer number of 50 Hz periods avoids spectral leakage in the
    # discrete Hilbert transform
    t = dt * np.arange(4000)
    u = np.cos(2.0 * math.pi * 50.0 * t)
    report = hilbert.geometric_equivalence(hilbert.analytic_embed(u, dt))
    assert report.max_rel_dev <= 1e-9
    n = report.omega_mag.size
    mid = slice(n // 4, 3 * n // 4)
    assert np.all(np.abs(report.omega_mag[mid] - W_O) <= 1e-3 * W_O)
    assert np.all(np.abs(report.phi_dot[mid] - W_O) <= 1e-3 * W_O)


@criterion("criterion 10: rotating-frame derivative identities")
def test_criterion_10_park_suite():
    sync = ParkConfig(w_dq=W_O, theta0=-math.pi / 2.0)
    model = signals.make_scenario("E0")
    for t in (0.0, 0.0051, 0.023):
        j = signals.eval_jet(model, t)
        dq = park.to_dq0(t, j.v, j.dv, j.ddv, sync)
        g = park.dq0_invariants(dq, sync)
        assert abs(g.delta_omega) <= 1e-6
        rep = park.derivative_frame_check(dq, sync)
        assert rep.terms_equal
        # Clarke special case: no rotation term at all
        clarke = ParkConfig(w_dq=0.0)
        dq0 = park.to_dq0(t, j.v, j.dv, j.ddv, clarke)
        rep0 = park.derivative_frame_check(dq0, clarke)
        np.testing.assert_array_equal(rep0.inertial_dv, rep0.rotating_dv)
    rng = np.random.default_rng(10)
    for _ in range(200):
        vdq0, dvdq0 = rng.normal(scale=10.0, size=(2, 3))
        rep = park.derivative_frame_check(
            DqoJet(t=0.0, vdq0=vdq0, dvdq0=dvdq0), sync
        )
        assert rep.sum_rel_err <= 1e-9


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
    series = TimeSeries(t0=4.5, dt=dt, channels=("va", "vb", "vc"),
                        values=values)
    wf = tmp_path / "composite.csv"
    out = tmp_path / "analysis.csv"
    cli_io.write_waveform_csv(wf, series)
    rc = cli.main(
        ["analyze", "--csv", str(wf), "--mode", "numeric",
         "--filter-tau", "2e-4", "--out", str(out)]
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
