"""Command line behavior, CSV formats, exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import geomfreq
from geomfreq import cli, cli_io, frenet, hilbert, park, signals, validate
from geomfreq.errors import MalformedCsv
from geomfreq.geometry import MAX_ANGLE

from cli_help import HELP_80
from conftest import W_O


def _read_analysis(path):
    """Parse an analysis CSV into (header, rows-as-dicts, footer)."""
    lines = path.read_text().splitlines()
    footer = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = []
    for ln in data[1:]:
        cells = ln.split(",")
        rows.append(
            {
                k: (float(c) if c else None)
                for k, c in zip(header, cells)
            }
        )
    return header, rows, footer


# --------------------------------------------------------------- generate


def test_generate_row_count_and_header(tmp_path):
    out = tmp_path / "e0.csv"
    rc = cli.main(
        ["generate", "E0", "--t1", "0.04", "--dt", "1e-4", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,va,vb,vc"
    assert len(lines) == 402  # header + 401 samples


# 5 is dc_model's default level, so only 3 shows that --vdc is applied
@pytest.mark.parametrize("vdc", ["5", "3"])
def test_generate_dc_constant_column(tmp_path, vdc):
    out = tmp_path / "dc.csv"
    assert cli.main(["generate", "DC", "--vdc", vdc, "--out", str(out)]) == 0
    series = cli_io.read_waveform_csv(out)
    np.testing.assert_array_equal(series.values[:, 0], float(vdc))
    np.testing.assert_array_equal(series.values[:, 1:], 0.0)


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert cli.main(["generate", "E5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_with_config(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[scenario]\nid = E0\n\n[sampling]\nt0 = 0\nt1 = 0.01\ndt = 1e-3\n"
    )
    out = tmp_path / "cfg.csv"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 12  # header + 11 samples


# ---------------------------------------------------------------- analyze


def test_analyze_analytic_balanced(tmp_path):
    out = tmp_path / "an.csv"
    rc = cli.main(
        ["analyze", "--scenario", "E0", "--t1", "0.02", "--dt", "1e-3",
         "--out", str(out)]
    )
    assert rc == 0
    header, rows, footer = _read_analysis(out)
    assert header[0] == "t" and "rho" in header and "w" in header
    assert footer == ["# degenerate_samples=0"]
    for row in rows:
        assert abs(row["rho"]) <= 1e-9
        assert abs(row["w"] - W_O) <= 1e-6
        assert abs(row["xi"]) <= 1e-9


def test_analyze_numeric_round_trip_times(tmp_path):
    wf = tmp_path / "wf.csv"
    out = tmp_path / "an.csv"
    assert cli.main(["generate", "E0", "--t1", "0.01", "--dt", "1e-4",
                     "--out", str(wf)]) == 0
    assert cli.main(["analyze", "--csv", str(wf), "--out", str(out)]) == 0
    wf_times = [ln.split(",")[0] for ln in wf.read_text().splitlines()[1:]]
    an_lines = [
        ln for ln in out.read_text().splitlines()[1:] if not ln.startswith("#")
    ]
    an_times = [ln.split(",")[0] for ln in an_lines]
    assert an_times == wf_times[2:-2]  # retained samples, exact strings


def test_analyze_numeric_frequency_accuracy(tmp_path):
    wf = tmp_path / "wf.csv"
    out = tmp_path / "an.csv"
    cli.main(["generate", "E0", "--t1", "0.05", "--dt", "1e-4", "--out", str(wf)])
    assert cli.main(["analyze", "--csv", str(wf), "--out", str(out)]) == 0
    _, rows, _ = _read_analysis(out)
    for row in rows:
        assert abs(row["w"] - W_O) <= 1e-3 * W_O


def test_analyze_dc_emits_empty_rocof_cells(tmp_path):
    out = tmp_path / "dc.csv"
    assert cli.main(["analyze", "--scenario", "DC", "--t1", "0.01",
                     "--dt", "1e-3", "--out", str(out)]) == 0
    _, rows, _ = _read_analysis(out)
    for row in rows:
        assert row["v"] == 5.0
        assert row["eta"] is None and row["rocof1"] is None
        assert row["rotation_defined"] == 0.0


# ------------------------------------------------------------------ CSV IO


def test_waveform_csv_round_trip_bit_exact(tmp_path):
    series = signals.sample(signals.make_scenario("E7"), 0.0, 0.02, 1e-4)
    path = tmp_path / "wf.csv"
    cli_io.write_waveform_csv(path, series)
    back = cli_io.read_waveform_csv(path)
    np.testing.assert_array_equal(back.values, series.values)
    np.testing.assert_array_equal(back.times, series.times)


def test_waveform_csv_accepts_comments(tmp_path):
    path = tmp_path / "wf.csv"
    path.write_text(
        "# exported by a simulator\nt,va,vb,vc\n0.0,1,2,3\n1e-4,1,2,3\n"
    )
    series = cli_io.read_waveform_csv(path)
    assert len(series) == 2


def test_waveform_csv_rejects_jittered_grid(tmp_path):
    path = tmp_path / "wf.csv"
    path.write_text("t,va,vb,vc\n0.0,1,2,3\n1e-4,1,2,3\n2.5e-4,1,2,3\n")
    with pytest.raises(MalformedCsv):
        cli_io.read_waveform_csv(path)


@pytest.mark.parametrize(
    "t0", [0.0, 1.0, 1e6, 8e6, 2.0**23, 1e7, 2e7, MAX_ANGLE / signals.W_BASE - 1.0]
)
def test_generated_files_read_back_at_any_start_time(tmp_path, t0):
    # from 2**23 s on, float64 times are 1.86e-9 s or more apart, so steps
    # of stored times stray from the median by more than 1e-9 s
    path, jittered = tmp_path / "late.csv", tmp_path / "jittered.csv"
    argv = ["--t0", repr(t0), "--t1", repr(t0 + 0.01), "--dt", "1e-4", "--out", str(path)]
    assert cli.main(["generate", "E0", *argv]) == 0
    assert cli.main(["analyze", "--csv", str(path), "--out", str(tmp_path / "an.csv")]) == 0
    lines = path.read_text().splitlines()
    t, rest = lines[10].split(",", 1)
    lines[10] = f"{float(t) + 1e-6!r},{rest}"
    jittered.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedCsv, match="not uniformly spaced"):
        cli_io.read_waveform_csv(jittered)


def test_analyze_reads_crlf_notes_and_a_bom_as_the_plain_file(tmp_path):
    plain, marked = tmp_path / "e5.csv", tmp_path / "e5_marked.csv"
    assert cli.main(["generate", "E5", "--out", str(plain)]) == 0
    lines = plain.read_text().splitlines()
    lines[1:1] = ["# exported by a spreadsheet"]
    lines.insert(len(lines) // 2, "")
    marked.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8-sig"))
    outs = [tmp_path / "plain_out.csv", tmp_path / "marked_out.csv"]
    for src, out in zip((plain, marked), outs):
        assert cli.main(["analyze", "--csv", str(src), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# ---------------------------------------------------------------- validate


def test_validate_cli_exit_codes(capsys):
    assert cli.main(["validate", "geometry"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert cli.main(["validate", "nonsense"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown validation scope 'nonsense'; choose one of: all, geometry, "
        "frenet_core, threephase_forms, signals, numdiff, hilbert, park\n"
    )


@pytest.mark.parametrize(
    "scope, n",
    [("geometry", 3), ("frenet_core", 9), ("threephase_forms", 3), ("signals", 4),
     ("numdiff", 3), ("hilbert", 2), ("park", 3), ("all", 27)],
)
def test_validate_ends_with_its_property_count(capsys, scope, n):
    assert cli.main(["validate", scope]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{n}/{n} properties passed"


@pytest.mark.parametrize(
    "scope, prop",
    [("frenet_core", "reconstruction"),
     ("threephase_forms", "closed-form omega vs Frenet")],
    ids=["frenet_core", "threephase_forms"],
)
def test_validate_detects_flipped_omega_sign(monkeypatch, capsys, scope, prop):
    original = frenet.invariants_batch

    def flipped(*args, **kwargs):
        b = original(*args, **kwargs)
        return dataclasses.replace(b, omega_vec=-b.omega_vec)

    monkeypatch.setattr(frenet, "invariants_batch", flipped)
    rc = cli.main(["validate", scope])
    out = capsys.readouterr().out
    assert rc == 1
    failed = [ln for ln in out.splitlines() if ln.startswith("[FAIL]")]
    assert any(prop in ln for ln in failed)


def test_validate_fails_on_nan_from_the_kernel(monkeypatch):
    original = frenet.invariants_batch

    def poisoned(*args, **kwargs):
        b = original(*args, **kwargs)
        rho = b.rho.copy()
        rho[0] = np.nan
        return dataclasses.replace(b, rho=rho)

    monkeypatch.setattr(frenet, "invariants_batch", poisoned)
    failed = [r.name for r in validate.run("threephase_forms") if not r.passed]
    assert failed == ["closed-form rho vs Frenet"]


def _nan_on_first_call(fn, field=None):
    """fn, but its first result is NaN (or has NaN in ``field``)."""
    calls = []

    def poisoned(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            return out
        return math.nan if field is None else dataclasses.replace(out, **{field: math.nan})

    return poisoned


def test_park_suite_fails_on_nan_invariants(monkeypatch):
    monkeypatch.setattr(
        frenet, "invariants_batch", _nan_on_first_call(frenet.invariants_batch, "rho")
    )
    failed = [r.name for r in validate.run("park") if not r.passed]
    assert failed == ["invariants unchanged by dq0 round trip"]


def test_geometry_suite_fails_on_nan_inner(monkeypatch):
    monkeypatch.setattr(validate, "rowdot", _nan_on_first_call(validate.rowdot))
    results = validate.run("geometry")
    assert results and not all(r.passed for r in results)


@pytest.mark.parametrize("field", ["sum_rel_err", "balanced_identity_err"])
def test_park_fails_on_a_nan_identity_error(monkeypatch, capsys, field):
    """One NaN error at a balanced E0 instant fails the fold it feeds."""
    check = park.derivative_frame_check

    def poisoned(*args):
        rep = check(*args)
        assert rep.balanced.all()
        err = getattr(rep, field).copy()
        err[3] = math.nan
        return dataclasses.replace(rep, **{field: err})

    monkeypatch.setattr(park, "derivative_frame_check", poisoned)
    assert cli.main(["park", "--scenario", "E0", "--t1", "0.01", "--dt", "1e-3"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize(
    "module, bound, argv, prop",
    [
        (hilbert, "MAX_REL_DEV", ["hilbert"], "embedding omega equals classical phi'"),
        (hilbert, "MAX_ABS_XI", ["hilbert"], "embedding torsion is zero"),
        (park, "MAX_SUM_REL_ERR", ["park", "--scenario", "E0", "--t1", "0.01", "--dt", "1e-3"],
         "sum identity of derivative splits"),
    ],
    ids=["hilbert-rel-dev", "hilbert-xi", "park-sum"],
)
def test_cli_and_validate_share_each_pass_bound(monkeypatch, capsys, module, bound, argv, prop):
    """A bound below every error fails the subcommand and its validate
    property together: both read the one constant."""
    scope = argv[0]
    assert cli.main(argv) == 0 and all(r.passed for r in validate.run(scope))
    monkeypatch.setattr(module, bound, -1.0)
    assert cli.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
    assert [(r.name, r.tol) for r in validate.run(scope) if not r.passed] == [(prop, -1.0)]


def _no_per_sample_route(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("per-instant frenet.invariants called on the array route")

    monkeypatch.setattr(frenet, "invariants", unused)


@pytest.mark.parametrize(
    "scope", ["frenet_core", "threephase_forms", "signals", "numdiff", "park"]
)
def test_validate_suites_read_the_array_route(monkeypatch, scope):
    _no_per_sample_route(monkeypatch)
    results = validate.run(scope)
    assert results and all(r.passed for r in results)


def test_park_reads_the_array_route(monkeypatch, capsys):
    # E0 is balanced at every instant in the default frame and in the
    # Clarke frame (--wdq 0), so the balanced identity is checked on each
    _no_per_sample_route(monkeypatch)
    for frame in ([], ["--wdq", "0"]):
        assert cli.main(["park", "--scenario", "E0", "--t1", "0.02", "--dt", "1e-4", *frame]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2].endswith("(checked on 201 of 201 instants)")
        assert out[-1] == "PASS"


def test_park_says_when_no_instant_is_balanced(capsys):
    """E1 is unbalanced at every instant: no worst error is printed for
    the balanced identity, and the sum identity alone decides PASS."""
    assert cli.main(["park", "--scenario", "E1", "--t1", "0.02", "--dt", "1e-4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == "balanced rotating-derivative identity not checked: none of 201 instants is balanced"
    assert out[-1] == "PASS"


def test_park_fails_where_the_balanced_identity_breaks(monkeypatch, capsys):
    """A frame rotation term of the wrong sign leaves the sum identity
    whole, but breaks the balanced identity on every balanced instant."""
    spin = park._spin
    monkeypatch.setattr(park, "_spin", lambda w, x: -spin(w, x))
    assert cli.main(["park", "--scenario", "E0", "--t1", "0.02", "--dt", "1e-4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2].endswith("(checked on 201 of 201 instants)")
    assert out[-1] == "FAIL"


# ------------------------------------------------------------ park/hilbert


def test_park_subcommand(tmp_path, capsys):
    out = tmp_path / "dq.csv"
    rc = cli.main(
        ["park", "--scenario", "E0", "--wdq", str(W_O), "--theta0",
         str(-math.pi / 2.0), "--t1", "0.02", "--dt", "1e-3",
         "--out", str(out)]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "t,vd,vq,vo"
    for ln in lines[1:]:
        _, vd, vq, vo = (float(x) for x in ln.split(","))
        assert vd == pytest.approx(12.0, abs=1e-9)
        assert vq == pytest.approx(0.0, abs=1e-9)
        assert vo == pytest.approx(0.0, abs=1e-9)


def test_hilbert_subcommand(tmp_path, capsys):
    # the default window: every sample but the two the stencil trims at each end
    out = tmp_path / "hb.csv"
    samples = hilbert.tone(hilbert.TONE_FREQ, hilbert.TONE_T1, hilbert.TONE_DT)[0].size
    rc = cli.main(["hilbert", "--freq", "50", "--out", str(out)])
    assert rc == 0
    said = capsys.readouterr().out.splitlines()
    assert said[0] == f"wrote {samples - 4} rows to {out}" and said[-1] == "PASS"
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rho,w,xi,phi_dot" and len(lines) == 1 + samples - 4


def test_hilbert_csv_of_dc_passes(tmp_path, capsys):
    # a straight line: omega_z and phi' are the same rounding residue
    rec = tmp_path / "dc.csv"
    assert cli.main(["generate", "DC", "--out", str(rec)]) == 0
    capsys.readouterr()
    assert cli.main(["hilbert", "--csv", str(rec)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_hilbert_grid_is_half_open(tmp_path):
    out = tmp_path / "hb.csv"
    rc = cli.main(["hilbert", "--t1", "0.01", "--dt", "1e-4", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 100 - 4  # samples on [0, t1), less the stencil trim
    assert rows[0].startswith("0.0002,")


def test_hilbert_csv_writes_the_recordings_own_times(tmp_path):
    # a recording that starts late: hilbert --csv and analyze --csv both
    # report the file's times on the rows the stencil retains
    rec, hb, an = (tmp_path / f"{name}.csv" for name in ("late", "hb", "an"))
    assert cli.main(["generate", "E5", "--t0", "1.0", "--t1", "1.05", "--out", str(rec)]) == 0
    assert cli.main(["hilbert", "--csv", str(rec), "--out", str(hb)]) == 0
    assert cli.main(["analyze", "--csv", str(rec), "--out", str(an)]) == 0
    hb_t, an_t = ([ln.split(",", 1)[0] for ln in path.read_text().splitlines()[1:]
                   if not ln.startswith("#")] for path in (hb, an))
    assert hb_t == an_t and hb_t[0] == "1.0002"


def _csv_bytes(header, rows):
    lines = [",".join(header)]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_park_and_hilbert_csv_cells(tmp_path):
    # every cell is the shortest round-trip repr of the value, LF endings
    w_dq = 0.7 * W_O
    out = tmp_path / "dq.csv"
    assert cli.main(
        ["park", "--scenario", "E8", "--wdq", repr(w_dq), "--theta0", "0.3",
         "--t1", "0.01", "--dt", "1e-3", "--out", str(out)]
    ) == 0
    model = signals.make_scenario("E8")
    rows = []
    for t in signals.sample_times(0.0, 0.01, 1e-3).tolist():
        t_row = np.array([t])  # one instant: (1,) times and (1, 3) rows
        rows.append((t, *park.to_dq0(t_row, *signals.eval_arrays(model, t_row), w_dq, 0.3)[0][0]))
    assert out.read_bytes() == _csv_bytes(("t", "vd", "vq", "vo"), rows)

    out = tmp_path / "hb.csv"
    assert cli.main(["hilbert", "--t1", "0.01", "--dt", "1e-4", "--out", str(out)]) == 0
    t = signals.sample_times(0.0, 0.01, 1e-4)[:-1]
    # the tone is channel 0 of the single-phase model, sin(w t + pi/2)
    u = signals.eval_arrays(signals.single_phase_model(1.0, 2.0 * math.pi * 50.0), t)[0][:, 0]
    rep = hilbert.geometric_equivalence(hilbert.analytic_embed(t, 1e-4, u))
    rows = zip(rep.times, rep.rho, rep.omega_mag, rep.xi, rep.phi_dot)
    assert out.read_bytes() == _csv_bytes(("t", "rho", "w", "xi", "phi_dot"), rows)


# ------------------------------------------------------------- exit codes


def _waveform(path, rows, cell="1.0"):
    """A waveform CSV of ``rows`` samples; the last sample's vb is ``cell``."""
    lines = ["t,va,vb,vc"]
    for k in range(rows):
        vb = cell if k == rows - 1 else "-0.5"
        lines.append(f"{k * 1e-4!r},{math.cos(0.0314 * k)!r},{vb},-0.5")
    path.write_text("\n".join(lines) + "\n")


def _recording(phases, rows=64, dt=1e-4):
    """Lines of a waveform CSV whose k-th sample, at k dt, is ``phases(k)``."""
    return ["t,va,vb,vc\n"] + [
        ",".join(map(repr, (k * dt, *phases(k)))) + "\n" for k in range(rows)
    ]


BAD_INPUT = [
    # sample step: a usage error naming its flag, before it divides anything
    ("analyze-dt-zero", ["analyze", "--scenario", "E0", "--dt", "0"], 2,
     "--dt must be positive and finite"),
    ("analyze-dt-nan", ["analyze", "--scenario", "E0", "--dt", "nan"], 2,
     "--dt must be positive and finite"),
    ("generate-dt-zero", ["generate", "E0", "--dt", "0"], 2, "--dt must be positive and finite"),
    ("park-dt-zero", ["park", "--scenario", "E0", "--dt", "0"], 2,
     "--dt must be positive and finite"),
    ("park-dt-negative", ["park", "--scenario", "E0", "--dt=-1e-3"], 2,
     "--dt must be positive and finite"),
    ("hilbert-dt-zero", ["hilbert", "--dt", "0"], 2, "--dt must be positive and finite"),
    ("hilbert-dt-negative", ["hilbert", "--dt=-1e-4"], 2, "--dt must be positive and finite"),
    # sampling range: at least 2 finite samples
    ("generate-t1-nan", ["generate", "E0", "--t1", "nan"], 2, "bad range"),
    ("generate-t1-inf", ["generate", "E0", "--t1", "inf"], 2, "bad range"),
    ("park-t1-nan", ["park", "--scenario", "E0", "--t1", "nan"], 2, "bad range"),
    ("park-t0-inf", ["park", "--scenario", "E0", "--t0", "inf"], 2, "bad range"),
    ("park-t1-negative", ["park", "--scenario", "E0", "--t1=-1"], 2, "bad range"),
    ("hilbert-t1-nan", ["hilbert", "--t1", "nan"], 2, "bad range"),
    ("hilbert-t1-inf", ["hilbert", "--t1", "inf"], 2, "bad range"),
    # a grid whose last point, rounded to the nearest t1, overflows float64
    ("generate-last-point-overflow", ["generate", "DC", "--t1", "1.5e308", "--dt", "1e308"], 2,
     "bad range"),
    # filter time constant: positive and finite, checked before the filter runs
    ("filter-tau-zero", ["analyze", "--csv", "{good}", "--filter-tau", "0"], 2,
     "--filter-tau"),
    ("filter-tau-negative", ["analyze", "--csv", "{good}", "--filter-tau=-1e-3"], 2,
     "--filter-tau"),
    ("filter-tau-nan", ["analyze", "--csv", "{good}", "--filter-tau", "nan"], 2,
     "--filter-tau"),
    ("filter-tau-inf", ["analyze", "--csv", "{good}", "--filter-tau", "inf"], 2,
     "--filter-tau"),
    # hilbert channel and frequency ranges
    ("hilbert-channel-3", ["hilbert", "--csv", "{good}", "--channel", "3"], 2, "--channel"),
    ("hilbert-channel-negative", ["hilbert", "--csv", "{good}", "--channel", "-1"], 2,
     "--channel"),
    ("hilbert-freq-zero", ["hilbert", "--freq", "0"], 2, "--freq"),
    ("hilbert-freq-negative", ["hilbert", "--freq", "-50"], 2, "--freq"),
    ("hilbert-freq-inf", ["hilbert", "--freq", "inf"], 2, "--freq"),
    # the test tone is built by signals, which refuses an angle past
    # geometry.MAX_ANGLE (a 1e12 Hz tone passed, past 2.5e12 rad; 1e308 Hz leaked
    # two RuntimeWarnings before its exit 2); the 1e308 Hz rate overflows
    # to inf, and its NaN angle inf * 0 at t = 0 is reported as inf
    ("hilbert-freq-angle-past-bound", ["hilbert", "--freq", "1e12"], 2,
     "signal angle 2.51265e+12 rad is past geometry.MAX_ANGLE"),
    ("hilbert-freq-angle-overflow", ["hilbert", "--freq", "1e308"], 2,
     "signal angle inf rad is past geometry.MAX_ANGLE"),
    # a tone at or past the Nyquist frequency 0.5/dt: its samples are those
    # of a lower tone (7000 Hz at 1e-4 s passed with |omega| at 2174 Hz)
    ("hilbert-freq-past-nyquist", ["hilbert", "--freq", "7000"], 2,
     "--freq 7000.0 is at or past the Nyquist limit 0.5/--dt = 5000"),
    ("hilbert-freq-at-nyquist", ["hilbert", "--freq", "5000"], 2,
     "--freq 5000.0 is at or past the Nyquist limit 0.5/--dt = 5000"),
    # an angle within the bound at a rate whose square overflows float64
    ("hilbert-freq-rate-overflow", ["hilbert", "--freq", "1e200", "--t1", "1e-195",
                                    "--dt", "1e-198"], 3, "signal's derivatives overflow float64"),
    # DC level: non-negative and finite, checked before sampling
    ("generate-vdc-inf", ["generate", "DC", "--vdc", "inf"], 2,
     "--vdc must be non-negative and finite"),
    ("generate-vdc-nan", ["generate", "DC", "--vdc", "nan"], 2,
     "--vdc must be non-negative and finite"),
    # waveform files the numeric path cannot use: a format error
    ("csv-nan-cell", ["analyze", "--csv", "{nan}"], 3, "NaN or infinite"),
    ("csv-inf-cell", ["analyze", "--csv", "{inf}"], 3, "NaN or infinite"),
    ("hilbert-csv-nan-cell", ["hilbert", "--csv", "{nan}"], 3, "NaN or infinite"),
    ("numeric-no-csv", ["analyze", "--mode", "numeric"], 2, "numeric mode needs --csv"),
    ("analyze-unknown-scenario", ["analyze", "--scenario", "NOPE"], 2,
     "unknown scenario 'NOPE'"),
    ("generate-unknown-scenario", ["generate", "E9"], 2, "unknown scenario 'E9'"),
    # a route with no scenario, from neither a flag nor a config key
    ("generate-no-scenario", ["generate"], 2, "no scenario given"),
    ("analytic-no-scenario", ["analyze"], 2, "analytic mode needs --scenario"),
    ("csv-four-rows", ["analyze", "--csv", "{short}"], 3, "at least 5 samples"),
    # waveform files the reader rejects, each named in the message
    ("csv-wrong-header", ["analyze", "--csv", "{bad_header}"], 3, "header must be t,va,vb,vc"),
    ("csv-ragged-row", ["analyze", "--csv", "{ragged}"], 3, "expected 4 columns"),
    ("csv-bad-number", ["analyze", "--csv", "{bad_number}"], 3, "bad number"),
    ("csv-empty-file", ["analyze", "--csv", "{empty}"], 3, "empty file"),
    ("csv-jittered-grid", ["analyze", "--csv", "{jitter}"], 3, "not uniformly spaced"),
    # a channel whose analytic envelope vanishes is bad input, not a failed check
    ("hilbert-csv-zero-channel", ["hilbert", "--csv", "{zero_vb}", "--channel", "1"], 3,
     "envelope vanishes"),
    # |v| vanishes at every sample: no row to analyze
    ("csv-all-degenerate", ["analyze", "--csv", "{zeros}"], 3, "every sample is degenerate"),
    # too few samples for the Hilbert transform: a short file is a format
    # error, a short synthetic range a usage error
    ("hilbert-csv-nine-rows", ["hilbert", "--csv", "{nine}"], 3, "at least 16 samples"),
    ("hilbert-t1-short", ["hilbert", "--t1", "0.001"], 2, "at least 16 samples"),
    # park frame speed and angle: finite, from a flag or a config key
    ("park-wdq-nan", ["park", "--scenario", "E0", "--wdq", "nan"], 2, "--wdq"),
    ("park-wdq-inf", ["park", "--scenario", "E0", "--wdq", "inf"], 2, "--wdq"),
    ("park-theta0-nan", ["park", "--scenario", "E0", "--theta0", "nan"], 2, "--theta0"),
    ("config-park-wdq-nan", ["park", "--scenario", "E0", "--config", "{cfg_wdq}"], 2,
     "park.wdq"),
    # a frame angle float64 cannot resolve, or one that overflows it; the
    # dq0 derivatives w_dq v overflow float64 even where the angle is small
    ("park-theta0-past-bound", ["park", "--scenario", "E0", "--theta0", "1e17"], 2,
     "frame angle 1e+17 rad is past geometry.MAX_ANGLE"),
    ("park-wdq-angle-overflow", ["park", "--scenario", "E0", "--wdq", "1e300"], 2,
     "geometry.MAX_ANGLE"),
    # a signal angle float64 cannot resolve (w t near 3e19 rad), which
    # gave rho of 280 1/s on the balanced E0 set
    ("analyze-signal-angle-past-bound",
     ["analyze", "--scenario", "E0", "--t0", "1e17", "--t1", "100000000000000128", "--dt", "16"],
     2, "signal angle 3.14159e+19 rad is past geometry.MAX_ANGLE"),
    ("generate-signal-angle-past-bound",
     ["generate", "E0", "--t0", "1e17", "--t1", "100000000000000128", "--dt", "16"], 2,
     "signal angle 3.14159e+19 rad is past geometry.MAX_ANGLE"),
    # an angle that overflows float64 (it leaked a RuntimeWarning)
    ("analyze-signal-angle-overflow",
     ["analyze", "--scenario", "E6", "--t0", "1e306", "--t1", "1.0000000001e306", "--dt", "1e296"],
     2, "signal angle inf rad is past geometry.MAX_ANGLE"),
    ("park-derivatives-overflow",
     ["park", "--scenario", "E0", "--t1", "1e-205", "--dt", "1e-207", "--wdq", "1e210"], 3,
     "dq0 derivatives of the voltage overflow float64"),
    # config files: a value that is not a number names its key; an
    # unparsable or missing file is a format error
    ("config-dt-not-a-number", ["generate", "E0", "--config", "{cfg_dt}"], 2, "sampling.dt"),
    ("config-dt-zero", ["generate", "E0", "--config", "{cfg_dt_zero}"], 2,
     "sampling.dt must be positive and finite"),
    ("config-tau-not-a-number", ["analyze", "--csv", "{good}", "--config", "{cfg_tau}"], 2,
     "filter.tau"),
    ("config-tau-zero", ["analyze", "--csv", "{good}", "--config", "{cfg_tau_zero}"], 2,
     "filter.tau"),
    ("config-no-section", ["generate", "E0", "--config", "{cfg_bare}"], 3, "section header"),
    ("config-not-found", ["generate", "E0", "--config", "{cfg_missing}"], 3,
     "config file not found: {cfg_missing}"),
    # text that is not UTF-8 is a format error naming the file, whether the
    # bad byte is in the first block of a recording or a later one
    ("csv-not-utf8", ["analyze", "--csv", "{not_utf8}"], 3, "{not_utf8}: not UTF-8 text"),
    ("csv-not-utf8-late", ["analyze", "--csv", "{not_utf8_late}"], 3,
     "{not_utf8_late}: not UTF-8 text"),
    ("hilbert-csv-not-utf8", ["hilbert", "--csv", "{not_utf8}"], 3,
     "{not_utf8}: not UTF-8 text"),
    ("config-not-utf8", ["generate", "E0", "--config", "{cfg_not_utf8}"], 3,
     "{cfg_not_utf8}: not UTF-8 text"),
    # a recording whose scale overflows float64 where a sample is not
    # degenerate: |v|^2, |v x v'|^2 (a tau of -0.0 otherwise), the stencil,
    # the Hilbert transform, the analytic envelope or, from a 1e152 V tone
    # on, v' x v'' of the embedded curve
    ("csv-overflow-v-squared", ["analyze", "--csv", "{huge}"], 3,
     "invariants overflow float64"),
    ("csv-overflow-tau-denominator", ["analyze", "--csv", "{balanced_1e80}"], 3,
     "invariants overflow float64"),
    ("csv-overflow-stencil", ["analyze", "--csv", "{huge_1e307}"], 3,
     "derivatives of the samples overflow float64"),
    ("hilbert-csv-overflow-invariants", ["hilbert", "--csv", "{tone_1e152}"], 3,
     "embedded curve's invariants overflow float64"),
    ("hilbert-csv-overflow-envelope", ["hilbert", "--csv", "{huge}"], 3,
     "envelope or its phase rate overflows float64"),
    ("hilbert-csv-overflow-stencil", ["hilbert", "--csv", "{huge_1e305}"], 3,
     "derivatives of the samples overflow float64"),
    ("hilbert-csv-overflow-transform", ["hilbert", "--csv", "{huge_1e307}"], 3,
     "Hilbert transform overflows float64"),
    # a step whose square overflows float64 (a float's ** raised
    # OverflowError, a traceback with exit 1)
    ("csv-overflow-step-square", ["analyze", "--csv", "{step_2e154}"], 3,
     "stencil step dt = 2e+154 s squared overflows float64"),
    ("hilbert-csv-overflow-step-square", ["hilbert", "--csv", "{step_2e154}"], 3,
     "stencil step dt = 2e+154 s squared overflows float64"),
    # the zero-sequence removal or the low-pass filter of finite samples
    # overflows: the same one finiteness check as a recording's samples
    ("csv-overflow-zero-sequence", ["analyze", "--csv", "{huge_sum}", "--remove-zero-seq"], 3,
     "values computed from the samples overflow float64"),
    ("csv-overflow-filter", ["analyze", "--csv", "{huge_sum}", "--filter-tau", "2e-4"], 3,
     "values computed from the samples overflow float64"),
    # sampling grid over signals.MAX_SAMPLES, refused before allocation
    ("generate-grid-cap", ["generate", "E0", "--t1", "1e300"], 2, "MAX_SAMPLES"),
    ("analyze-grid-cap", ["analyze", "--scenario", "E0", "--t1", "1e300"], 2, "MAX_SAMPLES"),
    ("park-grid-cap", ["park", "--scenario", "E0", "--t1", "1e300"], 2, "MAX_SAMPLES"),
    ("hilbert-grid-cap", ["hilbert", "--t1", "1e300"], 2, "MAX_SAMPLES"),
    # a flag the chosen route would not read: a usage error that names it
    ("generate-vdc-not-dc", ["generate", "E0", "--vdc", "3"], 2, "--vdc is not read"),
    ("analytic-filter-tau", ["analyze", "--scenario", "E0", "--filter-tau", "0"], 2,
     "--filter-tau is not read"),
    ("analytic-remove-zero-seq", ["analyze", "--scenario", "E0", "--remove-zero-seq"], 2,
     "--remove-zero-seq is not read"),
    ("analytic-csv", ["analyze", "--mode", "analytic", "--scenario", "E0", "--csv", "{good}"],
     2, "--csv is not read"),
    ("numeric-scenario", ["analyze", "--csv", "{good}", "--scenario", "E9"], 2,
     "--scenario is not read"),
    ("numeric-t0", ["analyze", "--csv", "{good}", "--t0", "0"], 2, "--t0 is not read"),
    ("numeric-t1", ["analyze", "--csv", "{good}", "--t1", "5"], 2, "--t1 is not read"),
    ("numeric-dt", ["analyze", "--csv", "{good}", "--dt", "1e-4"], 2, "--dt is not read"),
    ("hilbert-csv-freq", ["hilbert", "--csv", "{good}", "--freq", "60"], 2,
     "--freq is not read"),
    ("hilbert-csv-t1", ["hilbert", "--csv", "{good}", "--t1", "0.001"], 2, "--t1 is not read"),
    ("hilbert-csv-dt", ["hilbert", "--csv", "{good}", "--dt", "1e-4"], 2, "--dt is not read"),
    ("hilbert-tone-channel", ["hilbert", "--channel", "1"], 2, "--channel is not read"),
]


@pytest.mark.parametrize(
    "argv, code, says", [case[1:] for case in BAD_INPUT], ids=[case[0] for case in BAD_INPUT]
)
def test_bad_input_exit_codes(tmp_path, capsys, argv, code, says):
    argv, paths = bad_input_argv(argv, tmp_path)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says.format(**paths) in err


def bad_input_argv(argv, tmp_path):
    """A ``BAD_INPUT`` argv made runnable in tmp_path: the input files it
    names written there, its placeholders filled in, and an --out file
    for the commands that write one.  Returns (argv, paths by name)."""
    files = {"good": 64, "nan": 64, "inf": 64, "short": 4, "nine": 9}
    cells = {"nan": "nan", "inf": "inf"}
    paths = {}
    for name, rows in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        _waveform(paths[name], rows, cells.get(name, "1.0"))
    configs = {
        "cfg_dt": "[sampling]\ndt = abc\n",
        "cfg_dt_zero": "[sampling]\ndt = 0\n",
        "cfg_tau": "[filter]\ntau = x\n",
        "cfg_tau_zero": "[filter]\ntau = 0\n",
        "cfg_bare": "dt = 1e-4\n",
        "cfg_wdq": "[park]\nwdq = nan\n",
    }
    for name, text in configs.items():
        paths[name] = tmp_path / f"{name}.ini"
        paths[name].write_text(text)
    paths["cfg_missing"] = tmp_path / "cfg_missing.ini"  # named, never written
    good = paths["good"].read_text().splitlines(keepends=True)
    t_jitter, rest = good[10].split(",", 1)
    waveforms = {
        "bad_header": ["t,va,vb,vx\n", *good[1:]],
        "ragged": [*good, "0.0064,1.0,-0.5\n"],
        "bad_number": [*good[:5], good[5].replace(",-0.5,", ",-0.5e,"), *good[6:]],
        "empty": ["# no header, no rows\n"],
        "jitter": [*good[:10], f"{float(t_jitter) + 1e-7!r},{rest}", *good[11:]],
        "zero_vb": [ln.replace(",-0.5,", ",0.0,") for ln in good[:-1]],
        "zeros": _recording(lambda k: (0.0, 0.0, 0.0)),
        "tone_1e152": _recording(
            lambda k: (1e152 * math.cos(2.0 * math.pi * 50.0 * k * 1e-4), 0.0, 0.0), rows=400
        ),
        "huge": _recording(lambda k: (1e300 * math.cos(0.3 * k), 0.0, 0.0)),
        "huge_1e305": _recording(lambda k: (1e305 * math.cos(0.3 * k), 0.0, 0.0)),
        "huge_1e307": _recording(lambda k: (1e307 * math.cos(0.3 * k), 0.0, 0.0)),
        "huge_sum": _recording(lambda k: ((-1) ** (k + 1) * 1e308, -1.5e308, -1.5e308)),
        "step_2e154": _recording(lambda k: (math.cos(0.3 * k), 0.0, 0.0), dt=2e154),
        "balanced_1e80": _recording(
            lambda k: [1e80 * math.cos(W_O * k * 1e-4 - p) for p in (0.0, 2.0944, -2.0944)]
        ),
    }
    for name, lines in waveforms.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("".join(lines))
    long = "".join(_recording(lambda k: (1.0, -0.5, -0.5), rows=3 * cli_io.BLOCK_ROWS))
    undecodable = {
        "not_utf8.csv": b"t,va,vb,vc\n0,1,2,\xff\n1e-4,1,2,3\n",
        "not_utf8_late.csv": long.encode()[:-2] + b"\xff\n",
        "cfg_not_utf8.ini": b"[sampling]\ndt = 1e-4\xff\n",
    }
    for name, data in undecodable.items():
        path = tmp_path / name
        paths[path.stem] = path
        path.write_bytes(data)
    argv = [a.format(**paths) for a in argv]
    if argv[0] in ("analyze", "generate"):
        argv += ["--out", str(tmp_path / "out.csv")]
    return argv, paths


@pytest.mark.parametrize(
    "ini, argv, same_as",
    [
        ("[scenario]\nid = E6\n[sampling]\nt0 = 0.0\nt1 = 0.05\ndt = 2e-4\n",
         ["analyze", "--csv", "{rec}"], ["analyze", "--csv", "{rec}"]),
        ("[scenario]\nid = E0\n[sampling]\nt1 = 0.01\n[filter]\ntau = 0\n",
         ["analyze"], ["analyze", "--scenario", "E0", "--t1", "0.01"]),
    ],
    ids=["numeric-scenario-and-sampling", "analytic-filter"],
)
def test_config_keys_the_route_does_not_read_are_ignored(tmp_path, ini, argv, same_as):
    """One INI serves several commands, so a key the chosen route does not
    read is never refused, where its flag would be."""
    rec, cfg = tmp_path / "rec.csv", tmp_path / "run.ini"
    out, plain = tmp_path / "out.csv", tmp_path / "plain.csv"
    _waveform(rec, 64)
    cfg.write_text(ini)
    argv, same_as = ([a.format(rec=rec) for a in x] for x in (argv, same_as))
    assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main([*same_as, "--out", str(plain)]) == 0
    assert out.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    "ini, argv, flags",
    [
        ("[park]\nwdq = 300\ntheta0 = 0.7\n", ["park", "--scenario", "E8"],
         ["--wdq", "300", "--theta0", "0.7"]),
        ("[sampling]\nt0 = 0.0\nt1 = 0.05\ndt = 2e-4\n[filter]\ntau = 4e-4\n",
         ["generate", "E6"], ["--t0", "0.0", "--t1", "0.05", "--dt", "2e-4"]),
        ("[scenario]\nid = E6\n[sampling]\nt1 = 0.05\n[filter]\ntau = 4e-4\n",
         ["analyze", "--csv", "{rec}"], ["--filter-tau", "4e-4"]),
    ],
    ids=["park-frame", "generate-sampling", "numeric-filter"],
)
def test_config_keys_write_what_their_flags_write(tmp_path, ini, argv, flags):
    """A key the route reads writes the bytes of its flag, and those differ
    from the bytes of the default it replaces."""
    rec, cfg = tmp_path / "rec.csv", tmp_path / "run.ini"
    _waveform(rec, 64)
    cfg.write_text(ini)
    argv = [a.format(rec=rec) for a in argv]
    outs = [tmp_path / f"{name}.csv" for name in ("config", "flags", "default")]
    for extra, out in zip((["--config", str(cfg)], flags, []), outs):
        assert cli.main([*argv, *extra, "--out", str(out)]) == 0
    config, flagged, default = (out.read_bytes() for out in outs)
    assert config == flagged != default


# --------------------------------------------------------- shared parser


@pytest.fixture
def fresh_parser():
    """Each test starts and ends with no parser built."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def _call(argv, out=None):
    """rc, stdout, stderr and the output file's bytes of one main call."""
    if out is not None and out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    data = out.read_bytes() if out is not None and out.exists() else None
    return rc, stdout.getvalue(), stderr.getvalue(), data


def test_calls_on_the_shared_parser_match_a_fresh_parser(tmp_path, fresh_parser):
    rec = tmp_path / "e5.csv"
    e5 = signals.sample(signals.make_scenario("E5"), 0.0, 0.02, 1e-4)
    cli_io.write_waveform_csv(rec, e5)
    an, hb = tmp_path / "an.csv", tmp_path / "hb.csv"
    calls = [
        (["analyze", "--csv", str(rec), "--filter-tau", "2e-4", "--remove-zero-seq",
          "--out", str(an)], an),
        (["analyze", "--csv", str(rec), "--out", str(an)], an),
        (["hilbert", "--csv", str(rec), "--channel", "1", "--out", str(hb)], hb),
        (["hilbert"], None),
        (["analyze", "--csv", str(rec), "--mode", "exact"], None),
        (["analyze", "--scenario", "E8", "--t1", "0.02", "--out", str(an)], an),
    ]
    shared = [_call(argv, out) for argv, out in calls]
    fresh = []
    for argv, out in calls:
        cli.build_parser.cache_clear()
        fresh.append(_call(argv, out))
    assert [r[0] for r in shared] == [0, 0, 0, 0, 2, 0]
    assert "invalid choice: 'exact'" in shared[4][2]
    assert shared[0][3] != shared[1][3]  # the flags of the first call did not stick
    for argv_out, a, b in zip(calls, shared, fresh):
        assert a == b, argv_out[0]


def test_parser_is_built_on_the_first_call_only(monkeypatch, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["validate", "geometry"]) == 0
    assert len(built) == 6  # the top level and its five subcommands
    assert cli.main(["validate", "geometry"]) == 0
    assert len(built) == 6


def test_parser_is_not_built_at_import():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(geomfreq.__file__)))
    code = "import geomfreq.cli as c; print(c.build_parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "0\n"


# what a console run imports, and then runs, in one fresh interpreter
COLD_PATH = """
import json, sys
import argparse, numpy
before = set(sys.modules)
import geomfreq.cli
loaded = sorted(set(sys.modules) - before)
rcs = [geomfreq.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([loaded, rcs]))
"""


def test_a_console_run_imports_only_what_its_subcommand_runs(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario]\nid = E6\n[sampling]\nt1 = 0.01\n")
    argvs = [["validate", "geometry"], ["park", "--t1", "0.01", "--dt", "1e-3"],
             ["hilbert", "--t1", "0.04"],
             ["generate", "--config", str(cfg), "--out", str(tmp_path / "e6.csv")]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(geomfreq.__file__)))
    proc = subprocess.run([sys.executable, "-c", COLD_PATH, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    loaded, rcs = json.loads(proc.stdout.splitlines()[-1])
    deferred = {"geomfreq.validate", "geomfreq.park", "geomfreq.hilbert",
                "geomfreq.threephase", "configparser"}
    assert deferred.isdisjoint(loaded) and "geomfreq.signals" in loaded
    assert rcs == [0, 0, 0, 0]


def test_command_rebound_after_the_first_call_is_the_one_that_runs(monkeypatch, capsys):
    assert cli.main(["validate", "geometry"]) == 0
    scopes = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: scopes.append(args.scope) or 7)
    assert cli.main(["validate", "park"]) == 7
    assert scopes == ["park"]


@pytest.mark.parametrize("command", list(HELP_80), ids=lambda c: c or "top")
def test_help_text_is_unchanged(monkeypatch, capsys, fresh_parser, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [*command.split(), "--help"]
    for _ in ("fresh", "shared"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == HELP_80[command]
