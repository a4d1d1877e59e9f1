"""Command line behavior, CSV formats, exit codes."""

import dataclasses
import math

import numpy as np
import pytest

from geomfreq import cli, cli_io, frenet, hilbert, numdiff, park, signals, validate
from geomfreq.errors import MalformedCsv

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


def test_generate_dc_constant_column(tmp_path):
    out = tmp_path / "dc.csv"
    assert cli.main(["generate", "DC", "--vdc", "5", "--out", str(out)]) == 0
    series = cli_io.read_waveform_csv(out)
    np.testing.assert_array_equal(series.values[:, 0], 5.0)
    np.testing.assert_array_equal(series.values[:, 1:], 0.0)


def test_generate_unknown_scenario_is_usage_error(tmp_path):
    rc = cli.main(["generate", "E9", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


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
    assert cli.main(["analyze", "--csv", str(wf), "--mode", "numeric",
                     "--out", str(out)]) == 0
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
    assert cli.main(["analyze", "--csv", str(wf), "--mode", "numeric",
                     "--out", str(out)]) == 0
    _, rows, _ = _read_analysis(out)
    for row in rows:
        assert abs(row["w"] - W_O) <= 1e-3 * W_O


def test_analyze_wrong_header_is_io_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,a,b,c\n0,1,2,3\n1e-4,1,2,3\n")
    rc = cli.main(["analyze", "--csv", str(bad), "--mode", "numeric",
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 3


def test_analyze_all_degenerate_is_io_error(tmp_path):
    zeros = tmp_path / "zeros.csv"
    lines = ["t,va,vb,vc"]
    for k in range(10):
        lines.append(f"{k * 1e-4},0.0,0.0,0.0")
    zeros.write_text("\n".join(lines) + "\n")
    rc = cli.main(["analyze", "--csv", str(zeros), "--mode", "numeric",
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 3


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


# ---------------------------------------------------------------- validate


def test_validate_all_passes():
    results = validate.run("all")
    assert results and all(r.passed for r in results)


def test_validate_single_scope():
    results = validate.run("geometry")
    assert results and all(r.module == "geometry" for r in results)


def test_validate_cli_exit_codes(capsys):
    assert cli.main(["validate", "geometry"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert cli.main(["validate", "nonsense"]) == 2


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
    monkeypatch.setattr(frenet, "invariants", _nan_on_first_call(frenet.invariants, "rho"))
    failed = [r.name for r in validate.run("park") if not r.passed]
    assert failed == ["invariants unchanged by dq0 round trip"]


def test_geometry_suite_fails_on_nan_inner(monkeypatch):
    monkeypatch.setattr(validate, "inner", _nan_on_first_call(validate.inner))
    results = validate.run("geometry")
    assert results and not all(r.passed for r in results)


def test_park_fails_on_nan_sum_identity(monkeypatch, capsys):
    monkeypatch.setattr(
        park,
        "derivative_frame_check",
        _nan_on_first_call(park.derivative_frame_check, "sum_rel_err"),
    )
    assert cli.main(["park", "--scenario", "E0", "--t1", "0.01", "--dt", "1e-3"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("scope", ["frenet_core", "threephase_forms", "signals", "numdiff"])
def test_validate_suites_read_the_array_route(monkeypatch, scope):
    def unused(*args, **kwargs):
        raise AssertionError("per-sample reference called by an array suite")

    monkeypatch.setattr(frenet, "invariants", unused)
    monkeypatch.setattr(frenet, "rocof", unused)
    monkeypatch.setattr(numdiff, "differentiate", unused)
    results = validate.run(scope)
    assert results and all(r.passed for r in results)


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
    out = tmp_path / "hb.csv"
    rc = cli.main(["hilbert", "--freq", "50", "--out", str(out)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "t,rho,w,xi,phi_dot"


def test_hilbert_grid_is_half_open(tmp_path):
    out = tmp_path / "hb.csv"
    rc = cli.main(["hilbert", "--t1", "0.01", "--dt", "1e-4", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 100 - 4  # samples on [0, t1), less the stencil trim
    assert rows[0].startswith("0.0002,")


def _csv_bytes(header, rows):
    lines = [",".join(header)]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_park_and_hilbert_csv_cells(tmp_path):
    # every cell is the shortest round-trip repr of the value, LF endings
    cfg = park.ParkConfig(w_dq=0.7 * W_O, theta0=0.3)
    out = tmp_path / "dq.csv"
    assert cli.main(
        ["park", "--scenario", "E8", "--wdq", repr(cfg.w_dq), "--theta0", "0.3",
         "--t1", "0.01", "--dt", "1e-3", "--out", str(out)]
    ) == 0
    model = signals.make_scenario("E8")
    rows = [
        (t, *park.to_dq0(signals.eval_jet(model, t), cfg).vdq0)
        for t in signals.sample_times(0.0, 0.01, 1e-3).tolist()
    ]
    assert out.read_bytes() == _csv_bytes(("t", "vd", "vq", "vo"), rows)

    out = tmp_path / "hb.csv"
    assert cli.main(["hilbert", "--t1", "0.01", "--dt", "1e-4", "--out", str(out)]) == 0
    t = signals.sample_times(0.0, 0.01, 1e-4)[:-1]
    rep = hilbert.geometric_equivalence(
        hilbert.analytic_embed(np.cos(2.0 * math.pi * 50.0 * t), 1e-4)
    )
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


BAD_INPUT = [
    # sample step: a usage error before it divides anything
    ("analyze-dt-zero", ["analyze", "--scenario", "E0", "--dt", "0"], 2,
     "dt must be positive"),
    ("analyze-dt-nan", ["analyze", "--scenario", "E0", "--dt", "nan"], 2,
     "dt must be positive"),
    ("park-dt-zero", ["park", "--scenario", "E0", "--dt", "0"], 2, "dt must be positive"),
    ("park-dt-negative", ["park", "--scenario", "E0", "--dt=-1e-3"], 2, "dt must be positive"),
    ("hilbert-dt-zero", ["hilbert", "--dt", "0"], 2, "dt must be positive"),
    ("hilbert-dt-negative", ["hilbert", "--dt=-1e-4"], 2, "dt must be positive"),
    # sampling range: at least 2 finite samples
    ("generate-t1-nan", ["generate", "E0", "--t1", "nan"], 2, "bad range"),
    ("generate-t1-inf", ["generate", "E0", "--t1", "inf"], 2, "bad range"),
    ("park-t1-nan", ["park", "--scenario", "E0", "--t1", "nan"], 2, "bad range"),
    ("park-t0-inf", ["park", "--scenario", "E0", "--t0", "inf"], 2, "bad range"),
    ("park-t1-negative", ["park", "--scenario", "E0", "--t1=-1"], 2, "bad range"),
    ("hilbert-t1-nan", ["hilbert", "--t1", "nan"], 2, "bad range"),
    ("hilbert-t1-inf", ["hilbert", "--t1", "inf"], 2, "bad range"),
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
    # waveform files the numeric path cannot use: a format error
    ("csv-nan-cell", ["analyze", "--csv", "{nan}", "--mode", "numeric"], 3, "NaN or infinite"),
    ("csv-inf-cell", ["analyze", "--csv", "{inf}", "--mode", "numeric"], 3, "NaN or infinite"),
    ("hilbert-csv-nan-cell", ["hilbert", "--csv", "{nan}"], 3, "NaN or infinite"),
    ("csv-four-rows", ["analyze", "--csv", "{short}", "--mode", "numeric"], 3,
     "at least 5 samples"),
    # config files: a value that is not a number names its key; an
    # unparsable file is a format error
    ("config-dt-not-a-number", ["generate", "E0", "--config", "{cfg_dt}"], 2, "sampling.dt"),
    ("config-tau-not-a-number", ["analyze", "--csv", "{good}", "--config", "{cfg_tau}"], 2,
     "filter.tau"),
    ("config-no-section", ["generate", "E0", "--config", "{cfg_bare}"], 3, "section header"),
    # sampling grid over signals.MAX_SAMPLES, refused before allocation
    ("generate-grid-cap", ["generate", "E0", "--t1", "1e300"], 2, "MAX_SAMPLES"),
    ("analyze-grid-cap", ["analyze", "--scenario", "E0", "--t1", "1e300"], 2, "MAX_SAMPLES"),
    ("park-grid-cap", ["park", "--scenario", "E0", "--t1", "1e300"], 2, "MAX_SAMPLES"),
    ("hilbert-grid-cap", ["hilbert", "--t1", "1e300"], 2, "MAX_SAMPLES"),
]


@pytest.mark.parametrize(
    "argv, code, says", [case[1:] for case in BAD_INPUT], ids=[case[0] for case in BAD_INPUT]
)
def test_bad_input_exit_codes(tmp_path, capsys, argv, code, says):
    files = {"good": 64, "nan": 64, "inf": 64, "short": 4}
    cells = {"nan": "nan", "inf": "inf"}
    paths = {}
    for name, rows in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        _waveform(paths[name], rows, cells.get(name, "1.0"))
    configs = {
        "cfg_dt": "[sampling]\ndt = abc\n",
        "cfg_tau": "[filter]\ntau = x\n",
        "cfg_bare": "dt = 1e-4\n",
    }
    for name, text in configs.items():
        paths[name] = tmp_path / f"{name}.ini"
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv]
    if argv[0] in ("analyze", "generate"):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err
