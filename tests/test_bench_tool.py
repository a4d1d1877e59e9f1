"""tools/bench.py on a tiny input: the JSON it writes has every key, not
any particular time."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
STAGES = {
    "signals.sample", "signals.eval_arrays", "frenet.invariants_batch", "analysis.analyze",
    "cli_io.read_waveform_csv", "numdiff.lowpass_first_order", "numdiff.differentiate_arrays",
    "cli_io.write_waveform_csv", "cli_io.write_analysis_csv", "hilbert.geometric_equivalence",
}
WALL = {"analyze --scenario E7", "analyze --csv (50-row E5)", "validate all", "hilbert",
        "import geomfreq.cli"}
RSS = {"generate", "analyze (analytic)", "analyze (numeric)", "validate all"}


def test_bench_writes_every_table(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), str(ROOT), "--out", str(out), "--scale", "0.001"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report.keys() == {"host", "python", "numpy", "k", "n", "scale", "stages", "wall_s", "peak_rss_mib"}
    assert report["host"].keys() == {"platform", "machine", "cpu", "nproc"}
    assert (report["k"], report["scale"]) == (3, 0.001)
    assert report["stages"].keys() == STAGES
    for row in report["stages"].values():
        assert row.keys() == {"samples", "median_us_per_sample", "quartiles_us_per_sample", "runs_us_per_sample"}
        assert len(row["runs_us_per_sample"]) == report["n"]
    assert report["stages"]["analysis.analyze"]["samples"] == 100
    assert report["wall_s"].keys() == WALL
    for row in report["wall_s"].values():
        assert row.keys() == {"argv", "median_s", "quartiles_s", "runs_s"}
        assert len(row["runs_s"]) == report["n"]
    assert report["peak_rss_mib"].keys() == RSS
    for name, row in report["peak_rss_mib"].items():
        assert row.keys() == {"argv", "samples", "peak_rss_mib"}
        assert row["samples"] == (None if name == "validate all" else 1000)
