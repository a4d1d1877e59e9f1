"""Per-stage, one-shot and peak-memory figures of one source tree of geomfreq.

    python tools/bench.py TREE --out BENCH_<pr>.json [--scale S]

A tree is a checkout of this repository (a directory holding
``src/geomfreq``).  The tool writes one JSON file with three tables:

- ``stages``: each stage of ROADMAP's per-stage table on a fixed E5
  input of 100,000 rows (1e-4 s apart), in microseconds per sample: the
  best of K calls in each of N fresh processes, and the median and
  quartiles of those N; the hilbert stage runs on the default
  4000-sample tone;
- ``wall_s``: the median and quartiles of the wall time of N fresh
  ``python -m geomfreq.cli`` subprocesses each of ``analyze --scenario
  E7``, ``analyze --csv`` of a 50,000-row E5 recording, ``validate all``
  and ``hilbert``, and of a bare ``import geomfreq.cli``;
- ``peak_rss_mib``: the peak resident set of ``generate``, analytic
  ``analyze`` and numeric ``analyze`` on 1,000,000 E5 samples, each read
  from ``getrusage(RUSAGE_CHILDREN)`` in a wrapper process of its own
  (that field is the largest of every child reaped so far).

K = 3 and N = 10.  It also records the platform, CPU, Python and numpy
versions, the CPUs this process may run on (``nproc``), K, N and S.
Every figure comes from ``perf_counter`` in this process or in a stage
process it starts, or from ``getrusage``.  S scales the three input
sizes and N, to no fewer than 2 processes (S = 0.001 runs in a few
seconds, for a smoke test); the hilbert tone and the fixed argvs keep
their size.

It runs on Linux (``/proc/cpuinfo``, ``ru_maxrss`` in KiB). Subprocesses
run in a new temporary directory and import a copy of <tree>/src made in
it, so every tree is read from a path of the same length: the peak RSS
of the numeric ``analyze`` read 298.0 and 290.4 MiB (one 1M-sample
column apart) for the same sources imported from two different paths,
through where the allocator placed its arrays. PYTHONPYCACHEPREFIX
points at a fresh directory beside the copy and PYTHONDONTWRITEBYTECODE
is unset: the stage processes and one untimed run of each command
compile every module that the timed runs then read from there, whatever
state the tree's own ``__pycache__`` is in. To compare two trees, run
the tool on each, alternating, on one idle host: the figures depend on
the host, and their spread is in the files.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

import numpy as np

K = 3  # calls per stage and process; the best is kept
N = 10  # fresh processes of the stages and per command
STAGE_ROWS = 100_000  # E5 rows of the per-stage input
CSV_ROWS = 50_000  # E5 rows of the recording that ``analyze --csv`` reads
RSS_SAMPLES = 1_000_000  # E5 samples of each peak-memory run
DT = 1e-4  # s, step of the stage input and of the recording
RSS_DT = 1e-5  # s, step of the peak-memory runs
FILTER_TAU = 2e-4  # s, time constant of the lowpass stage
# runs its argv as a child and prints the child's peak RSS (KiB on Linux)
WRAPPER = ("import resource, subprocess, sys; "
           "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
           "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
HERE = pathlib.Path(__file__).resolve().parent
# imports this module from HERE and prints stage_bests(k, rows, tmp) as JSON
STAGE_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench; "
               "print(json.dumps(bench.stage_bests(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])))")


def grid(rows, dt):
    """``--t1`` and ``--dt`` of the grid of ``rows`` points from 0."""
    return "--t1", repr((rows - 1) * dt), "--dt", repr(dt)


def stage_bests(k, rows, tmp):
    """Stage name -> (samples, best of K calls in µs per sample), timed in
    this process; its files go to the directory tmp."""
    from geomfreq import analysis, cli_io, frenet, hilbert, numdiff, signals

    model = signals.make_scenario("E5")
    t1 = (rows - 1) * DT
    times = signals.sample_times(0.0, t1, DT)
    series = signals.sample(model, 0.0, t1, DT)
    v, dv, ddv = signals.eval_arrays(model, times)
    columns, degenerate = analysis.analyze(times, v, dv, ddv)
    recording, table = str(pathlib.Path(tmp, "stage_in.csv")), str(pathlib.Path(tmp, "stage_out.csv"))
    cli_io.write_waveform_csv(recording, series)
    tone_times, u = hilbert.tone(hilbert.TONE_FREQ, hilbert.TONE_T1, hilbert.TONE_DT)
    embedded = hilbert.analytic_embed(tone_times, hilbert.TONE_DT, u)
    calls = {
        "signals.sample": (rows, lambda: signals.sample(model, 0.0, t1, DT)),
        "signals.eval_arrays": (rows, lambda: signals.eval_arrays(model, times)),
        "frenet.invariants_batch": (rows, lambda: frenet.invariants_batch(v, dv, ddv)),
        "analysis.analyze": (rows, lambda: analysis.analyze(times, v, dv, ddv)),
        "cli_io.read_waveform_csv": (rows, lambda: cli_io.read_waveform_csv(recording)),
        "numdiff.lowpass_first_order": (rows, lambda: numdiff.lowpass_first_order(series, FILTER_TAU)),
        "numdiff.differentiate_arrays": (rows, lambda: numdiff.differentiate_arrays(series)),
        "cli_io.write_waveform_csv": (rows, lambda: cli_io.write_waveform_csv(recording, series)),
        "cli_io.write_analysis_csv": (rows, lambda: cli_io.write_analysis_csv(table, columns, degenerate)),
        "hilbert.geometric_equivalence": (len(embedded), lambda: hilbert.geometric_equivalence(embedded)),
    }
    return {name: (samples, min(timeit.repeat(call, number=1, repeat=k)) / samples * 1e6)
            for name, (samples, call) in calls.items()}


def _spread(runs, unit):
    """The median and quartiles of runs, and the runs, keyed by unit."""
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {f"median_{unit}": statistics.median(runs), f"quartiles_{unit}": [q1, q3], f"runs_{unit}": runs}


def stages(k, n, rows, env, tmp):
    """Stage name -> the best of K calls in each of N fresh processes."""
    cmd = (sys.executable, "-c", STAGE_CHILD, str(HERE), str(k), str(rows), str(tmp))
    runs = [json.loads(subprocess.run(cmd, env=env, cwd=tmp, check=True, capture_output=True,
                                      text=True).stdout) for _ in range(n)]
    return {name: {"samples": samples, **_spread([run[name][1] for run in runs], "us_per_sample")}
            for name, (samples, _) in runs[0].items()}


def _run(cmd, env, cwd):
    subprocess.run(cmd, env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL)


def wall(n, csv_rows, env, tmp):
    """Command name -> median, quartiles and every wall time (s) of N
    fresh subprocesses."""
    cli = (sys.executable, "-m", "geomfreq.cli")
    _run((*cli, "generate", "E5", *grid(csv_rows, DT), "--out", "rec.csv"), env, tmp)
    commands = {
        "analyze --scenario E7": (*cli, "analyze", "--scenario", "E7", "--out", "e7.csv"),
        f"analyze --csv ({csv_rows}-row E5)": (*cli, "analyze", "--csv", "rec.csv", "--out", "rec_out.csv"),
        "validate all": (*cli, "validate", "all"),
        "hilbert": (*cli, "hilbert"),
        "import geomfreq.cli": (sys.executable, "-c", "import geomfreq.cli"),
    }
    for cmd in commands.values():  # untimed: fills the bytecode cache
        _run(cmd, env, tmp)
    runs = {name: [] for name in commands}
    for _ in range(n):  # interleaved, so a slow spell of the host hits every command alike
        for name, cmd in commands.items():
            start = time.perf_counter()
            _run(cmd, env, tmp)
            runs[name].append(time.perf_counter() - start)
    return {name: {"argv": list(commands[name][1:]), **_spread(r, "s")} for name, r in runs.items()}


def peak_rss(samples, env, tmp):
    """Run name -> peak RSS (MiB) of one child, from its own wrapper."""
    cli = (sys.executable, "-m", "geomfreq.cli")
    runs = {
        "generate": ("generate", "E5", *grid(samples, RSS_DT), "--out", "big.csv"),
        "analyze (analytic)": ("analyze", "--scenario", "E5", *grid(samples, RSS_DT), "--out", os.devnull),
        "analyze (numeric)": ("analyze", "--csv", "big.csv", "--out", os.devnull),
    }
    out = {}
    for name, argv in runs.items():  # in order: the numeric run reads generate's file
        proc = subprocess.run((sys.executable, "-c", WRAPPER, *cli, *argv), env=env, cwd=tmp,
                              check=True, capture_output=True, text=True)
        out[name] = {"argv": list(argv), "samples": samples, "peak_rss_mib": int(proc.stdout) / 1024}
    return out


def host():
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def _tree(arg):
    path = pathlib.Path(arg).resolve()
    if not (path / "src" / "geomfreq").is_dir():
        raise argparse.ArgumentTypeError(f"{arg}: no src/geomfreq in this tree")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=_tree, metavar="TREE")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--scale", type=float, default=1.0, help="factor on the three input sizes and N (default 1)")
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")
    rows, csv_rows, samples = (max(16, round(x * args.scale)) for x in (STAGE_ROWS, CSV_ROWS, RSS_SAMPLES))
    n = max(2, round(N * args.scale))
    with tempfile.TemporaryDirectory(prefix="bench_") as tmp:
        tmp = pathlib.Path(tmp)
        shutil.copytree(args.tree / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # the untimed runs must write the cache
        report = {
            "host": host(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "k": K,
            "n": n,
            "scale": args.scale,
            "stages": stages(K, n, rows, env, tmp),
            "wall_s": wall(n, csv_rows, env, tmp),
            "peak_rss_mib": peak_rss(samples, env, tmp),
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
