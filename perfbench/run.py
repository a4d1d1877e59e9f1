"""geomfreq benchmark: CLI workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the benchmark imports geomfreq from the ``src/`` next to
this directory and works in ``.bench_build/perfbench/`` under the same root.

Load is a closed loop from one client: one process, one thread, and each op
is one ``geomfreq.cli.main(argv)`` call started when the previous one has
returned and its output has been checked.  The ops' inputs are generated
from the seed before any timing (see workloads.py).  Each op's wall time
covers the ``main`` call only; checks run outside it.

--trace 0 times the workload for ``--seconds`` and reports the end-to-end
metrics.  The host these figures are taken on is shared, and its speed
drifts by tens of percent over seconds to minutes; so a short fixed loop
is timed just before and just after each op and each cold start, and the
timing figures are scaled to a reference host, one on which that loop
takes REF_CALIB_S (see ``host_factor``).  The unscaled figures are printed
too.  --trace 1 times it untraced for half the time, then traced (see
tracer.py) for the other half, and reports the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

# Fixed before numpy loads, here and in the cold-start children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

LAYERS = (
    "cli", "cli_io", "signals", "numdiff", "analysis", "frenet",
    "geometry", "threephase", "hilbert", "park", "validate",
)
ANALYZE_KINDS = ("analyze_csv", "analyze_scenario")
SETUP_STARTS = 15  # timed cold starts per run, after one untimed
CALIB_LOOPS = 20_000  # iterations of the host-speed loop timed around each op
REF_CALIB_S = 2.0e-3  # the loop's time on the reference host
RUN_CALIB_LOOPS = 500_000  # the same loop before and after a run, as metadata
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
# printed, but left out of the result line: on a shared host the tail
# moves with the other tenants' load more than any bound could allow, and
# the unscaled figures move with the host's speed
PRINTED_ONLY = ("op_tail_s", "throughput_raw_sps", "op_p50_raw_s", "setup_raw_s")

# After the timed import, the child times the host-speed loop on the CPU
# it ran on; that tracks the cold start's speed better than a loop in this
# process does.
COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import geomfreq.cli, geomfreq; print(geomfreq.__file__, flush=True); "
    "sys.path.insert(0, sys.argv[2]); import run; print(run.calibrate())"
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def _under_src(path):
    return os.path.abspath(path).startswith(os.path.join(SRC, "geomfreq") + os.sep)


def cold_start():
    """Seconds from starting a fresh interpreter to geomfreq.cli imported:
    (scaled to the reference host, as measured)."""
    calib = calibrate()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", COLD_START, SRC, HERE],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        child_calib = proc.stdout.read()
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SetupError("cold-start child did not exit")
    if rc != 0 or not _under_src(line.strip()):
        raise SetupError(f"cold start imported geomfreq from {line.strip()!r}")
    return elapsed / host_factor(calib, float(child_calib)), elapsed


def import_geomfreq():
    sys.path.insert(0, SRC)
    package = importlib.import_module("geomfreq")
    if not _under_src(package.__file__):
        raise SetupError(f"geomfreq imported from {package.__file__}")
    mods = {name: importlib.import_module(f"geomfreq.{name}") for name in LAYERS}
    return package, mods


def calibrate(loops=CALIB_LOOPS):
    """Seconds a fixed pure-Python loop takes: how fast the host is now."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(loops):
        acc += math.sin(k * 1e-3)
    return time.perf_counter() - start


def host_factor(calib_before, calib_after):
    """How many times slower than the reference host the host ran, from
    the loop timed before and after a measurement.  Over ten-second
    windows of analytic_fm ops, scaling by it cut the spread of
    throughput from 0.26 to 0.05: the host's slow phases slow the loop
    and the program alike."""
    return (calib_before + calib_after) / (2.0 * REF_CALIB_S)


def run_op(op, gf, tracer=None, op_id=0, tamper=None):
    """Run one op, time its ``main`` call and check its output."""
    if op.out and os.path.exists(op.out):
        os.remove(op.out)
    out_buf, err_buf = io.StringIO(), io.StringIO()
    main = gf.cli.main
    calib = calibrate()
    with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
        if tracer:
            tracer.op_id = op_id
            tracer.active = True
        start = time.perf_counter()
        try:
            rc = main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err_buf.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if tracer:
            tracer.active = False
            tracer.end_op()
    host = host_factor(calib, calibrate())
    if tamper:
        tamper(op)
    if rc is None:
        error, stats = "raised: " + err_buf.getvalue().strip().split("\n")[-1], None
    else:
        try:
            error, stats = op.check(rc, out_buf.getvalue(), gf)
        except Exception as exc:  # a corrupted output can break the parser
            error, stats = f"check raised {exc!r}", None
    if error and rc:
        error += f" ({err_buf.getvalue().strip()[-200:]})"
    result = {"kind": op.kind, "wall": wall, "ref_wall": wall / host, "host": host,
              "samples": op.samples, "error": error}
    result.update(stats or {})
    if op.input_path:
        result["in_bytes"] = os.path.getsize(op.input_path)
    if op.kind in ANALYZE_KINDS and op.out and os.path.exists(op.out):
        result["out_bytes"] = os.path.getsize(op.out)
    return result


def run_loop(ops, gf, seconds, tracer=None, tamper=None, setup=None):
    """Closed loop cycling through the op pool for ``seconds``, and at
    least once through the whole pool.

    With a ``setup`` list, SETUP_STARTS cold starts are made between ops,
    spread over the loop, and appended to it; spread out, they meet the
    same host phases as the ops instead of the few seconds before them.
    """
    results = []
    start = time.perf_counter()
    k = 0
    while k < len(ops) or time.perf_counter() - start < seconds:
        results.append(run_op(ops[k % len(ops)], gf, tracer, k + 1, tamper))
        k += 1
        elapsed = time.perf_counter() - start
        if setup is not None and len(setup) < min(1.0, elapsed / seconds) * SETUP_STARTS:
            setup.append(cold_start())
    while setup is not None and len(setup) < SETUP_STARTS:
        setup.append(cold_start())
    return results


def _sum(results, key):
    return sum(r.get(key, 0) for r in results)


def throughput(results, wall="ref_wall"):
    """Input samples over summed wall time (scaled to the reference host,
    or as measured with ``wall="wall"``), over the ops that passed."""
    ok = [r for r in results if not r["error"]]
    return _sum(ok, "samples") / _sum(ok, wall) if ok else 0.0


def tail(walls):
    """(value, percentile, ops beyond) at the highest percentile with
    TAIL_BEYOND ops beyond it; the maximum when there are too few ops."""
    srt = sorted(walls)
    n = len(srt)
    if n <= TAIL_BEYOND:
        return srt[-1], 100.0, 0
    return srt[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(results, setup):
    ok = [r for r in results if not r["error"]]
    walls = [r["ref_wall"] for r in ok] or [math.inf]
    raw_walls = [r["wall"] for r in ok] or [math.inf]
    tail_s, tail_pct, beyond = tail(walls)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "throughput_sps": (throughput(results), "samples/s", f"over {len(walls)} ops"),
        "op_p50_s": (statistics.median(walls), "s", f"median of {len(walls)} ops"),
        "op_tail_s": (
            tail_s, "s",
            f"p{tail_pct:.1f}, {beyond} of {len(walls)} ops beyond; not in the result line",
        ),
        "peak_rss_mb": (rss_mib, "MiB", "ru_maxrss of this process"),
        "setup_s": (
            statistics.median(s for s, _ in setup), "s",
            f"median of {len(setup)} cold starts",
        ),
        "throughput_raw_sps": (
            throughput(results, "wall"), "samples/s", "unscaled; not in the result line",
        ),
        "op_p50_raw_s": (
            statistics.median(raw_walls), "s", "unscaled; not in the result line",
        ),
        "setup_raw_s": (
            statistics.median(r for _, r in setup), "s", "unscaled; not in the result line",
        ),
    }
    hosts = [r["host"] for r in results]
    return metrics, {"tail_percentile": tail_pct, "timed_ops": len(walls),
                     "host_factor_min": min(hosts),
                     "host_factor_median": statistics.median(hosts),
                     "host_factor_max": max(hosts)}


def per_layer(untraced, traced, tracer, suites):
    wall_ns = _sum(traced, "wall") * 1e9
    samples = _sum(traced, "samples")
    by_layer = tracer.by_layer()

    def stat(name):
        return tracer.stats.get(name, [0, 0, 0])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    share_sum = 0.0
    for layer in LAYERS:
        calls, self_ns = by_layer[layer]
        share = self_ns / wall_ns
        share_sum += share
        metrics[f"{layer}.self_us_per_sample"] = (self_ns / 1e3 / samples, "us", "")
        metrics[f"{layer}.self_share"] = (share, "ratio", "")
        metrics[f"{layer}.calls_per_sample"] = (calls / samples, "count", "")
    metrics["layers.self_share_sum"] = (share_sum, "ratio", "")
    analyze_rows = sum(r.get("rows", 0) for r in traced if r["kind"] in ANALYZE_KINDS)
    metrics["frenet.invariants.calls_per_row"] = (
        ratio(stat("frenet.invariants")[0], analyze_rows), "count", ""
    )
    metrics["geometry.vec3.calls_per_sample"] = (
        stat("geometry.vec3")[0] / samples, "count", ""
    )
    metrics["analysis.degenerate_ratio"] = (
        ratio(_sum(traced, "degenerate"), analyze_rows), "ratio", ""
    )
    metrics["analysis.no_rotation_ratio"] = (
        ratio(_sum(traced, "no_rotation"), analyze_rows), "ratio", ""
    )
    in_bytes, out_bytes = _sum(traced, "in_bytes"), _sum(traced, "out_bytes")
    metrics["cli_io.bytes_read_per_sample"] = (in_bytes / samples, "B", "")
    metrics["cli_io.bytes_written_per_sample"] = (out_bytes / samples, "B", "")
    metrics["cli_io.read_MBps"] = (
        ratio(in_bytes * 1e3, stat("cli_io.read_waveform_csv")[1]), "MB/s", ""
    )
    metrics["cli_io.write_MBps"] = (
        ratio(out_bytes * 1e3, stat("cli_io.write_analysis_csv")[1]), "MB/s", ""
    )
    for suite in workloads.VALIDATE_SUITES:
        calls, _, self_ns = stat(f"validate.{suites.get(suite, '')}")
        metrics[f"validate.{suite}.self_s"] = (
            ratio(self_ns / 1e9, calls), "s", "per run of the suite"
        )
    metrics["tracing_overhead"] = (
        throughput(traced) / throughput(untraced), "ratio",
        "traced / untraced throughput",
    )
    return metrics


def host_metadata(gf_numpy_version):
    meta = {
        "python": platform.python_version(),
        "numpy": gf_numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    meta["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    meta["l2_cache"] = meta["l3_cache"] = None
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                meta[f"l{level}_cache"] = size
    except OSError:
        pass
    return meta


def run(workload, seed, seconds, trace, tamper=None):
    """Generate, warm up, time and check one workload; returns the result
    object, the printable metric rows and the run record.  ``tamper(op)``,
    if given, runs after each op and before its check."""
    run_dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        ops = workloads.make_ops(workload, seed, run_dir)
        cold_start()  # untimed: loads the interpreter and numpy from disk
        package, mods = import_geomfreq()
        gf = type("GF", (), mods)
        import numpy

        meta = host_metadata(numpy.__version__)
        meta.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                    pool=len(ops), calib_before_s=calibrate(RUN_CALIB_LOOPS))
        warm = run_op(ops[0], gf, tamper=tamper)  # untimed
        if not trace:
            setup = []
            timed = run_loop(ops, gf, seconds, tamper=tamper, setup=setup)
            metrics, extra = end_to_end(timed, setup)
            extra["setup_samples_s"] = [s for s, _ in setup]
            all_ops = [warm] + timed
            record = {"ops": timed}
        else:
            untraced = run_loop(ops, gf, seconds / 2.0, tamper=tamper)
            suites = {k: fn.__name__ for k, fn in mods["validate"]._SUITES.items()}
            tracer = Tracer(mods)
            tracer.install(extra_namespaces=(package,))
            try:
                traced = run_loop(ops, gf, seconds / 2.0, tracer, tamper)
            finally:
                tracer.uninstall()
            metrics = per_layer(untraced, traced, tracer, suites)
            extra = {"untraced_ops": len(untraced), "traced_ops": len(traced),
                     "spans_kept": len(tracer.spans),
                     "spans_dropped": tracer.spans_dropped}
            all_ops = [warm] + untraced + traced
            tracer.write_spans(os.path.join(WORK, f"{workload}-spans.csv"))
            record = {"ops": traced, "functions": tracer.stats}
        meta.update(extra, calib_after_s=calibrate(RUN_CALIB_LOOPS))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failures = [r["error"] for r in all_ops if r["error"]]
    result = {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": {
            k: {"value": v, "unit": u}
            for k, (v, u, _) in metrics.items()
            if k not in PRINTED_ONLY
        },
    }
    record.update(result=result, meta=meta,
                  metrics={k: {"value": v, "unit": u, "note": n}
                           for k, (v, u, n) in metrics.items()},
                  failures=failures[:20])
    return result, metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "geomfreq", "cli.py")):
        print(f"perfbench: no geomfreq sources at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        result, metrics, record = run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(WORK, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for err in record["failures"][:5]:
        print(f"perfbench: failed op: {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:10s} {note}")
    print("# meta " + json.dumps(record["meta"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
