"""Run the benchmark over several seeds and record one trajectory point.

    python3 perfbench/baseline.py --seeds 10 [--workloads NAME ...]
                                  [--out perfbench/results/baseline.json]

Each run is its own ``run.py`` process.  For every workload this makes one
untraced run per seed and one traced run, prints each end-to-end metric's
median, quartiles and spread (interquartile range over median) next to
its bound from BENCHMARK.json, and writes everything, per-layer metrics
and host metadata included, to ``--out`` when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    with open(os.path.join(WORK, f"{workload}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return result, record, elapsed


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = bench_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(1, args.seeds + 1)
    report = {"seconds": args.seconds, "seeds": list(seeds), "workloads": {}}
    all_correct = True
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result, record, elapsed = run_once(workload, seed, args.seconds, 0)
            meta = record["meta"]
            all_correct &= result["correct"] and result["failed"] == 0
            runs.append((record, meta, elapsed))
            print(f"{workload} seed {seed}: {elapsed:.1f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"calibration {meta['calib_before_s']:.3f}/{meta['calib_after_s']:.3f} s, "
                  f"host factor {meta['host_factor_median']:.3f}",
                  flush=True)
        entry = {"end_to_end": {}, "host": {k: runs[0][1][k] for k in (
            "python", "numpy", "nproc", "affinity", "cpu_model",
            "l2_cache", "l3_cache")},
            "runs": [{"seed": m["seed"], "wall_s": e, "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"], "timed_ops": m["timed_ops"],
                      "tail_percentile": m["tail_percentile"],
                      "calib_before_s": m["calib_before_s"],
                      "calib_after_s": m["calib_after_s"],
                      "host_factor_median": m["host_factor_median"]}
                     for r, m, e in runs]}
        for name in runs[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _, _ in runs]
            s = summarize(values)
            s["unit"] = runs[0][0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            if name in bounds:
                flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
                flag = f"(bound {bounds[name]}) {flag}"
            else:
                flag = "(printed only)"
            print(f"  {name:16s} median {s['median']:12.6g} {s['unit']:10s} "
                  f"spread {s['spread']:.4f} {flag}", flush=True)
        result, record, elapsed = run_once(workload, seeds[0], args.seconds, 1)
        meta = record["meta"]
        all_correct &= result["correct"] and result["failed"] == 0
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["traced_run"] = {k: meta[k] for k in (
            "seed", "untraced_ops", "traced_ops", "spans_kept", "spans_dropped",
            "calib_before_s", "calib_after_s")}
        print(f"  traced run: {elapsed:.1f} s, tracing_overhead "
              f"{entry['per_layer']['tracing_overhead']:.3f}", flush=True)
        report["workloads"][workload] = entry
    report["all_correct"] = all_correct
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
