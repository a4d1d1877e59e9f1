"""Seeded inputs, op lists and per-op output checks for the workloads.

Every input is made here, from the workload seed, before any op is timed.
Recordings are written by this file's own writer in the documented
``t,va,vb,vc`` repr-float format, so the inputs do not depend on the code
under test.  Each op is one ``geomfreq`` command line; its check reads the
op's stdout and output file and returns an error message (or None) and the
row counts the per-layer metrics need.
"""

import math
import os
import random
from dataclasses import dataclass, field

DT_REC = 1e-4  # s, sample step of the numeric_csv recordings
TWO_THIRDS_PI = 2.0 * math.pi / 3.0
DT_ANALYTIC = 1e-3  # s, sample step of the analytic_fm windows
# Distinct ops of numeric_csv and analytic_fm; the loop cycles them.  An
# odd count puts the median op time inside the middle op's cluster of
# repetitions: with an even count it lies on the step between two ops of
# different sizes and jumps with how far the last pass got.
POOL = 7
# One op of each of those pools is large, so that its per-sample objects
# (Jet2 lists, AnalysisRows; 1-2 KB a sample) are 13-14% of the process's
# peak RSS and a 1.5x growth of them shows in peak_rss_mb.
LARGE_CSV = 3000  # samples, about 5.8 MiB of per-sample objects
LARGE_FM = 5000  # samples, about 5.7 MiB of per-sample objects
TRIM = 2  # rows the 5-point stencil drops at each end
EPS_V = 1e-9  # V, the program's degenerate-speed threshold
ANALYSIS_HEADER = (
    "t,v,rho,w1,w2,w3,w,xi,kappa,tau,eta,rocof1,rocof2,rocof3,rotation_defined"
)
# properties per suite of ``geomfreq validate`` that validate_all runs: all
# suites but numdiff (3 properties), 24 of the 27
VALIDATE_SUITES = {
    "geometry": 3, "frenet_core": 9, "threephase_forms": 3, "signals": 4,
    "hilbert": 2, "park": 3,
}

# validate_all's op pool: each suite once, and threephase_forms, the middle
# suite by time, a second time, so the pool is odd (see POOL) and the
# median op time lies inside that suite's repetitions
VALIDATE_POOL = (*VALIDATE_SUITES, "threephase_forms")

WORKLOADS = ("numeric_csv", "analytic_fm", "validate_all")


@dataclass
class Op:
    """One CLI invocation and what its output must look like.

    ``samples`` is the input sample count the op processes (the property
    count on validate_all).  ``check(rc, stdout, gf)`` returns (error or
    None, stats), where ``gf`` holds the geomfreq modules an oracle calls.
    """

    kind: str
    argv: list
    samples: int
    check: object
    out: str = None
    input_path: str = None
    meta: dict = field(default_factory=dict)


def _sizes(rng, lo, hi, large):
    """POOL sizes: POOL - 1 at the middles of equal slices of [lo, hi), each
    moved by up to a tenth of a slice, then ``large`` moved by up to 1%.
    Sizes vary with the seed, but every seed gets nearly the same spread of
    sizes, so the figures compare across seeds."""
    n = POOL - 1
    small = [int(lo + (hi - lo) * (k + 0.5 + rng.uniform(-0.1, 0.1)) / n) for k in range(n)]
    return small + [int(large * (1.0 + rng.uniform(-0.01, 0.01)))]


def _read_rows(path):
    """Data rows (lists of cells) and '#' comment lines of a CSV output."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return None, [], []
    header = lines[0]
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    return header, rows, comments


def _analysis_table(path, expected_rows):
    """Parse an analysis CSV; returns (error, rows, degenerate footer)."""
    header, rows, comments = _read_rows(path)
    if header != ANALYSIS_HEADER:
        return f"bad header {header!r}", None, None
    if len(rows) != expected_rows:
        return f"{len(rows)} rows, expected {expected_rows}", None, None
    if any(len(r) != 15 for r in rows):
        return "ragged row", None, None
    if len(comments) != 1 or not comments[0].startswith("# degenerate_samples="):
        return f"bad footer {comments!r}", None, None
    try:
        footer = int(comments[0].split("=", 1)[1])
    except ValueError:
        return f"bad footer {comments[0]!r}", None, None
    return None, rows, footer


def _row_stats(rows):
    degenerate = sum(1 for r in rows if r[1] == "")
    no_rotation = sum(1 for r in rows if r[1] != "" and r[14] == "0")
    return {"rows": len(rows), "degenerate": degenerate, "no_rotation": no_rotation}


def _w_consistent(r):
    """|w - |(w1, w2, w3)|| within rounding, on a rotating row."""
    w = float(r[6])
    w_vec = math.sqrt(sum(float(x) ** 2 for x in r[3:6]))
    return abs(w - w_vec) <= 1e-12 * max(w, 1.0)


# --------------------------------------------------------------------------
# numeric_csv: seeded unbalanced three-phase recordings, some with an outage


def _write_recording(path, values):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,va,vb,vc\n")
        for k, (a, b, c) in enumerate(values):
            fh.write(f"{k * DT_REC!r},{a!r},{b!r},{c!r}\n")


def _expected_degenerate(values, tau):
    """Per stencil row: True/False for |filtered v| <= EPS_V, or None where
    the norm lies so close to EPS_V that rounding may decide it.

    Restates the causal first-order filter y[k] = y[k-1] + a (x[k] - y[k-1]),
    a = dt / (tau + dt), independently of the program's implementation.
    """
    alpha = DT_REC / (tau + DT_REC)
    y = list(values[0])
    flags = []
    for k, x in enumerate(values):
        if k:
            y = [yc + alpha * (xc - yc) for yc, xc in zip(y, x)]
        if TRIM <= k < len(values) - TRIM:
            mag = math.sqrt(sum(c * c for c in y))
            flags.append(None if abs(mag / EPS_V - 1.0) < 1e-6 else mag <= EPS_V)
    return flags


def numeric_csv(rng, workdir):
    """Ops ``analyze --csv REC --mode numeric --filter-tau T``."""
    ops = []
    # two of the short recordings, a middle and the longest, carry an outage
    specs = [(n, k in (2, POOL - 2)) for k, n in enumerate(_sizes(rng, 260, 460, LARGE_CSV))]
    rng.shuffle(specs)
    for i, (n, with_outage) in enumerate(specs):
        f0 = 50.0 + rng.uniform(-0.5, 0.5)
        w0 = 2.0 * math.pi * f0
        amps = [100.0 * (1.0 + rng.uniform(-0.15, 0.15)) for _ in range(3)]
        phases = [p + rng.uniform(-0.2, 0.2) for p in (0.0, -TWO_THIRDS_PI, TWO_THIRDS_PI)]
        h_amps = [a * rng.uniform(0.01, 0.03) for a in amps]
        h_phases = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
        tau = rng.uniform(1e-4, 1.5e-4)
        period = round(1.0 / (f0 * DT_REC))
        # w ripples with the unbalance and the harmonic; its mean over one
        # fundamental period of rows from here stays within 2% of w0 on
        # these inputs (checked against 5%).  Any outage starts after it.
        win = (10, 10 + period)
        outage = None
        if with_outage:
            length = rng.randint(70, 90)
            start = rng.randint(win[1] + TRIM + 10, n - length - 10)
            outage = (start, start + length)
        values = []
        for k in range(n):
            t = k * DT_REC
            if outage and outage[0] <= k < outage[1]:
                values.append((0.0, 0.0, 0.0))
                continue
            values.append(
                tuple(
                    amps[c] * math.sin(w0 * t + phases[c])
                    + h_amps[c] * math.sin(11.0 * w0 * t + h_phases[c])
                    for c in range(3)
                )
            )
        rec = os.path.join(workdir, f"rec{i:02d}.csv")
        out = os.path.join(workdir, f"out{i:02d}.csv")
        _write_recording(rec, values)
        expected = _expected_degenerate(values, tau)
        ops.append(
            Op(
                kind="analyze_csv",
                argv=["analyze", "--csv", rec, "--mode", "numeric",
                      "--filter-tau", repr(tau), "--out", out],
                samples=n,
                out=out,
                input_path=rec,
                check=_numeric_check(out, n, expected, w0, win, outage),
                meta={"f0": f0, "tau": tau, "outage": outage},
            )
        )
    return ops


def _numeric_check(out, n, expected, w0, win, outage):
    def check(rc, stdout, gf):
        if rc != 0:
            return f"exit code {rc}", None
        err, rows, footer = _analysis_table(out, n - 2 * TRIM)
        if err:
            return err, None
        stats = _row_stats(rows)
        if footer != stats["degenerate"]:
            return f"footer {footer} != {stats['degenerate']} empty rows", stats
        for k, (r, exp) in enumerate(zip(rows, expected)):
            if exp is not None and (r[1] == "") != exp:
                return f"row {k}: degenerate={r[1] == ''}, expected {exp}", stats
        if outage and not any(expected):
            return "outage produced no degenerate rows", stats
        if not outage and (stats["degenerate"] or stats["no_rotation"]):
            return "degenerate rows without an outage", stats
        for r in rows:
            if r[14] == "1" and not _w_consistent(r):
                return f"w != |(w1,w2,w3)| at t={r[0]}", stats
        w_mean = sum(float(rows[k][6]) for k in range(*win)) / (win[1] - win[0])
        if abs(w_mean - w0) > 0.05 * w0:
            return f"mean w {w_mean:.3f} rad/s, fundamental {w0:.3f}", stats
        return None, stats

    return check


# --------------------------------------------------------------------------
# analytic_fm: frequency-modulated scenarios, exact jets


def analytic_fm(rng, workdir):
    """Ops ``analyze --scenario {E6,E7,E8} --t0 S --t1 S+L --dt 1e-3``."""
    ops = []
    specs = list(zip(["E6", "E7", "E8"] * 3, _sizes(rng, 150, 450, LARGE_FM)))
    rng.shuffle(specs)
    for i, (sid, m) in enumerate(specs):
        start = rng.randrange(0, 4500)  # ms
        t0 = start * DT_ANALYTIC
        t1 = (start + m) * DT_ANALYTIC
        out = os.path.join(workdir, f"out{i:02d}.csv")
        picks = sorted(rng.sample(range(m + 1), 8))
        ops.append(
            Op(
                kind="analyze_scenario",
                argv=["analyze", "--scenario", sid, "--t0", repr(t0),
                      "--t1", repr(t1), "--dt", repr(DT_ANALYTIC), "--out", out],
                samples=m + 1,
                out=out,
                check=_analytic_check(out, sid, m + 1, picks),
                meta={"scenario": sid, "t0": t0, "t1": t1},
            )
        )
    return ops


def _analytic_check(out, sid, n, picks):
    def check(rc, stdout, gf):
        if rc != 0:
            return f"exit code {rc}", None
        err, rows, footer = _analysis_table(out, n)
        if err:
            return err, None
        stats = _row_stats(rows)
        if footer != 0 or stats["degenerate"] or stats["no_rotation"]:
            return "a frequency-modulated row did not rotate", stats
        model = gf.signals.make_scenario(sid)
        for k in picks:
            r = rows[k]
            if not _w_consistent(r):
                return f"w != |(w1,w2,w3)| at t={r[0]}", stats
            cf = gf.threephase.closed_form_invariants(
                gf.signals.phase_jets(model, float(r[0]))
            )
            scale = max(float(r[6]), 1.0)
            got = [float(x) for x in (r[2], r[3], r[4], r[5], r[7])]
            ref = [cf.rho, *(float(x) for x in cf.omega_vec), cf.xi]
            worst = max(abs(g - e) for g, e in zip(got, ref)) / scale
            if worst > 1e-9:
                return f"t={r[0]}: closed form differs by {worst:.2e} of w", stats
        return None, stats

    return check


# --------------------------------------------------------------------------
# validate_all: the built-in property suites, one suite per op


def validate_all(rng, workdir):
    """Ops ``validate SCOPE``, one per suite but numdiff, and
    threephase_forms twice (see VALIDATE_POOL).

    One ``validate all`` op takes about 4 s, so a run would time only a
    few; the numdiff suite alone takes 2.4-3 s of it and repeats the
    numeric path that numeric_csv measures.  The other suites take
    0.03-0.5 s each, so each gets 10-14 repetitions in a 30 s run.  The
    suites use fixed internal seeds, so ``--seed`` does not apply.  A
    sample is one property checked."""
    return [
        Op(kind="validate", argv=["validate", scope], samples=VALIDATE_SUITES[scope],
           check=_validate_check(VALIDATE_SUITES[scope]), meta={"scope": scope})
        for scope in VALIDATE_POOL
    ]


def _validate_check(count):
    def check(rc, stdout, gf):
        if rc != 0:
            return f"exit code {rc}", None
        lines = stdout.strip().split("\n")
        passed = sum(1 for ln in lines if ln.startswith("[PASS] "))
        if lines[-1] != f"{count}/{count} properties passed" or passed != count:
            return f"{passed} [PASS] lines, last line {lines[-1]!r}", None
        return None, None

    return check


def make_ops(workload, seed, workdir):
    """The op pool of a workload, generated from its seed into workdir."""
    rng = random.Random(f"{workload}/{seed}")
    return globals()[workload](rng, workdir)
