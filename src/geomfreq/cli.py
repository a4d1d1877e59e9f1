"""Command line front end.

Subcommands: generate (scenario -> waveform CSV), analyze (invariants
CSV from a scenario or a waveform CSV), validate (invariant suites),
park (dq0 transform and derivative-frame checks), hilbert (analytic
embedding and equivalence report).

Exit codes: 0 success, 1 validation/assertion failure, 2 usage error,
3 I/O or format error.
"""

import argparse
import math
import sys

import numpy as np

from . import analysis, cli_io, hilbert, numdiff, park, signals, validate
from .errors import (
    DegenerateInput,
    GeomfreqError,
    InvalidParameter,
    InvalidRange,
    MalformedCsv,
    UnknownScenario,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _load_config(path):
    try:
        return cli_io.read_config(path)
    except FileNotFoundError:
        raise MalformedCsv(f"config file not found: {path}")


def _cfg_float(cfg, key, fallback):
    if key not in cfg:
        return fallback
    try:
        return float(cfg[key])
    except ValueError:
        raise InvalidParameter(f"config {key} = {cfg[key]} is not a number") from None


def _sampling(args, cfg):
    t0 = args.t0 if args.t0 is not None else _cfg_float(cfg, "sampling.t0", 0.0)
    t1 = args.t1 if args.t1 is not None else _cfg_float(cfg, "sampling.t1", 0.1)
    dt = args.dt if args.dt is not None else _cfg_float(cfg, "sampling.dt", 1e-4)
    return t0, t1, dt


def _check_positive(flag, x):
    """Reject a non-positive, infinite or NaN value before it is used."""
    if not 0 < x < math.inf:
        raise InvalidRange(f"{flag} must be positive and finite, got {x}")


def _scenario_overrides(args):
    over = {}
    if getattr(args, "vdc", None) is not None:
        over["vdc"] = args.vdc
    return over


def cmd_generate(args):
    cfg = _load_config(args.config) if args.config else {}
    scenario = args.scenario or cfg.get("scenario.id")
    if scenario is None:
        raise UnknownScenario("no scenario given (argument or config)")
    t0, t1, dt = _sampling(args, cfg)
    model = signals.make_scenario(scenario, **_scenario_overrides(args))
    series = signals.sample(model, t0, t1, dt)
    cli_io.write_waveform_csv(args.out, series)
    print(f"wrote {len(series)} samples to {args.out}")
    return EXIT_OK


def cmd_analyze(args):
    cfg = _load_config(args.config) if args.config else {}
    scenario = args.scenario or cfg.get("scenario.id")
    mode = args.mode
    if mode is None:
        mode = "numeric" if args.csv else "analytic"
    if mode == "analytic":
        if scenario is None:
            raise UnknownScenario("analytic mode needs --scenario")
        t0, t1, dt = _sampling(args, cfg)
        model = signals.make_scenario(scenario)
        times = signals.sample_times(t0, t1, dt)
        columns, degenerate = analysis.analyze(
            times, *signals.eval_arrays(model, times)
        )
    else:
        if args.csv is None:
            raise MalformedCsv("numeric mode needs --csv")
        series = cli_io.read_waveform_csv(args.csv)
        if len(series) < 2 * numdiff.TRIM + 1:
            raise MalformedCsv(
                f"{args.csv}: the 5-point stencil needs at least "
                f"{2 * numdiff.TRIM + 1} samples, got {len(series)}"
            )
        if args.remove_zero_seq:
            series = numdiff.remove_zero_sequence(series)
        filter_tau = (
            args.filter_tau
            if args.filter_tau is not None
            else _cfg_float(cfg, "filter.tau", None)
        )
        if filter_tau is not None:
            _check_positive("--filter-tau", filter_tau)
            series = numdiff.lowpass_first_order(series, filter_tau)
        columns, degenerate = analysis.analyze(*numdiff.differentiate_arrays(series))
    cli_io.write_analysis_csv(args.out, columns, degenerate)
    print(f"wrote {columns[0].size} rows to {args.out} ({degenerate} degenerate)")
    return EXIT_OK


def cmd_validate(args):
    try:
        results = validate.run(args.scope)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"[{status}] {res.module}: {res.name} "
            f"(worst {res.worst:.3e}, tol {res.tol:.3e})"
        )
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_FAIL


def cmd_park(args):
    cfg = _load_config(args.config) if args.config else {}
    scenario = args.scenario or cfg.get("scenario.id", "E0")
    w_dq = args.wdq if args.wdq is not None else _cfg_float(cfg, "park.wdq", 100.0 * math.pi)
    theta0 = args.theta0 if args.theta0 is not None else _cfg_float(cfg, "park.theta0", 0.0)
    t0, t1, dt = _sampling(args, cfg)
    times = signals.sample_times(t0, t1, dt)
    model = signals.make_scenario(scenario)
    pcfg = park.ParkConfig(w_dq=w_dq, theta0=theta0)
    sum_errs, balanced_errs, vdq0 = [], [], []
    for t in times.tolist():
        dq = park.to_dq0(signals.eval_jet(model, t), pcfg)
        rep = park.derivative_frame_check(dq, pcfg)
        sum_errs.append(rep.sum_rel_err)
        if rep.balanced_identity_err is not None:
            balanced_errs.append(rep.balanced_identity_err)
        vdq0.append(dq.vdq0)
    if args.out:
        cli_io.write_table(args.out, ("t", "vd", "vq", "vo"), (times, *np.array(vdq0).T))
        print(f"wrote {times.size} dq0 samples to {args.out}")
    # a NaN error must fail the check, so fold without dropping NaN
    worst_sum = validate._worst(sum_errs)
    worst_balanced = validate._worst(balanced_errs)
    print(f"sum identity worst relative error: {worst_sum:.3e}")
    print(f"balanced rotating-derivative identity worst error: {worst_balanced:.3e}")
    ok = worst_sum <= 1e-9
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_hilbert(args):
    if args.dt is not None:
        _check_positive("--dt", args.dt)
    _check_positive("--freq", args.freq)
    if args.channel not in (0, 1, 2):
        raise InvalidRange(f"--channel must be 0, 1 or 2, got {args.channel}")
    if args.csv:
        series = cli_io.read_waveform_csv(args.csv)
        u = series.values[:, args.channel]
        dt = series.dt
    else:
        dt = args.dt if args.dt is not None else 1e-4
        t1 = args.t1 if args.t1 is not None else 0.4096
        t = signals.sample_times(0.0, t1, dt)[:-1]  # half-open [0, t1)
        u = np.cos(2.0 * math.pi * args.freq * t)
    pair = hilbert.analytic_embed(u, dt)
    report = hilbert.geometric_equivalence(pair)
    if args.out:
        cli_io.write_table(
            args.out,
            ("t", "rho", "w", "xi", "phi_dot"),
            (report.times, report.rho, report.omega_mag, report.xi, report.phi_dot),
        )
        print(f"wrote {report.times.size} rows to {args.out}")
    print(f"max |omega_z - phi'| relative deviation (mid-window): {report.max_rel_dev:.3e}")
    print(f"max |xi|: {report.max_abs_xi:.3e}")
    ok = report.max_rel_dev <= 1e-9 and report.max_abs_xi <= 1e-12
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geomfreq",
        description="Geometric frequency analysis of polyphase waveforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a scenario into a waveform CSV")
    p.add_argument("scenario", nargs="?", help="scenario id (DC, SINGLE_PHASE, E0..E8)")
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--vdc", type=float, help="DC level for the DC scenario")
    p.add_argument("--out", default="waveform.csv")
    p.add_argument("--config")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="compute invariants along a waveform")
    p.add_argument("--scenario")
    p.add_argument("--csv")
    p.add_argument("--mode", choices=("analytic", "numeric"))
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--filter-tau", type=float, dest="filter_tau")
    p.add_argument("--remove-zero-seq", action="store_true")
    p.add_argument("--out", default="analysis.csv")
    p.add_argument("--config")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="run invariant property suites")
    p.add_argument("scope", nargs="?", default="all")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("park", help="dq0 transform and derivative-frame checks")
    p.add_argument("--scenario")
    p.add_argument("--wdq", type=float)
    p.add_argument("--theta0", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_park)

    p = sub.add_parser("hilbert", help="analytic embedding equivalence report")
    p.add_argument("--freq", type=float, default=50.0)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--csv")
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hilbert)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownScenario, InvalidParameter, InvalidRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedCsv, DegenerateInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GeomfreqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
