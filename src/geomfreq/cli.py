"""Command line front end.

Subcommands: generate (scenario -> waveform CSV), analyze (invariants
CSV from a scenario or a waveform CSV), validate (invariant suites),
park (dq0 transform and derivative-frame checks), hilbert (analytic
embedding and equivalence report).

Exit codes: 0 success, 1 a failed check (validate, park or hilbert),
2 a usage error (``InvalidParameter``), 3 any other ``GeomfreqError``
(a format error, a degenerate input or an input whose scale overflows
float64) or an ``OSError``.

Each parameter comes from its flag, else its INI key (``CONFIG_KEYS``), else a
default; a ``geometry`` check (``check_finite``, say) names a bad value's flag
or key.  A flag the chosen route would not read (``generate E0 --vdc 3``) is a
usage error; a config key never is, as one INI serves several commands.

``main(argv)`` may be called many times in one process (the test suite
and the benchmark do; a console run calls it once): it builds its
argument parser once, on the first call, and parses every later argv
with that parser.  Each call dispatches to the ``cmd_<subcommand>``
function this module holds at that moment.

A console run imports only what its subcommand runs.  This module loads
numpy and what ``generate`` and both ``analyze`` routes read:
``analysis``, ``cli_io``, ``numdiff`` and ``signals``, with ``errors``,
``frenet``, ``geometry`` and ``series`` under them.  ``park`` and
``hilbert`` each add their own module, imported in ``cmd_park`` and
``cmd_hilbert``; ``validate`` adds ``validate``, which loads ``park``,
``hilbert`` and ``threephase`` (``signals.phase_jets`` imports it where
it is used).  A --config run adds ``configparser``, imported by
``cli_io.read_config``.  numpy stays at module level because every
subcommand runs it: deferring it would move its import, not remove it.
"""

import argparse
import functools
import sys

import numpy as np

from . import analysis, cli_io, numdiff, signals
from .errors import GeomfreqError, InvalidParameter, MalformedCsv
from .geometry import check_finite, check_nonnegative, check_positive, worst

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# each config-backed argparse dest and the INI key that stands in for its flag
CONFIG_KEYS = {"t0": "sampling.t0", "t1": "sampling.t1", "dt": "sampling.dt",
               "filter_tau": "filter.tau", "wdq": "park.wdq", "theta0": "park.theta0"}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _param(args, cfg, dest, fallback, check=None):
    """``dest`` from its flag, else from its config key, else ``fallback``,
    which is returned as it is; ``check(name, value)`` rejects a bad flag
    or key value, naming the one it came from."""
    name, value = _flag(dest), getattr(args, dest)
    if value is None:
        name = CONFIG_KEYS.get(dest)
        if name not in cfg:
            return fallback
        try:
            value = float(cfg[name])
        except ValueError:
            raise InvalidParameter(f"config {name} = {cfg[name]} is not a number") from None
    if check is not None:
        check(name, value)
    return value


def _refuse(args, route, *dests):
    """A usage error for the first of ``dests`` that is not None (``--filter-tau
    0`` is given; store_true flags default to None): the route would drop it."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise InvalidParameter(f"{_flag(dest)} is not read {route}")


def _scenario_grid(args, cfg, missing=None, fallback=None):
    """The model of --scenario (else [scenario] id, else ``fallback``) and
    its grid (t0, t1, dt); generate's --vdc, read by DC only, goes to ``signals.dc_model``."""
    scenario = args.scenario or cfg.get("scenario.id", fallback)
    if scenario is None:
        raise InvalidParameter(missing)
    model = signals.make_scenario(scenario)  # an unknown id is reported first
    grid = [_param(args, cfg, *p) for p in (("t0", 0.0), ("t1", 0.1), ("dt", 1e-4, check_positive))]
    if getattr(args, "vdc", None) is None:
        return model, grid
    if scenario != "DC":
        _refuse(args, f"by scenario {scenario}", "vdc")
    return signals.dc_model(_param(args, cfg, "vdc", None, check_nonnegative)), grid


def cmd_generate(args):
    cfg = cli_io.read_config(args.config) if args.config else {}
    model, grid = _scenario_grid(args, cfg, "no scenario given (argument or config)")
    series = signals.sample(model, *grid)
    cli_io.write_waveform_csv(args.out, series)
    print(f"wrote {len(series)} samples to {args.out}")
    return EXIT_OK


def cmd_analyze(args):
    cfg = cli_io.read_config(args.config) if args.config else {}
    mode = args.mode or ("numeric" if args.csv else "analytic")
    if mode == "analytic":
        _refuse(args, "in analytic mode", "csv", "filter_tau", "remove_zero_seq")
        model, grid = _scenario_grid(args, cfg, "analytic mode needs --scenario")
        times = signals.sample_times(*grid)
        columns, degenerate = analysis.analyze(times, *signals.eval_arrays(model, times))
    else:
        _refuse(args, "in numeric mode", "scenario", "t0", "t1", "dt")
        if args.csv is None:
            raise InvalidParameter("numeric mode needs --csv")
        series = cli_io.read_waveform_csv(args.csv)
        if len(series) < numdiff.MIN_SAMPLES:
            raise MalformedCsv(
                f"{args.csv}: the 5-point stencil needs at least "
                f"{numdiff.MIN_SAMPLES} samples, got {len(series)}"
            )
        if args.remove_zero_seq:
            series = numdiff.remove_zero_sequence(series)
        filter_tau = _param(args, cfg, "filter_tau", None, check_positive)
        if filter_tau is not None:
            series = numdiff.lowpass_first_order(series, filter_tau)
        columns, degenerate = analysis.analyze(*numdiff.differentiate_arrays(series))
    cli_io.write_analysis_csv(args.out, columns, degenerate)
    print(f"wrote {columns[0].size} rows to {args.out} ({degenerate} degenerate)")
    return EXIT_OK


def cmd_validate(args):
    from . import validate

    results = validate.run(args.scope)
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
    from . import park

    cfg = cli_io.read_config(args.config) if args.config else {}
    w_dq = _param(args, cfg, "wdq", signals.W_BASE, check_finite)
    theta0 = _param(args, cfg, "theta0", 0.0, check_finite)
    model, grid = _scenario_grid(args, cfg, fallback="E0")
    times = signals.sample_times(*grid)
    vdq0, dvdq0, _ = park.to_dq0(times, *signals.eval_arrays(model, times), w_dq, theta0)
    rep = park.derivative_frame_check(vdq0, dvdq0, w_dq)
    if args.out:
        cli_io.write_table(args.out, ("t", "vd", "vq", "vo"), (times, *vdq0.T))
        print(f"wrote {times.size} dq0 samples to {args.out}")
    worst_sum = worst(rep.sum_rel_err)
    worst_balanced = worst(rep.balanced_identity_err[rep.balanced])
    balanced = np.count_nonzero(rep.balanced)
    print(f"sum identity worst relative error: {worst_sum:.3e}")
    print(  # a worst error over no instant would read 0
        f"balanced rotating-derivative identity worst error: {worst_balanced:.3e} "
        f"(checked on {balanced} of {times.size} instants)" if balanced else
        f"balanced rotating-derivative identity not checked: none of {times.size} instants is balanced"
    )
    ok = worst_sum <= park.MAX_SUM_REL_ERR and worst_balanced <= park.MAX_BALANCED_ERR
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_hilbert(args):
    """The embedding report of a --csv channel, or of ``hilbert.tone``, cos(2 pi freq t) on
    [0, t1): refused past ``geometry.MAX_ANGLE``, then at or past Nyquist.  A short file is a
    format error, a short range a usage error."""
    from . import hilbert

    if args.csv:
        _refuse(args, "by hilbert --csv", "freq", "t1", "dt")
        channel = _param(args, {}, "channel", 0)
        if channel not in (0, 1, 2):
            raise InvalidParameter(f"--channel must be 0, 1 or 2, got {channel}")
        series = cli_io.read_waveform_csv(args.csv)
        times, dt, u = series.times, series.dt, series.values[:, channel]
    else:
        _refuse(args, "by hilbert without --csv", "channel")
        dt = _param(args, {}, "dt", hilbert.TONE_DT, check_positive)
        freq = _param(args, {}, "freq", hilbert.TONE_FREQ, check_positive)
        times, u = hilbert.tone(freq, _param(args, {}, "t1", hilbert.TONE_T1), dt)
        if freq * dt >= 0.5:  # at or past Nyquist the samples are those of a lower tone
            raise InvalidParameter(f"--freq {freq} is at or past the Nyquist limit 0.5/--dt = {0.5 / dt:.6g}")
    if u.size < hilbert.MIN_LENGTH:
        error, source = (MalformedCsv, args.csv) if args.csv else (InvalidParameter, "--t1/--dt")
        raise error(f"{source}: the Hilbert transform needs at least "
                    f"{hilbert.MIN_LENGTH} samples, got {u.size}")
    report = hilbert.geometric_equivalence(hilbert.analytic_embed(times, dt, u))
    if args.out:
        cli_io.write_table(
            args.out,
            ("t", "rho", "w", "xi", "phi_dot"),
            (report.times, report.rho, report.omega_mag, report.xi, report.phi_dot),
        )
        print(f"wrote {report.times.size} rows to {args.out}")
    print(f"max |omega_z - phi'| relative deviation (mid-window): {report.max_rel_dev:.3e}")
    print(f"max |xi|: {report.max_abs_xi:.3e}")
    ok = report.max_rel_dev <= hilbert.MAX_REL_DEV and report.max_abs_xi <= hilbert.MAX_ABS_XI
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: ``main`` pays for argparse's construction once per process."""
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

    p = sub.add_parser("analyze", help="compute invariants along a waveform")
    p.add_argument("--scenario")
    p.add_argument("--csv")
    p.add_argument("--mode", choices=("analytic", "numeric"))
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--filter-tau", type=float, dest="filter_tau")
    p.add_argument("--remove-zero-seq", action="store_true", default=None)
    p.add_argument("--out", default="analysis.csv")
    p.add_argument("--config")

    p = sub.add_parser("validate", help="run invariant property suites")
    p.add_argument("scope", nargs="?", default="all")

    p = sub.add_parser("park", help="dq0 transform and derivative-frame checks")
    p.add_argument("--scenario")
    p.add_argument("--wdq", type=float)
    p.add_argument("--theta0", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--out")
    p.add_argument("--config")

    p = sub.add_parser("hilbert", help="analytic embedding equivalence report")
    p.add_argument("--freq", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--csv")
    p.add_argument("--channel", type=int)
    p.add_argument("--out")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up by name on each call, not stored in the shared parser,
        # so a rebound ``cmd_*`` attribute is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GeomfreqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
