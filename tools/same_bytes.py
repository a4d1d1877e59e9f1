"""Compare what two source trees of geomfreq print and write, byte for byte.

    python tools/same_bytes.py OLD_TREE NEW_TREE [--allow CASE ...]

A tree is a checkout of this repository (a directory holding
``src/geomfreq`` and ``demos/``).  Each case is a fixed list of
``python -m geomfreq.cli`` argvs, or one demo script, run in order in a
fresh subprocess per argv with PYTHONPATH=<tree>/src, in its own empty
temporary directory.  For each case the two trees must agree on the exit
codes, on stdout and stderr (with the case directory and the tree path
written as <dir> and <tree>), and on the sha1 of every file the case
leaves behind.

The cases:
- ``generate``, analytic ``analyze`` and ``park`` on every preset
  (DC, SINGLE_PHASE, E0-E8), and ``park`` in the Clarke frame
  (--wdq 0) and at --wdq 300 --theta0 0.7, and E0 at --wdq 1e100 on a
  1e-205 s grid;
- numeric ``analyze`` of a generated E5 recording: plain, with
  --filter-tau and with --remove-zero-seq;
- ``generate``, analytic and numeric ``analyze`` and ``park`` that read
  their scenario, grid, filter and frame from one INI through --config;
- ``hilbert`` of the synthetic tone, --csv on each channel of E5, and
  --csv on a DC recording, a curve that does not rotate;
- ``validate all``;
- every ``BAD_INPUT`` row of tests/test_cli.py, with the input files
  that test writes;
- the stdout of each script in demos/.

It prints one line per case and a summary, and exits 1 on any difference
in a case that no --allow names (0 otherwise).  The two trees run on one
host because the output bits depend on numpy's build and CPU paths, so a
committed table of hashes could differ on another host with no change to
the code.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parents[1]
PRESETS = ("DC", "SINGLE_PHASE", *(f"E{k}" for k in range(9)))
RECORDING = ("generate", "E5", "--out", "in.csv")
TIMEOUT = 600  # s, per subprocess
# one INI for every configured case; each route reads its own sections
CONFIG = ("[scenario]\nid = E6\n[sampling]\nt1 = 0.05\ndt = 2e-4\n"
          "[filter]\ntau = 2e-4\n[park]\nwdq = 300\ntheta0 = 0.7\n")


def _bad_input_rows():
    """tests/test_cli.py's BAD_INPUT rows and the helper that writes their
    input files, imported from this checkout's tests."""
    for path in (HERE / "tests", HERE / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import test_cli

    return test_cli.BAD_INPUT, test_cli.bad_input_argv


def _configured(*argv):
    """A step that writes CONFIG to run.ini in the case directory and
    returns the argv with --config run.ini."""
    def step(d):
        (d / "run.ini").write_text(CONFIG)
        return (*argv, "--config", "run.ini")
    return step


def cases():
    """Case name -> list of steps; a step is a CLI argv, or the path of a
    demo relative to the tree, or a callable that prepares the case
    directory and returns the argv."""
    out = {}
    for sid in PRESETS:
        out[f"generate-{sid}"] = [("generate", sid, "--out", "out.csv")]
        out[f"analyze-{sid}"] = [("analyze", "--scenario", sid, "--out", "out.csv")]
        for frame, flags in (("", ()), ("-clarke", ("--wdq", "0")),
                             ("-wdq300", ("--wdq", "300", "--theta0", "0.7"))):
            out[f"park{frame}-{sid}"] = [("park", "--scenario", sid, *flags, "--out", "out.csv")]
    # a frame speed of 1e100 rad/s on a 1e-205 s grid, near the float64 edge
    out["park-wdq1e100"] = [("park", "--scenario", "E0", "--t1", "1e-205", "--dt", "1e-207",
                             "--wdq", "1e100")]
    for name, flags in (("plain", ()), ("filtered", ("--filter-tau", "2e-4")),
                        ("zero-seq", ("--remove-zero-seq",))):
        out[f"numeric-{name}"] = [RECORDING,
                                  ("analyze", "--csv", "in.csv", *flags, "--out", "out.csv")]
    out["config-generate"] = [_configured("generate", "--out", "out.csv")]
    out["config-analyze"] = [_configured("analyze", "--out", "out.csv")]
    out["config-numeric"] = [RECORDING, _configured("analyze", "--csv", "in.csv", "--out", "out.csv")]
    out["config-park"] = [_configured("park", "--out", "out.csv")]
    out["hilbert-tone"] = [("hilbert",)]
    for ch in "012":
        out[f"hilbert-csv-{ch}"] = [RECORDING, ("hilbert", "--csv", "in.csv", "--channel", ch,
                                                "--out", "out.csv")]
    out["hilbert-csv-dc"] = [("generate", "DC", "--out", "in.csv"),
                             ("hilbert", "--csv", "in.csv", "--out", "out.csv")]
    out["validate-all"] = [("validate", "all")]
    rows, make_argv = _bad_input_rows()
    for name, argv, _code, _says in rows:
        out[f"bad-input-{name}"] = [lambda d, argv=argv: make_argv(argv, d)[0]]
    for demo in sorted((HERE / "demos").glob("*.py")):
        out[f"demo-{demo.stem}"] = [pathlib.PurePath("demos", demo.name)]
    return out


def run_case(tree, steps):
    """(exit codes, stdout, stderr, {file: sha1}) of the steps run in a new
    temporary directory against the tree's sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    codes, stdout, stderr = [], [], []
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        d = pathlib.Path(tmp).resolve()
        for step in steps:
            if isinstance(step, pathlib.PurePath):
                cmd = [sys.executable, str(tree / step)]
            else:
                argv = step(d) if callable(step) else step
                cmd = [sys.executable, "-m", "geomfreq.cli", *argv]
            proc = subprocess.run(cmd, cwd=d, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
            codes.append(proc.returncode)
            for text, sink in ((proc.stdout, stdout), (proc.stderr, stderr)):
                sink.append(text.replace(str(d), "<dir>").replace(str(tree), "<tree>"))
        files = {str(p.relative_to(d)): hashlib.sha1(p.read_bytes()).hexdigest()
                 for p in sorted(d.rglob("*")) if p.is_file()}
    return codes, "".join(stdout), "".join(stderr), files


def differences(old, new):
    """Names of the parts in which two results of ``run_case`` differ."""
    parts = [what for what, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
    old_files, new_files = old[3], new[3]
    parts += [f"file {name}" for name in sorted(old_files.keys() | new_files.keys())
              if old_files.get(name) != new_files.get(name)]
    return parts


def _tree(arg):
    path = pathlib.Path(arg).resolve()
    if not (path / "src" / "geomfreq").is_dir():
        raise argparse.ArgumentTypeError(f"{arg}: no src/geomfreq in this tree")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=_tree, metavar="OLD_TREE")
    parser.add_argument("new", type=_tree, metavar="NEW_TREE")
    parser.add_argument("--allow", action="append", default=[], metavar="CASE",
                        help="a case whose outputs may differ (repeatable)")
    args = parser.parse_args(argv)
    table = cases()
    unknown = sorted(set(args.allow) - table.keys())
    if unknown:
        parser.error(f"unknown case(s) for --allow: {', '.join(unknown)}")
    moved, refused = [], []
    for name, steps in table.items():
        parts = differences(run_case(args.old, steps), run_case(args.new, steps))
        if not parts:
            print(f"identical  {name}", flush=True)
            continue
        moved.append(name)
        if name not in args.allow:
            refused.append(name)
        status = "DIFFERS" if name in refused else "allowed"
        print(f"{status:<10} {name}: {', '.join(parts)}", flush=True)
    if not moved:
        print(f"all {len(table)} cases identical")
    else:
        print(f"{len(moved)} of {len(table)} cases differ, {len(refused)} not allowed: "
              f"{' '.join(refused) or '-'}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
