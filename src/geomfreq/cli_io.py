"""CSV and config file formats used by the command line.

Every CSV the command line writes (waveform, analysis, dq0 and Hilbert
tables) has one format, written by ``write_table``: a header row of
column names, comma separated, LF line endings, floats in Python's
shortest round-trip ``repr`` so identical inputs yield byte-identical
files, NaN as an empty cell, a ``rotation_defined`` column as a 0/1
flag, and an optional trailing ``# key=value`` comment line.  The
waveform reader accepts '#' comment lines and needs the exact header
``t,va,vb,vc``.
"""

import configparser

import numpy as np

from .analysis import COLUMNS
from .errors import MalformedCsv
from .series import TimeSeries

WAVEFORM_HEADER = ("t", "va", "vb", "vc")
DT_JITTER_REL = 1e-9
BLOCK_ROWS = 256  # rows per write; at 1024 a 5000-row analysis peaked 2.5 MiB higher


def write_waveform_csv(path, series):
    """Write a three-channel waveform with header t,va,vb,vc."""
    write_table(path, WAVEFORM_HEADER, (series.times, *series.values.T))


def read_waveform_csv(path):
    """Parse a waveform CSV back into a TimeSeries.

    Raises MalformedCsv on a wrong header, ragged rows, unparsable,
    NaN or infinite numbers, or a time column whose spacing jitters
    beyond 1e-9 relative.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise MalformedCsv(f"{path}: empty file")
    header = tuple(col.strip() for col in lines[0].split(","))
    if header != WAVEFORM_HEADER:
        raise MalformedCsv(
            f"{path}: header must be {','.join(WAVEFORM_HEADER)}, got {lines[0]!r}"
        )
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise MalformedCsv(f"{path}: expected 4 columns, got {ln!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise MalformedCsv(f"{path}: bad number in {ln!r}") from exc
    if len(rows) < 2:
        raise MalformedCsv(f"{path}: need at least 2 samples")
    data = np.array(rows)
    if not np.all(np.isfinite(data)):
        raise MalformedCsv(f"{path}: NaN or infinite number")
    t = data[:, 0]
    steps = np.diff(t)
    dt = float(np.median(steps))
    if dt <= 0 or np.any(np.abs(steps - dt) > DT_JITTER_REL * max(abs(dt), 1.0)):
        raise MalformedCsv(f"{path}: time column is not uniformly spaced")
    return TimeSeries(
        t0=float(t[0]),
        dt=dt,
        channels=("va", "vb", "vc"),
        values=data[:, 1:],
        explicit_times=t,
    )


def _cells(column, fmt):
    """Formatted cells of one column; NaN becomes an empty cell."""
    return ["" if x != x else fmt(x) for x in column.tolist()]


def _flag(x):
    return str(int(x))


def write_table(path, header, columns, footer=None):
    """Write equal-length float arrays, one per name in ``header``, as
    CSV rows, then ``# footer`` if given.  Rows are formatted in blocks
    of BLOCK_ROWS, so the text held at once stays bounded."""
    fmts = [_flag if name == "rotation_defined" else repr for name in header]
    n = len(columns[0])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, BLOCK_ROWS):
            cells = [
                _cells(col[lo : lo + BLOCK_ROWS], fmt)
                for col, fmt in zip(columns, fmts)
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        if footer is not None:
            fh.write(f"# {footer}\n")


def write_analysis_csv(path, columns, degenerate_count):
    """Write analysis columns (one array per name in COLUMNS), with a
    footer comment recording how many samples were degenerate."""
    write_table(path, COLUMNS, columns, f"degenerate_samples={degenerate_count}")


def read_config(path):
    """Read an INI-style config into a flat {section.key: value} dict."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        out = {}
        for section in parser.sections():
            for key, value in parser.items(section):
                out[f"{section}.{key}"] = value
    except configparser.Error as exc:
        raise MalformedCsv(f"{path}: {exc}") from exc
    if not read:
        raise FileNotFoundError(path)
    return out
