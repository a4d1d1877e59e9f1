"""CSV and config file formats used by the command line.

Every CSV the command line writes (waveform, analysis, dq0 and Hilbert
tables) has one format, written by ``write_table``: a header row of
column names, comma separated, LF line endings, floats in Python's
shortest round-trip ``repr`` so identical inputs yield byte-identical
files, NaN as an empty cell, a ``rotation_defined`` column as a 0/1
flag, and an optional trailing ``# key=value`` comment line.

The waveform reader decodes the file as UTF-8 (a leading byte-order
mark is dropped), skips '#' comment and blank lines anywhere, accepts
LF or CRLF line endings, needs the exact header ``t,va,vb,vc``, and
reads each cell to ``float()``'s bits (numpy's parser reads each block;
``float()`` takes the cells it refuses).  It returns a three-channel
``TimeSeries`` on the file's own time column.  Both directions work in
blocks of BLOCK_ROWS lines, so the text held at once stays bounded.
"""

from itertools import islice

import numpy as np

from .analysis import COLUMNS
from .errors import InvalidParameter, MalformedCsv
from .series import TimeSeries

WAVEFORM_HEADER = ("t", "va", "vb", "vc")
DT_JITTER_REL = 1e-9
ENCODING = "utf-8-sig"  # UTF-8, with or without a byte-order mark
# lines per block read or written; at 1024 a 5000-row analysis peaked 2.5 MiB higher
BLOCK_ROWS = 256


def write_waveform_csv(path, series):
    """Write a three-channel waveform with header t,va,vb,vc."""
    write_table(path, WAVEFORM_HEADER, (series.times, *series.values.T))


def read_waveform_csv(path):
    """Parse a waveform CSV back into a TimeSeries that holds the
    parsed time column itself, so the times round-trip bit-exactly.

    Raises MalformedCsv on undecodable text, a wrong header, ragged
    rows, unparsable, NaN or infinite numbers, or a time column with a
    step off the median step dt by more than DT_JITTER_REL * max(dt, 1 s)
    + 2 ulp(max |t|): 1e-9 s absolute for any step up to 1 s, 1e-9
    relative above, plus the rounding of two stored times (each is
    within half an ulp, so a step and the median are each within one
    ulp of the true dt).  A ragged row or bad number is reported for
    the first such line.
    """
    try:
        with open(path, encoding=ENCODING) as fh:
            rows = filter(_is_row, fh)
            first = next(rows, "").rstrip("\n")
            if not first:
                raise MalformedCsv(f"{path}: empty file")
            header = tuple(col.strip() for col in first.split(","))
            if header != WAVEFORM_HEADER:
                raise MalformedCsv(
                    f"{path}: header must be {','.join(WAVEFORM_HEADER)}, got {first!r}"
                )
            blocks = []
            while block := list(islice(rows, BLOCK_ROWS)):
                blocks.append(_parse_block(path, block))
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc
    if sum(map(len, blocks)) < 2:
        raise MalformedCsv(f"{path}: need at least 2 samples")
    data = np.concatenate(blocks)
    del blocks  # freed before the checks below allocate
    if not np.all(np.isfinite(data)):
        raise MalformedCsv(f"{path}: NaN or infinite number")
    t = data[:, 0]
    steps = np.diff(t)
    dt = float(np.median(steps))
    # 2 ulp of max |t|, found without an (N,) temporary
    tol = DT_JITTER_REL * max(abs(dt), 1.0) + 2.0 * np.spacing(max(t.max(), -t.min()))
    if dt <= 0 or np.any(np.abs(steps - dt) > tol):
        raise MalformedCsv(f"{path}: time column is not uniformly spaced")
    return TimeSeries(t, dt, data[:, 1:])


def _is_row(line):
    """False for a blank or '#' comment line, which the reader skips."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def _parse_block(path, lines):
    """The (k, 4) floats of k data lines by numpy's parser, or else by
    ``float()`` per cell, which also takes ``1_0`` and non-ASCII digits
    and names the first ragged or bad line."""
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == 4:
            return data
    except ValueError:
        pass
    rows = []
    for ln in lines:
        ln = ln.rstrip("\n")
        parts = ln.split(",")
        if len(parts) != 4:
            raise MalformedCsv(f"{path}: expected 4 columns, got {ln!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise MalformedCsv(f"{path}: bad number in {ln!r}") from exc
    return np.array(rows, dtype=np.float64)


def _undecodable(path, exc):
    """The MalformedCsv for a file that is not text in ENCODING."""
    return MalformedCsv(f"{path}: not UTF-8 text ({exc.reason})")


def _cells(column, fmt):
    """Formatted cells of one column; NaN becomes an empty cell."""
    return ["" if x != x else fmt(x) for x in column.tolist()]


def _flag(x):
    return str(int(x))


def write_table(path, header, columns, footer=None):
    """Write equal-length float arrays, one per name in ``header``, as CSV
    rows in blocks of BLOCK_ROWS, then ``# footer`` if given.  Other
    columns are refused with InvalidParameter before the file is opened."""
    lengths = [len(col) for col in columns]
    if len(lengths) != len(header) or len(set(lengths)) != 1:
        raise InvalidParameter(f"{len(header)} column names for column lengths {lengths}")
    fmts = [_flag if name == "rotation_defined" else repr for name in header]
    n = lengths[0]
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
    """Read an INI-style config into a flat {section.key: value} dict.
    Raises MalformedCsv if the file is missing, is not UTF-8 text or INI
    parsing rejects it."""
    import configparser  # deferred: only a --config run parses an INI

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding=ENCODING)
        out = {}
        for section in parser.sections():
            for key, value in parser.items(section):
                out[f"{section}.{key}"] = value
    except configparser.Error as exc:
        raise MalformedCsv(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc
    if not read:
        raise MalformedCsv(f"config file not found: {path}")
    return out
