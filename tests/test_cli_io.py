"""The waveform reader against a per-cell ``float()`` reference, and
the column checks of the table writer.

Files are written with sizes next to ``cli_io.BLOCK_ROWS`` (the reader
parses that many lines per block), comment and blank lines anywhere,
LF or CRLF endings, with or without a byte-order mark and a final line
ending.  The parse must match the reference bit for bit, and the first
ragged or bad line of a file must be the one the error names.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomfreq import cli_io, signals
from geomfreq.errors import InvalidParameter, MalformedCsv

DT = 1e-4
SIZES = [cli_io.BLOCK_ROWS - 1, cli_io.BLOCK_ROWS, cli_io.BLOCK_ROWS + 1,
         2 * cli_io.BLOCK_ROWS + 1]
NOTES = ["# exported by a simulator", "# a,b,c,d", "", "   ", "\t# indented, with a comma"]
EDGES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e-300]
# lines the reader must refuse, each with the start of its message
BAD_LINES = [
    ("{t},1.0,2.0", "expected 4 columns, got"),
    ("{t},1.0,2.0,3.0,4.0", "expected 4 columns, got"),
    ("{t},1.0,2.0e,3.0", "bad number in"),
    ("{t},1.0,,3.0", "bad number in"),
    ("{t},nan nan,2.0,3.0", "bad number in"),
    ("{t},x,2.0", "expected 4 columns, got"),  # ragged is checked before numbers
    ("{t};1.0;2.0;3.0", "expected 4 columns, got"),
    ("{t},1.0,2.0,3.0 # note", "bad number in"),
]


@st.composite
def recordings(draw):
    """(rows, notes): the data lines of a waveform CSV of random finite
    floats in ``repr``, and (index, line) comment or blank lines to put
    among them."""
    n = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.frombuffer(rng.bytes(24 * n), dtype=np.float64).reshape(n, 3).copy()
    values[~np.isfinite(values)] = 0.5
    edges = rng.random(values.shape) < 0.02
    values[edges] = rng.choice(EDGES, size=int(edges.sum()))
    pad = draw(st.sampled_from(["", " ", "\t "]))
    rows = [
        ",".join(f"{pad}{x!r}{pad}" for x in (k * DT, *row))
        for k, row in enumerate(values.tolist())
    ]
    notes = draw(st.lists(st.tuples(st.integers(0, n + 1), st.sampled_from(NOTES)), max_size=6))
    return rows, notes


endings = st.tuples(
    st.sampled_from(["\n", "\r\n"]),  # line ending
    st.booleans(),  # byte-order mark
    st.booleans(),  # line ending after the last line
)


def _write(path, rows, notes, ending):
    """Write the header, ``rows`` and ``notes``; return every line."""
    newline, bom, final = ending
    lines = ["t,va,vb,vc", *rows]
    for at, note in notes:
        lines.insert(at, note)
    text = newline.join(lines) + (newline if final else "")
    path.write_bytes(text.encode("utf-8-sig" if bom else "utf-8"))
    return lines


def _reference(lines):
    """The rows of a file's lines by ``float()`` per cell, after its
    comment and blank lines and its header are dropped."""
    kept = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    return np.array([[float(cell) for cell in ln.split(",")] for ln in kept[1:]])


@settings(max_examples=40, deadline=None)
@given(recordings(), endings)
def test_reader_parses_every_cell_as_float_does(tmp_path_factory, recording, ending):
    path = tmp_path_factory.mktemp("read") / "wf.csv"
    lines = _write(path, *recording, ending)
    series = cli_io.read_waveform_csv(path)
    got = np.column_stack([series.times, series.values])
    want = _reference(lines)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(recordings(), endings, st.data())
def test_reader_names_the_first_bad_line(tmp_path_factory, recording, ending, data):
    rows, notes = recording
    first, second = sorted(
        data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    )
    (bad, says), (later, _) = (data.draw(st.sampled_from(BAD_LINES)) for _ in range(2))
    bad = bad.format(t=repr(first * DT))
    rows = list(rows)
    rows[first] = bad
    rows[second] = later.format(t=repr(second * DT))
    path = tmp_path_factory.mktemp("bad") / "wf.csv"
    _write(path, rows, notes, ending)
    with pytest.raises(MalformedCsv) as err:
        cli_io.read_waveform_csv(path)
    assert str(err.value) == f"{path}: {says} {bad!r}"


def test_a_short_and_a_long_line_in_one_block_are_ragged(tmp_path):
    # together they hold 4 cells a line, so only a per-line count sees them
    rows = [f"{k * DT!r},1.0,2.0,3.0" for k in range(10)]
    rows[3], rows[4] = f"{3 * DT!r},1.0,2.0", f"{4 * DT!r},1.0,2.0,3.0,4.0"
    path = tmp_path / "wf.csv"
    _write(path, rows, [], ("\n", False, True))
    with pytest.raises(MalformedCsv) as err:
        cli_io.read_waveform_csv(path)
    assert str(err.value) == f"{path}: expected 4 columns, got {rows[3]!r}"


def test_reader_takes_the_cells_numpy_refuses_as_float_does(tmp_path):
    # numpy's parser refuses digit-group underscores and non-ASCII digits,
    # which float() reads: 1_0 is 10, and the Arabic-Indic digits are 0.5
    # and 25; a block holding one of them is read by float() per cell
    odd = ["1_0", "\u0660.\u0665", "\u0662\u0665", " 2_5.0e-1_0 "]
    rows = [f"{k * DT!r},{k / 7!r},-0.5,{-k / 3!r}" for k in range(2 * cli_io.BLOCK_ROWS + 1)]
    for k, cell in zip((0, 3, cli_io.BLOCK_ROWS + 5, 2 * cli_io.BLOCK_ROWS), odd):
        rows[k] = f"{k * DT!r},{cell},-0.5,{cell}"
    path = tmp_path / "wf.csv"
    lines = _write(path, rows, [], ("\n", False, True))
    series = cli_io.read_waveform_csv(path)
    got = np.column_stack([series.times, series.values])
    want = _reference(lines)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert want[3, 1] == 0.5 and want[-1, 3] == 2.5e-9


def test_a_block_of_only_comment_and_blank_lines_is_skipped(tmp_path):
    # more than a block of them between two data rows; numpy warns on a
    # parse of no lines, and pytest turns a warning into an error
    notes = [(2, NOTES[k % len(NOTES)]) for k in range(2 * cli_io.BLOCK_ROWS + 3)]
    rows = [f"{k * DT!r},1.0,-0.5,-0.5" for k in range(4)]
    path = tmp_path / "wf.csv"
    lines = _write(path, rows, notes, ("\r\n", True, False))
    series = cli_io.read_waveform_csv(path)
    assert np.array_equal(np.column_stack([series.times, series.values]), _reference(lines))


def test_a_file_of_five_cell_lines_names_the_first(tmp_path):
    # numpy's parser reads every line alike, as five columns
    rows = [f"{k * DT!r},1.0,-0.5,-0.5,0.0" for k in range(cli_io.BLOCK_ROWS + 1)]
    path = tmp_path / "wf.csv"
    _write(path, rows, [], ("\n", False, True))
    with pytest.raises(MalformedCsv) as err:
        cli_io.read_waveform_csv(path)
    assert str(err.value) == f"{path}: expected 4 columns, got {rows[0]!r}"


def test_reader_peak_memory_is_bounded_per_sample(tmp_path):
    n = 50_000
    path = tmp_path / "e5.csv"
    model = signals.make_scenario("E5")
    cli_io.write_waveform_csv(path, signals.sample(model, 0.0, (n - 1) * DT, DT))
    tracemalloc.start()
    try:
        series = cli_io.read_waveform_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == n
    # the float array (32 B/sample) and its blocks while they are joined
    assert peak / n < 120


@pytest.mark.parametrize("columns, lengths", [
    ((np.zeros(3), np.zeros(3)), "[3, 3]"),
    ((np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3)), "[3, 3, 3, 3]"),
    ((np.zeros(3), np.zeros(2), np.zeros(3)), "[3, 2, 3]"),
], ids=["fewer-columns", "more-columns", "unequal-lengths"])
def test_writer_refuses_columns_that_do_not_fit_the_header(tmp_path, columns, lengths):
    # zipped, they would write the shortest column's rows or drop a column
    path = tmp_path / "table.csv"
    with pytest.raises(InvalidParameter,
                       match=re.escape(f"3 column names for column lengths {lengths}")):
        cli_io.write_table(path, ("t", "a", "b"), columns)
    assert not path.exists()
