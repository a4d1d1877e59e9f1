"""Generated bad input through ``cli.main``: whatever the argv or the
recording, a run ends in one of the four exit codes, lets no exception
or warning out, and reports a usage or input error on one ``error:`` line.

The argvs cover ``generate``, ``analyze`` on a scenario and on a CSV,
``park``, and ``hilbert`` on its test tone and on a CSV.  Flag values mix
edge floats (0, negatives, NaN, infinities, 1e±300, 5e-324, 2**23, 1e17)
with ordinary ones; a recording has 0-40 rows on a step from 1e-9 to
1e300 s, of a three-phase set at a drawn scale, with a few cells replaced
by text the reader must refuse.  ``signals.MAX_SAMPLES`` is patched small,
so that no draw builds a long grid.
"""

import contextlib
import io
import math
import warnings
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from geomfreq import cli, signals

PRESETS = ("DC", "SINGLE_PHASE", *(f"E{k}" for k in range(9)), "NOPE")
EDGES = (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 5e-324,
         2.0**23, 1e17, 1e12, 1e308, 0.3, 1e-3, 1e-4, 0.01, 50.0, 300.0)
CELLS = ("nan", "inf", "-inf", "x", "", "1e999", "5e-324", "-0.0")
SCALES = (0.0, 1e-300, 1e-12, 1.0, 12.0, 1e80, 1e154, 1e300, 1.7e308)
MAX_SAMPLES = 1000  # the grid cap during the test: a few ms a run

values = st.one_of(st.sampled_from(EDGES), st.floats())


@st.composite
def flags(draw, *names):
    """``--name=value`` for a drawn subset of ``names``, each value a float."""
    return [f"--{name}={draw(values)!r}" for name in names if draw(st.booleans())]


@st.composite
def recordings(draw):
    """The text of a waveform CSV: a three-phase set of a drawn scale and
    phase step on a drawn grid, with up to three cells replaced by text."""
    rows = draw(st.integers(0, 40))
    t0 = draw(st.sampled_from((0.0, 1.0, -5.0, 1e7, 1e17)))
    dt = 10.0 ** draw(st.floats(-9.0, 300.0))
    scale = draw(st.sampled_from(SCALES))
    step = draw(st.floats(0.0, 3.0))
    table = [
        [repr(t0 + k * dt), *(repr(scale * math.cos(step * k - p)) for p in (0.0, 2.1, -2.1))]
        for k in range(rows)
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row, col = draw(st.integers(0, rows - 1)), draw(st.integers(0, 3))
        table[row][col] = draw(st.sampled_from(CELLS))
    return "".join(",".join(row) + "\n" for row in [["t", "va", "vb", "vc"], *table])


@st.composite
def argvs(draw):
    """(argv, recording text or None) of one of the six routes."""
    route = draw(st.sampled_from(
        ("generate", "analyze", "analyze-csv", "park", "hilbert", "hilbert-csv")))
    grid = draw(flags("t0", "t1", "dt"))
    scenario = draw(st.sampled_from(PRESETS))
    if route == "generate":
        return ["generate", scenario, *grid, *draw(flags("vdc")), "--out", "{out}"], None
    if route == "analyze":
        return ["analyze", "--scenario", scenario, *grid, "--out", "{out}"], None
    if route == "park":
        out = ["--out", "{out}"] if draw(st.booleans()) else []
        return ["park", "--scenario", scenario, *grid, *draw(flags("wdq", "theta0")), *out], None
    if route == "hilbert":
        return ["hilbert", *draw(flags("freq", "t1", "dt")), "--out", "{out}"], None
    text = draw(recordings())
    if route == "analyze-csv":
        zero_seq = ["--remove-zero-seq"] if draw(st.booleans()) else []
        argv = ["analyze", "--csv", "{csv}", *draw(flags("filter-tau")), *zero_seq, "--out", "{out}"]
        return argv, text
    channel = [f"--channel={draw(st.integers(-1, 3))}"] if draw(st.booleans()) else []
    return ["hilbert", "--csv", "{csv}", *channel, "--out", "{out}"], text


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_cli_main_on_generated_input(tmp_path_factory, case):
    argv, text = case
    where = tmp_path_factory.mktemp("fuzz")
    paths = {"csv": where / "in.csv", "out": where / "out.csv"}
    if text is not None:
        paths["csv"].write_text(text)
    argv = [a.format(**paths) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(signals, "MAX_SAMPLES", MAX_SAMPLES),
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
    ):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert rc in (0, 1, 2, 3)
    lines = stderr.getvalue().splitlines()
    if rc in (2, 3):
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert not lines
