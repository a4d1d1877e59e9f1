"""Exception hierarchy shared by all geomfreq modules: one class per kind
of failure.  ``geomfreq.cli`` exits 2 on ``InvalidParameter`` and 3 on
any other ``GeomfreqError``; 1 means only that a check it ran failed."""


class GeomfreqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(GeomfreqError):
    """A bad argument: an unknown scenario or validation scope, a
    parameter out of its range, an empty or inverted sampling range, a
    non-finite sample, or too few samples for a stencil or the Hilbert transform."""


class MalformedCsv(GeomfreqError):
    """An input file is malformed: a waveform CSV with a wrong header,
    bad cells or a non-uniform time grid, or an unparsable config."""


class DegenerateInput(GeomfreqError):
    """The curve's speed |v|, or the analytic envelope, vanishes where the
    frame is needed: at an instant, or at every sample of the input."""


class FloatOverflow(GeomfreqError):
    """A sum, square or product of the input's values leaves the float64
    range where a sample is not degenerate: the input's scale is too
    large for its invariants to be computed."""
