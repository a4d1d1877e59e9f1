"""Exception hierarchy shared by all geomfreq modules."""


class GeomfreqError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateSpeed(GeomfreqError):
    """The voltage vector magnitude is below threshold; the curve
    parameterization breaks down at this sample."""


class UnknownScenario(GeomfreqError):
    """Requested scenario id is not one of the presets."""


class InvalidParameter(GeomfreqError):
    """Scenario parameter out of its valid range, or an unknown
    validation scope."""


class InvalidRange(GeomfreqError):
    """Empty or inverted sampling range, or non-positive step."""


class NonFiniteSample(InvalidRange):
    """A time series was given a NaN or infinite sample value."""


class TooFewSamples(GeomfreqError):
    """Not enough samples for the requested stencil or for the
    discrete Hilbert transform."""


class DegenerateEnvelope(GeomfreqError):
    """Analytic-signal envelope vanishes at an evaluated sample."""


class MalformedCsv(GeomfreqError):
    """An input file is malformed: a waveform CSV with a wrong header,
    bad cells or a non-uniform time grid, or an unparsable config."""


class DegenerateInput(GeomfreqError):
    """Every row of the input is degenerate; nothing to analyze."""


class FloatOverflow(GeomfreqError):
    """A sum, square or product of the input's values leaves the float64
    range where a sample is not degenerate: the input's scale is too
    large for its invariants to be computed."""
