"""Exception hierarchy shared by all geomfreq modules."""


class GeomfreqError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateSpeed(GeomfreqError):
    """The voltage vector magnitude is below threshold; the curve
    parameterization breaks down at this sample."""


class DegenerateRotation(GeomfreqError):
    """The rotation vector magnitude is below threshold; normal and
    binormal directions are undefined."""


class UnknownScenario(GeomfreqError):
    """Requested scenario id is not one of the presets."""


class InvalidParameter(GeomfreqError):
    """Scenario parameter out of its valid range."""


class InvalidRange(GeomfreqError):
    """Empty or inverted sampling range, or non-positive step."""


class TooFewSamples(GeomfreqError):
    """Not enough samples for the requested stencil."""


class WrongChannelCount(GeomfreqError):
    """Operation requires exactly three voltage channels."""


class TooShort(GeomfreqError):
    """Signal too short for the discrete Hilbert transform."""


class DegenerateEnvelope(GeomfreqError):
    """Analytic-signal envelope vanishes at an evaluated sample."""


class MalformedCsv(GeomfreqError):
    """An input file is malformed: a waveform CSV with a wrong header,
    bad cells or a non-uniform time grid, or an unparsable config."""


class DegenerateInput(GeomfreqError):
    """Every row of the input is degenerate; nothing to analyze."""
