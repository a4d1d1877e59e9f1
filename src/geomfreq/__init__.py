"""Geometric frequency analysis of polyphase waveforms.

Interprets a set of voltages as the time derivative of a space curve
and computes the Frenet frame, curvature and torsion together with the
radial, azimuthal and torsional frequency components and the
decomposed rate of change of frequency.  The package binds only the
error classes; every function is imported from its module.
"""

from .errors import DegenerateInput, FloatOverflow, GeomfreqError, InvalidParameter, MalformedCsv

__version__ = "0.1.0"
