"""Geometric frequency analysis of polyphase waveforms.

Interprets a set of voltages as the time derivative of a space curve
and computes the Frenet frame, curvature and torsion together with the
radial, azimuthal and torsional frequency components and the
decomposed rate of change of frequency.
"""

from .errors import (
    DegenerateInput,
    FloatOverflow,
    GeomfreqError,
    InvalidParameter,
    MalformedCsv,
)
from .frenet import EPS_V, EPS_W, GeomInvariants, frame, invariants, invariants_batch
from .hilbert import analytic_embed, geometric_equivalence, instantaneous_frequency_classical
from .numdiff import differentiate_arrays, lowpass_first_order, remove_zero_sequence
from .park import derivative_frame_check, from_dq0, to_dq0
from .series import TimeSeries
from .signals import SignalModel, eval_arrays, make_scenario, phase_jets, sample
from .threephase import PhaseJet, closed_form_invariants

__version__ = "0.1.0"
