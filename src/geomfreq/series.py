"""Uniformly sampled three-channel recordings: a three-phase set, or
the plane curve (u, uh, 0) of ``hilbert.analytic_embed``."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .geometry import as_rows, check_overflow, check_positive


@dataclass(frozen=True)
class TimeSeries:
    """Three voltage channels on a grid of step dt (``geometry.check_positive``):
    values[k] is (va, vb, vc) at times[k] (``geometry.as_rows``).

    ``times`` is stored as given, whether ``signals.sample`` built it or
    a file held it, so it round-trips bit-exactly and a slice of the
    series is a slice of its grid.
    """

    times: np.ndarray
    dt: float
    values: np.ndarray

    def __post_init__(self):
        check_positive("dt", self.dt)
        times, (values,) = as_rows(self.times, self.values)
        if times.size < 1:
            raise InvalidParameter("time series needs at least one sample")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.times.size

    def with_values(self, values):
        """This grid with values computed from this series' own finite ones:
        a non-finite one is a FloatOverflow (``geometry.check_overflow``)."""
        check_overflow("values computed from the samples overflow float64", values)
        return TimeSeries(self.times, self.dt, values)
