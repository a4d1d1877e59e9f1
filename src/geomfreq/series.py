"""Uniformly sampled multi-channel time series."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FloatOverflow, InvalidRange, NonFiniteSample


@dataclass(frozen=True)
class TimeSeries:
    """Uniform-grid samples: values[k, c] is channel c at t0 + k*dt.

    ``explicit_times`` preserves timestamps parsed from a file so that
    they round-trip bit-exactly; when absent the grid is synthesized
    from t0 and dt.
    """

    t0: float
    dt: float
    channels: tuple
    values: np.ndarray
    explicit_times: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidRange(f"dt must be positive, got {self.dt}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(self.channels):
            raise InvalidRange(
                f"values shape {values.shape} does not match "
                f"{len(self.channels)} channels"
            )
        if values.shape[0] < 1:
            raise InvalidRange("time series needs at least one sample")
        if not np.all(np.isfinite(values)):
            raise NonFiniteSample("non-finite sample value")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.explicit_times is not None:
            times = np.asarray(self.explicit_times, dtype=np.float64)
            if times.shape != (values.shape[0],):
                raise InvalidRange("explicit_times length mismatch")
            object.__setattr__(self, "explicit_times", times)

    def __len__(self):
        return self.values.shape[0]

    @property
    def times(self):
        if self.explicit_times is not None:
            return self.explicit_times
        return self.t0 + self.dt * np.arange(len(self))

    def with_values(self, values):
        """This grid with values computed from this series' own, which
        are finite: a non-finite one is an overflow of that computation,
        so it raises FloatOverflow rather than NonFiniteSample."""
        try:
            return TimeSeries(
                self.t0, self.dt, self.channels, values, self.explicit_times
            )
        except NonFiniteSample:
            raise FloatOverflow("values computed from the samples overflow float64") from None
