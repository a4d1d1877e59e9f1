"""Closed-form waveform generators with analytic derivatives.

Every preset scenario is a sum, per channel, of components of the form
m(t) * sin(theta(t)) where the magnitude profile m is
``offset + amplitude*sin(rate*t + phase)`` and the angle profile is
``slope*t + intercept + mod_amplitude*sin(mod_rate*t)``.  These two
shapes cover DC, stationary and harmonic three-phase sets, and the
sinusoidal frequency modulations of the time-variant scenarios, while
keeping first and second derivatives available in closed form.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, InvalidRange, UnknownScenario
from .frenet import Jet2
from .series import TimeSeries
from .threephase import PhaseJet

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
W_BASE = 100.0 * math.pi
MAX_SAMPLES = 10_000_000  # largest sampling grid; its times alone are 80 MB

SCENARIO_IDS = (
    "DC",
    "SINGLE_PHASE",
    "E0",
    "E1",
    "E2",
    "E3",
    "E4",
    "E5",
    "E6",
    "E7",
    "E8",
    "CUSTOM",
)


@dataclass(frozen=True)
class Profile:
    """Scalar magnitude profile offset + amplitude*sin(rate*t + phase)."""

    offset: float
    amplitude: float = 0.0
    rate: float = 0.0
    phase: float = 0.0

    def eval(self, t, xp=math):
        """(f, f', f'') at t: a float with xp=math, an array with xp=np."""
        s = xp.sin(self.rate * t + self.phase)
        c = xp.cos(self.rate * t + self.phase)
        f = self.offset + self.amplitude * s
        df = self.amplitude * self.rate * c
        ddf = -self.amplitude * self.rate**2 * s
        return f, df, ddf


@dataclass(frozen=True)
class AngleProfile:
    """Angle slope*t + intercept + mod_amplitude*sin(mod_rate*t)."""

    slope: float
    intercept: float = 0.0
    mod_amplitude: float = 0.0
    mod_rate: float = 0.0

    def eval(self, t, xp=math):
        """(theta, theta', theta'') at t, as ``Profile.eval``."""
        s = xp.sin(self.mod_rate * t)
        c = xp.cos(self.mod_rate * t)
        th = self.slope * t + self.intercept + self.mod_amplitude * s
        dth = self.slope + self.mod_amplitude * self.mod_rate * c
        ddth = -self.mod_amplitude * self.mod_rate**2 * s
        return th, dth, ddth


@dataclass(frozen=True)
class Component:
    magnitude: Profile
    angle: AngleProfile


@dataclass(frozen=True)
class SignalModel:
    """Immutable closed-form model of a three-channel waveform."""

    name: str
    channels: tuple  # three tuples of Component
    w_o: float = W_BASE

    def __post_init__(self):
        if len(self.channels) != 3:
            raise InvalidParameter("model must have exactly three channels")
        object.__setattr__(
            self, "channels", tuple(tuple(ch) for ch in self.channels)
        )


def _eval_channel(components, t, xp=math):
    """Value and first two derivatives of sum_k m_k sin(theta_k), at a
    float t with xp=math or at every entry of an array t with xp=np."""
    f = df = ddf = 0.0
    for comp in components:
        m, dm, ddm = comp.magnitude.eval(t, xp)
        th, dth, ddth = comp.angle.eval(t, xp)
        s, c = xp.sin(th), xp.cos(th)
        f += m * s
        df += dm * s + m * dth * c
        ddf += (ddm - m * dth**2) * s + (2.0 * dm * dth + m * ddth) * c
    return f, df, ddf


def eval_jet(model, t):
    """Exact analytic (v, v', v'') at time t."""
    vals = [_eval_channel(ch, t) for ch in model.channels]
    return Jet2(
        t=t,
        v=[x[0] for x in vals],
        dv=[x[1] for x in vals],
        ddv=[x[2] for x in vals],
    )


def eval_arrays(model, times):
    """Exact analytic v, v', v'' at each of N times, as (N, 3) arrays."""
    times = np.asarray(times, dtype=np.float64)
    out = np.empty((3, times.size, 3))
    for c, ch in enumerate(model.channels):
        for d, x in enumerate(_eval_channel(ch, times, np)):
            out[d, :, c] = x  # a scalar 0.0 for a channel without components
    return out[0], out[1], out[2]


def phase_jet(components, t, eps=1e-12):
    """Per-phase (V, theta) jet of a channel, via its complex envelope.

    The channel sum_k m_k sin(theta_k) equals Im(z) with
    z = sum_k m_k exp(i theta_k); magnitude and phase derivatives come
    from z, z', z''.  A channel with vanishing envelope gets an
    all-zero jet (its closed-form contribution is zero).
    """
    z = dz = ddz = 0.0 + 0.0j
    for comp in components:
        m, dm, ddm = comp.magnitude.eval(t)
        th, dth, ddth = comp.angle.eval(t)
        e = cmath.exp(1j * th)
        z += m * e
        dz += (dm + 1j * m * dth) * e
        ddz += (ddm + 2j * dm * dth + (1j * ddth - dth**2) * m) * e
    V = abs(z)
    if V <= eps:
        return PhaseJet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    zc = z.conjugate()
    dV = (zc * dz).real / V
    dtheta = (zc * dz).imag / V**2
    ddV = ((abs(dz) ** 2 + (zc * ddz).real) - dV**2) / V
    ddtheta = (zc * ddz).imag / V**2 - 2.0 * (dV / V) * dtheta
    return PhaseJet(V, dV, ddV, cmath.phase(z), dtheta, ddtheta)


def phase_jets(model, t):
    """PhaseJet for each of the three channels at time t."""
    return tuple(phase_jet(ch, t) for ch in model.channels)


def sample_times(t0, t1, dt):
    """The uniform grid t0 + k*dt, k = 0..n-1, whose last point is the
    one nearest t1; at least 2 points and at most MAX_SAMPLES, all
    finite.  Raises InvalidRange otherwise, before allocating."""
    if not dt > 0:
        raise InvalidRange(f"dt must be positive, got {dt}")
    span = (t1 - t0) / dt
    if not 0.5 < span < math.inf:  # fewer than 2 samples, NaN or infinite
        raise InvalidRange(f"bad range [{t0}, {t1}] with dt {dt}")
    n = int(round(span)) + 1
    if n > MAX_SAMPLES:
        raise InvalidRange(
            f"range [{t0}, {t1}] with dt {dt} needs more than "
            f"MAX_SAMPLES = {MAX_SAMPLES} samples"
        )
    return t0 + dt * np.arange(n)


def sample(model, t0, t1, dt):
    """Uniformly sampled voltage values (no derivatives) on [t0, t1]."""
    values = eval_arrays(model, sample_times(t0, t1, dt))[0]
    return TimeSeries(t0=t0, dt=dt, channels=("va", "vb", "vc"), values=values)


def _check_magnitudes(name, values):
    for x in values:
        if x < 0:
            raise InvalidParameter(f"{name} must be non-negative, got {x}")


def dc_model(vdc=5.0):
    """Constant voltage along the first axis."""
    if vdc < 0:
        raise InvalidParameter(f"vdc must be non-negative, got {vdc}")
    const = Component(Profile(vdc), AngleProfile(slope=0.0, intercept=math.pi / 2))
    return SignalModel(name="DC", channels=((const,), (), ()), w_o=0.0)


def single_phase_model(V=1.0, w_o=2.0 * math.pi, alpha=0.0):
    """Analytic-signal pair (V cos, V sin) in the first two channels."""
    _check_magnitudes("V", [V])
    ch1 = Component(Profile(V), AngleProfile(w_o, alpha + math.pi / 2))
    ch2 = Component(Profile(V), AngleProfile(w_o, alpha))
    return SignalModel(name="SINGLE_PHASE", channels=((ch1,), (ch2,), ()), w_o=w_o)


def three_phase_model(
    name="CUSTOM",
    V=(12.0, 12.0, 12.0),
    theta0=(0.0, -TWO_THIRDS_PI, TWO_THIRDS_PI),
    w_o=W_BASE,
    mod_amplitude=(0.0, 0.0, 0.0),
    mod_rate=(0.0, 0.0, 0.0),
    harmonic=None,
):
    """Three-phase set V_i sin(w_o t + theta0_i + A_i sin(B_i t)), with
    an optional additive harmonic (h, V_h, theta0_h)."""
    _check_magnitudes("V", V)
    channels = []
    for i in range(3):
        comps = [
            Component(
                Profile(V[i]),
                AngleProfile(
                    slope=w_o,
                    intercept=theta0[i],
                    mod_amplitude=mod_amplitude[i],
                    mod_rate=mod_rate[i],
                ),
            )
        ]
        if harmonic is not None:
            h, Vh, theta0h = harmonic
            if int(h) != h or h < 2:
                raise InvalidParameter(f"harmonic order must be >= 2, got {h}")
            _check_magnitudes("harmonic V", Vh)
            comps.append(
                Component(
                    Profile(Vh[i]),
                    AngleProfile(slope=h * w_o, intercept=theta0h[i]),
                )
            )
        channels.append(tuple(comps))
    return SignalModel(name=name, channels=tuple(channels), w_o=w_o)


_HARM_BAL = (11, (0.5, 0.5, 0.5), (0.0, -TWO_THIRDS_PI, TWO_THIRDS_PI))

_PRESETS = {
    "DC": (dc_model, {}),
    "SINGLE_PHASE": (single_phase_model, {}),
    "E0": (three_phase_model, {}),
    "E1": (three_phase_model, {"V": (12.0, 8.0, 12.0)}),
    "E2": (
        three_phase_model,
        {"theta0": (0.0, -TWO_THIRDS_PI, 1.5 * math.pi / 3.0)},
    ),
    "E3": (three_phase_model, {"harmonic": _HARM_BAL}),
    "E4": (
        three_phase_model,
        {
            "harmonic": (
                11,
                (0.5, 0.5, 0.5),
                (0.0, -2.7 * math.pi / 3.0, 2.7 * math.pi / 3.0),
            )
        },
    ),
    "E5": (
        three_phase_model,
        {
            "harmonic": (
                11,
                (0.5, 0.9, 1.3),
                (0.0, -TWO_THIRDS_PI, TWO_THIRDS_PI),
            )
        },
    ),
    "E6": (
        three_phase_model,
        {
            "mod_amplitude": (math.pi, math.pi, math.pi),
            "mod_rate": (0.4 * math.pi,) * 3,
        },
    ),
    "E7": (
        three_phase_model,
        {
            "mod_amplitude": (math.pi, math.pi, math.pi),
            "mod_rate": (0.4 * math.pi, 0.4 * math.pi, 0.44 * math.pi),
        },
    ),
    "E8": (
        three_phase_model,
        {
            "mod_amplitude": (math.pi, math.pi, 1.1 * math.pi),
            "mod_rate": (0.4 * math.pi,) * 3,
        },
    ),
}


def make_scenario(scenario_id, **overrides):
    """Build a preset scenario model, optionally perturbing parameters.

    CUSTOM accepts the full ``three_phase_model`` keyword set.
    """
    if scenario_id == "CUSTOM":
        return three_phase_model(**overrides)
    if scenario_id not in _PRESETS:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}")
    builder, defaults = _PRESETS[scenario_id]
    params = dict(defaults)
    params.update(overrides)
    if builder is three_phase_model:
        params["name"] = scenario_id
    try:
        return builder(**params)
    except TypeError as exc:
        raise InvalidParameter(str(exc)) from exc
