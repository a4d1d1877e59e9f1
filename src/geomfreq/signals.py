"""Closed-form waveform generators with analytic derivatives.

Every preset scenario is a sum, per channel, of components of the form
m(t) * sin(theta(t)), where the magnitude m and the angle theta are each
a ``Profile``, ``offset + slope*t + amplitude*sin(rate*t)``.  That one
shape covers DC, stationary and harmonic three-phase sets (a constant
magnitude; an angle theta0 + w t), and the sinusoidal frequency
modulations of the time-variant scenarios, while keeping first and
second derivatives available in closed form: ``eval_arrays`` gives the
cartesian v, v', v'', and ``phase_jets`` the three channels' magnitude
and angle jets as one ``threephase.PhaseJet`` (phase axis last) for the
closed-form oracle, of one model or of a sequence of M as M*N rows,
model-major.  Both run one kernel, ``_component_jets``, over one table
of every component (channel c of model m is channel 3m + c) at once, in
slices of at most EVAL_ROWS times, and refuse an angle past
``geometry.MAX_ANGLE``, which float64 no longer resolves.  The builders
refuse a bad magnitude and ``sample_times`` a bad step (``geometry``'s checks).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FloatOverflow, InvalidParameter
from .geometry import MAX_ANGLE, check_angle, check_finite, check_nonnegative, check_positive
from .series import TimeSeries

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
W_BASE = 100.0 * math.pi
MAX_SAMPLES = 10_000_000  # largest sampling grid; its times alone are 80 MB
EPS_ENVELOPE = 1e-12  # V; at or below it a channel's complex envelope is zero
EVAL_ROWS = 65536  # times per slice of the signal kernel; bounds its (C, rows) temporaries


@dataclass(frozen=True)
class Profile:
    """Profile offset + slope*t + amplitude*sin(rate*t), of a magnitude
    or of an angle; its fields are floats, or arrays broadcast against t."""

    offset: float
    slope: float = 0.0
    amplitude: float = 0.0
    rate: float = 0.0

    def eval(self, t):
        """(f, f', f'') at t, a float or an array of times."""
        rt = self.rate * t
        s, c = np.sin(rt), np.cos(rt)
        f = self.offset + self.slope * t + self.amplitude * s
        df = self.slope + self.amplitude * self.rate * c
        # rate * rate, not rate**2, which on a float is libm pow and can round
        # apart from an array's square: a float and a stacked profile agree
        ddf = -self.amplitude * (self.rate * self.rate) * s
        return f, df, ddf


@dataclass(frozen=True)
class Component:
    """magnitude(t) * sin(angle(t))."""

    magnitude: Profile
    angle: Profile


@dataclass(frozen=True)
class SignalModel:
    """Immutable closed-form model of a three-channel waveform, with its
    parameter table, built once: the channel of each of its C components,
    channel-major, and their magnitude and angle profile fields, (C, 8)."""

    channels: tuple  # three tuples of Component

    def __post_init__(self):
        if len(self.channels) != 3:
            raise InvalidParameter("model must have exactly three channels")
        channels = tuple(tuple(ch) for ch in self.channels)
        object.__setattr__(self, "channels", channels)
        table = [[*vars(comp.magnitude).values(), *vars(comp.angle).values()] for ch in channels for comp in ch]
        chan = [c for c, ch in enumerate(channels) for _ in ch]
        object.__setattr__(self, "_table", (chan, np.array(table, dtype=np.float64).reshape(-1, 8)))


def _join(models):
    """(M, table): the tables of one model or of a sequence of M joined in
    order, as one table (chan, magnitude, angle) in which channel 3m + c is
    channel c of model m; magnitude and angle are Profiles of (C, 1)."""
    models = (models,) if isinstance(models, SignalModel) else tuple(models)
    if not models:
        raise InvalidParameter("no signal model to evaluate")
    chan = [3 * m + c for m, model in enumerate(models) for c in model._table[0]]
    cols = np.concatenate([model._table[1] for model in models]).T[:, :, None]
    return len(models), (chan, Profile(*cols[:4]), Profile(*cols[4:]))


def _component_jets(table, times):
    """(rows, jet) for each slice rows of at most EVAL_ROWS times: jet is
    (m, m', m'', theta, theta', theta'') of the C components of a joined
    table (``_join``), (C, rows) each.  After the last slice,
    ``geometry.check_angle`` names the worst angle of the first component
    whose |theta| is past MAX_ANGLE (or not finite) at any time; no jet is
    yielded from the slice it is found."""
    chan, magnitude, angle = table
    worst = np.zeros(len(chan))
    for lo in range(0, times.size, EVAL_ROWS):
        t = times[lo : lo + EVAL_ROWS]
        with np.errstate(over="ignore", invalid="ignore"):
            th = angle.eval(t)
        worst = np.maximum(worst, np.abs(th[0]).max(axis=1, initial=0.0))
        if (worst <= MAX_ANGLE).all():
            yield slice(lo, lo + t.size), magnitude.eval(t) + th
    check_angle("signal", worst[:, None])


def eval_arrays(models, times):
    """Exact analytic v, v', v'' of one model or of a sequence of M at
    each of N times (a time is N = 1), as (M*N, 3) arrays, model-major.
    Raises FloatOverflow where one leaves the float64 range."""
    M, table = _join(models)
    times = np.ravel(np.asarray(times, dtype=np.float64))
    out = np.zeros((3, M, times.size, 3))
    for rows, (m, dm, ddm, th, dth, ddth) in _component_jets(table, times):
        s, c = np.sin(th), np.cos(th)
        acc = out[:, :, rows].transpose(0, 1, 3, 2)  # a view: derivative, model, channel, time
        try:
            with np.errstate(over="raise", invalid="raise"):
                terms = np.array((
                    m * s,
                    dm * s + m * dth * c,
                    (ddm - m * dth**2) * s + (2.0 * dm * dth + m * ddth) * c,
                ))
                for k, ch in enumerate(table[0]):
                    acc[:, ch // 3, ch % 3] += terms[:, k]  # in component order from zero, as a per-channel sum
        except FloatingPointError:
            raise FloatOverflow("the signal's derivatives overflow float64") from None
    return tuple(out.reshape(3, M * times.size, 3))


def phase_jets(models, t):
    """The three-phase PhaseJet of a model at a time t (fields of shape
    (3,)) or at every entry of a time array t ((N, 3) for N entries); of
    a sequence of M models, (M*N, 3), model-major.

    A channel sum_k m_k sin(theta_k) is Im(z) with
    z = sum_k m_k exp(i theta_k); magnitude and phase derivatives come
    from z, z', z''.  Where the envelope vanishes the jet is all zero
    (the closed-form contribution of the channel is zero there).
    """
    from .threephase import PhaseJet  # deferred: generate and analyze build no PhaseJet

    M, table = _join(models)
    shape = np.shape(t) if isinstance(models, SignalModel) else (M * np.size(t),)
    # a scalar t runs as one entry of an array: numpy's complex scalar
    # and array loops round differently, the array loops alike at any N
    t = np.ravel(np.asarray(t, dtype=np.float64))
    out = np.empty((6, M, t.size, 3))
    for rows, (m, dm, ddm, th, dth, ddth) in _component_jets(table, t):
        e = np.exp(1j * th)
        terms = np.array((
            m * e,
            (dm + 1j * m * dth) * e,
            (ddm + 2j * dm * dth + (1j * ddth - dth**2) * m) * e,
        ))
        z, dz, ddz = acc = np.zeros((3, 3 * M, e.shape[-1]), dtype=np.complex128)
        for k, ch in enumerate(table[0]):
            acc[:, ch] += terms[:, k]
        V = np.abs(z)
        live = V > EPS_ENVELOPE
        V = np.where(live, V, 1.0)  # 1.0 keeps the dead entries finite
        zc = z.conjugate()
        zdz, zddz = zc * dz, zc * ddz
        dV = zdz.real / V
        dtheta = zdz.imag / V**2
        ddV = ((np.abs(dz) ** 2 + zddz.real) - dV**2) / V
        ddtheta = zddz.imag / V**2 - 2.0 * (dV / V) * dtheta
        jet = (V, dV, ddV, np.angle(z), dtheta, ddtheta)
        out[:, :, rows] = np.where(live, jet, 0.0).reshape(6, M, 3, -1).transpose(0, 1, 3, 2)
    return PhaseJet(*out.reshape(6, *shape, 3))


def sample_times(t0, t1, dt):
    """The uniform grid t0 + k*dt, k = 0..n-1, whose last point is the
    one nearest t1; at least 2 points and at most MAX_SAMPLES, all
    finite.  Raises InvalidParameter otherwise, before allocating."""
    check_positive("dt", dt)
    span = (t1 - t0) / dt
    n = int(round(span)) + 1 if 0.5 < span < math.inf else 0  # 0 for a NaN or infinite span
    if n < 2 or not math.isfinite(t0 + dt * (n - 1)):  # the last point, as numpy forms it
        raise InvalidParameter(f"bad range [{t0}, {t1}] with dt {dt}")
    if n > MAX_SAMPLES:
        raise InvalidParameter(
            f"range [{t0}, {t1}] with dt {dt} needs more than "
            f"MAX_SAMPLES = {MAX_SAMPLES} samples"
        )
    return t0 + dt * np.arange(n)


def sample(model, t0, t1, dt):
    """Uniformly sampled voltage values (no derivatives) on [t0, t1]."""
    times = sample_times(t0, t1, dt)
    return TimeSeries(times, dt, eval_arrays(model, times)[0])


def dc_model(vdc=5.0):
    """Constant voltage along the first axis."""
    check_nonnegative("vdc", vdc)
    const = Component(Profile(vdc), Profile(math.pi / 2))
    return SignalModel(channels=((const,), (), ()))


def single_phase_model(V=1.0, w_o=2.0 * math.pi):
    """Analytic-signal pair (V cos, V sin) in the first two channels."""
    check_nonnegative("V", V)
    ch1 = Component(Profile(V), Profile(math.pi / 2, w_o))
    ch2 = Component(Profile(V), Profile(0.0, w_o))
    return SignalModel(channels=((ch1,), (ch2,), ()))


def three_phase_model(
    V=(12.0, 12.0, 12.0),
    theta0=(0.0, -TWO_THIRDS_PI, TWO_THIRDS_PI),
    w_o=W_BASE,
    mod_amplitude=(0.0, 0.0, 0.0),
    mod_rate=(0.0, 0.0, 0.0),
    harmonic=None,
):
    """Three-phase set V_i sin(w_o t + theta0_i + A_i sin(B_i t)), with
    an optional additive harmonic (h, V_h, theta0_h)."""
    channels = []
    for i in range(3):
        check_nonnegative("V", V[i])
        angle = Profile(theta0[i], w_o, mod_amplitude[i], mod_rate[i])
        comps = [Component(Profile(V[i]), angle)]
        if harmonic is not None:
            h, Vh, theta0h = harmonic
            check_finite("harmonic order", h)
            if int(h) != h or h < 2:
                raise InvalidParameter(f"harmonic order must be >= 2, got {h}")
            check_nonnegative("harmonic V", Vh[i])
            comps.append(Component(Profile(Vh[i]), Profile(theta0h[i], h * w_o)))
        channels.append(tuple(comps))
    return SignalModel(channels=tuple(channels))


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


def make_scenario(scenario_id):
    """The preset model of ``scenario_id``; any other model comes from its
    builder (``dc_model``, ``single_phase_model``, ``three_phase_model``)."""
    if scenario_id not in _PRESETS:
        raise InvalidParameter(f"unknown scenario {scenario_id!r}")
    builder, params = _PRESETS[scenario_id]
    return builder(**params)
