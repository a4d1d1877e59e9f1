"""Self-check suites: each module's invariants evaluated on generated
data, with the worst observed deviation reported per property.

The frenet_core, threephase_forms, signals, numdiff and park suites
check the kernel ``analyze`` runs, ``frenet.invariants_batch`` over the
arrays of ``signals.eval_arrays`` or ``numdiff.differentiate_arrays``;
the closed-form oracle (``threephase``) and the dq0 transforms
(``park``) take the same time arrays, one call per scenario.  The
geometry suite checks the row helpers the kernel uses (``rowdot``,
``rownorm`` and ``np.cross`` over rows) on 500 random triples at once.

The CLI ``validate`` subcommand runs these and exits nonzero on any
failure; the pytest suite asserts the same properties with finer
granularity.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import frenet, hilbert, numdiff, park, signals, threephase
from .geometry import rowdot, rownorm

THREE_PHASE_SCENARIOS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")


@dataclass(frozen=True)
class PropertyResult:
    module: str
    name: str
    worst: float
    tol: float

    @property
    def passed(self):
        return self.worst <= self.tol


def _sample_times(n=60, t_max=2.0, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(1e-3, t_max, size=n)


def check_geometry(seed=11):
    rng = np.random.default_rng(seed)
    a, b, c = np.moveaxis(rng.normal(scale=10.0, size=(500, 3, 3)), 1, 0)
    axb = np.cross(a, b)
    orth = _rel(np.abs(rowdot(a, axb)), rownorm(a) * rownorm(axb), 1e-300)
    t1 = rowdot(a, np.cross(b, c))
    t2 = rowdot(c, np.cross(a, b))
    t3 = rowdot(b, np.cross(c, a))
    cyc = _rel(np.maximum(np.abs(t1 - t2), np.abs(t1 - t3)), np.abs(t1), 1e-300)
    rhs = rowdot(a, a) * rowdot(b, b) - rowdot(a, b) ** 2
    lagr = _rel(np.abs(rowdot(axb, axb) - rhs), np.abs(rhs), 1e-300)
    return [
        PropertyResult("geometry", "cross orthogonal to factors", orth, 1e-12),
        PropertyResult("geometry", "triple product cyclic", cyc, 1e-12),
        PropertyResult("geometry", "Lagrange identity", lagr, 1e-10),
    ]


def _worst(*xs):
    """Largest entry of the arrays or numbers xs (0.0 if all are empty).
    A NaN anywhere makes it NaN, so an undefined value fails its
    property instead of passing it (``max`` would drop it)."""
    return float(np.max(np.concatenate([np.ravel(x) for x in xs]), initial=0.0))


def _rel(err, ref, floor):
    """Worst relative error err / max(ref, floor), as ``_worst``."""
    return _worst(err / np.maximum(ref, floor))


def _batch(model, times):
    """Analytic v, v', v'' of a model at the given times, and their
    invariants from the batch kernel that ``analyze`` runs."""
    v, dv, ddv = signals.eval_arrays(model, times)
    return v, dv, ddv, frenet.invariants_batch(v, dv, ddv)


def _tau_arclength(v, dv, ddv):
    """Torsion from the arc-length derivatives of the underlying curve."""
    vm = rownorm(v)[:, None]
    dv_scalar = rowdot(v, dv)[:, None] / vm  # d|v|/dt
    ddv_scalar = (
        rowdot(dv, dv)[:, None] + rowdot(v, ddv)[:, None] - dv_scalar**2
    ) / vm  # d2|v|/dt2
    xd = v / vm
    xdd = dv / vm**2 - dv_scalar * v / vm**3
    xddd = (
        ddv / vm**3
        - 3.0 * dv_scalar * dv / vm**4
        + 3.0 * dv_scalar**2 * v / vm**5
        - ddv_scalar * v / vm**4
    )
    return rowdot(xd, np.cross(xdd, xddd)) / rowdot(xdd, xdd)


def check_frenet():
    tols = {
        "orthogonality of {v, n, omega}": 1e-9,
        "normal magnitude |n| = |omega||v|": 1e-9,
        "v from n x omega": 1e-9,
        "omega from v x n": 1e-9,
        "torsion equals arc-length definition": 1e-10,
        "reconstruction v' = rho v + omega x v": 1e-9,
        "RoCoF decomposition residual": 1e-8,
        "torsional frequency only with rotation": 0.0,
        "planarity of stationary balanced scenarios": 1e-8,
    }
    worst = dict.fromkeys(tols, 0.0)

    def update(name, *values):
        worst[name] = _worst(worst[name], *values)

    for sid in THREE_PHASE_SCENARIOS:
        model = signals.make_scenario(sid)
        v, dv, ddv, b = _batch(model, _sample_times())
        if np.any(b.xi[b.no_rotation] != 0.0):
            worst["torsional frequency only with rotation"] = math.inf
        rot = ~(b.no_rotation | b.degenerate)
        v, dv, ddv = v[rot], dv[rot], ddv[rot]
        vm, rho, tau, xi = b.v_mag[rot], b.rho[rot], b.tau[rot], b.xi[rot]
        w, wm = b.omega_vec[rot], b.omega_mag[rot]
        n = dv - rho[:, None] * v
        nm = rownorm(n)
        update(
            "orthogonality of {v, n, omega}",
            np.abs(rowdot(v, n)) / (vm * nm),
            np.abs(rowdot(v, w)) / (vm * wm),
            np.abs(rowdot(n, w)) / (nm * wm),
        )
        update("normal magnitude |n| = |omega||v|", np.abs(nm - wm * vm) / (wm * vm))
        v_rec = np.cross(n, w) / (wm**2)[:, None]
        update("v from n x omega", rownorm(v_rec - v) / vm)
        w_rec = np.cross(v, n) / (vm**2)[:, None]
        update("omega from v x n", rownorm(w_rec - w) / wm)
        # relative comparison is meaningful only when the torsion is
        # not itself a cancellation residue of a planar curve
        twisted = np.abs(xi) >= 1e-3
        tau_ii = _tau_arclength(v[twisted], dv[twisted], ddv[twisted])
        update(
            "torsion equals arc-length definition",
            np.abs(tau[twisted] - tau_ii) / np.abs(tau[twisted]),
        )
        res = dv - (rho[:, None] * v + np.cross(w, v))
        dv_mag = np.maximum(rownorm(dv), 1e-300)
        update("reconstruction v' = rho v + omega x v", rownorm(res) / dv_mag)
        w_dot = b.omega_dot[rot]
        res = w_dot - b.eta[rot][:, None] * w - tau[:, None] * np.cross(v, w)
        update("RoCoF decomposition residual", rownorm(res) / np.maximum(rownorm(w_dot), wm))
        if sid in ("E0", "E1", "E2", "E3", "E6"):
            b = _batch(model, _sample_times(40))[3]
            update("planarity of stationary balanced scenarios", np.abs(b.tau))
    return [
        PropertyResult("frenet_core", name, worst[name], tols[name])
        for name in worst
    ]


def check_threephase():
    worst_rho = worst_omega = worst_xi = 0.0
    for sid in THREE_PHASE_SCENARIOS:
        model = signals.make_scenario(sid)
        times = _sample_times()
        b = _batch(model, times)[3]
        cf = threephase.closed_form_invariants(signals.phase_jets(model, times))
        worst_rho = _worst(worst_rho, _rel(np.abs(cf.rho - b.rho), np.abs(b.rho), 1e-6))
        worst_omega = _worst(
            worst_omega, _rel(rownorm(cf.omega_vec - b.omega_vec), b.omega_mag, 1e-6)
        )
        worst_xi = _worst(worst_xi, _rel(np.abs(cf.xi - b.xi), np.abs(b.xi), 1e-6))
    return [
        PropertyResult("threephase_forms", "closed-form rho vs Frenet", worst_rho, 1e-6),
        PropertyResult("threephase_forms", "closed-form omega vs Frenet", worst_omega, 1e-6),
        PropertyResult("threephase_forms", "closed-form xi vs Frenet", worst_xi, 1e-6),
    ]


def _fd_error(model, times, h, order):
    """Worst relative error of the analytic derivative of the given
    order (1 or 2) against the 5-point stencil with step h."""
    grid = times + h * np.arange(-2, 3)[:, None]  # (5, N), row k+2 is t + k*h
    v = signals.eval_arrays(model, grid.ravel())[0].reshape(5, times.size, 3)
    fd = numdiff.stencil_derivatives(v, h)[order - 1][0]
    exact = signals.eval_arrays(model, times)[order]
    return _rel(rownorm(exact - fd), rownorm(exact), 1e-300)


def check_signals():
    rng = np.random.default_rng(3)
    # power-of-two steps with snapped times keep t + k*h exactly
    # representable, so the stencil sees a perfectly uniform grid; the
    # second derivative divides by h^2 and needs the larger step to stay
    # above the sin(w_o t) argument-rounding noise floor
    h1 = 2.0**-23  # ~1.2e-7 s
    h2 = 2.0**-19  # ~1.9e-6 s
    draws = {}
    for _ in range(100):
        sid = str(rng.choice(THREE_PHASE_SCENARIOS))
        draws.setdefault(sid, []).append(round(float(rng.uniform(0.01, 2.0)) / h2) * h2)
    worst_d1 = worst_d2 = 0.0
    for sid, times in draws.items():
        model, times = signals.make_scenario(sid), np.array(times)
        worst_d1 = _worst(worst_d1, _fd_error(model, times, h1, 1))
        worst_d2 = _worst(worst_d2, _fd_error(model, times, h2, 2))
    b = _batch(signals.make_scenario("E6"), np.linspace(0.0, 5.0, 200))[3]
    worst_e6 = _worst(np.abs(b.rho), np.abs(b.xi))
    worst_plane = _worst(
        *(
            np.abs(_batch(signals.make_scenario(sid), _sample_times(40))[3].xi)
            for sid in ("E0", "E1", "E2")
        )
    )
    return [
        PropertyResult("signals", "analytic first derivative vs FD", worst_d1, 1e-5),
        PropertyResult("signals", "analytic second derivative vs FD", worst_d2, 1e-5),
        PropertyResult("signals", "E6 null rho and xi", worst_e6, 1e-8),
        PropertyResult("signals", "E0-E2 null xi", worst_plane, 1e-8),
    ]


def check_numdiff():
    w_true = 100.0 * math.pi
    errs = {}
    model = signals.make_scenario("E0")
    for dt in (2e-4, 1e-4):
        _, v, dv, ddv = numdiff.differentiate_arrays(signals.sample(model, 0.0, 0.1, dt))
        errs[dt] = _worst(np.abs(frenet.invariants_batch(v, dv, ddv).omega_mag - w_true))
    gain = errs[2e-4] / errs[1e-4]
    worst_conv = 0.0 if gain >= 8.0 else 8.0 - gain

    model6 = signals.make_scenario("E6")
    t, v, dv, ddv = numdiff.differentiate_arrays(signals.sample(model6, 0.0, 1.0, 1e-4))
    num = frenet.invariants_batch(v, dv, ddv)
    ana = _batch(model6, t[5:-5])[3]
    worst_num = _worst(
        _rel(np.abs(num.omega_mag[5:-5] - ana.omega_mag), ana.omega_mag, 0.0),
        _rel(np.abs(num.rho[5:-5] - ana.rho), np.abs(ana.rho), 1.0),
        _rel(np.abs(num.xi[5:-5] - ana.xi), np.abs(ana.xi), 1.0),
    )

    # causality: perturbing sample k must not change filtered samples < k
    base = signals.sample(model, 0.0, 0.01, 1e-4)
    filt = numdiff.lowpass_first_order(base, 5e-4)
    bumped_values = base.values.copy()
    k = 60
    bumped_values[k] += 3.0
    bumped = numdiff.lowpass_first_order(base.with_values(bumped_values), 5e-4)
    causal_leak = float(np.abs(filt.values[:k] - bumped.values[:k]).max())

    return [
        PropertyResult("numdiff", "E0 halved-dt error gain >= 8", worst_conv, 0.0),
        PropertyResult("numdiff", "E6 numeric vs analytic invariants", worst_num, 5e-3),
        PropertyResult("numdiff", "low-pass filter causality", causal_leak, 0.0),
    ]


def check_hilbert():
    dt = 1e-4
    t = dt * np.arange(4096)
    pair = hilbert.analytic_embed(np.cos(2.0 * math.pi * 50.0 * t), dt)
    report = hilbert.geometric_equivalence(pair)
    return [
        PropertyResult(
            "hilbert", "embedding omega equals classical phi'", report.max_rel_dev, 1e-9
        ),
        PropertyResult("hilbert", "embedding torsion is zero", report.max_abs_xi, 1e-12),
    ]


def check_park(seed=5):
    cfg = park.ParkConfig(w_dq=100.0 * math.pi, theta0=0.3)
    times = _sample_times(40)
    v, dv, ddv, g0 = _batch(signals.make_scenario("E8"), times)
    g1 = frenet.invariants_batch(*park.from_dq0(park.to_dq0(times, v, dv, ddv, cfg), cfg))
    round_trip = _worst(
        _rel(np.abs(g0.rho - g1.rho), np.abs(g0.rho), 1.0),
        _rel(np.abs(g0.omega_mag - g1.omega_mag), g0.omega_mag, 0.0),
        _rel(np.abs(g0.xi - g1.xi), np.abs(g0.xi), 1.0),
    )

    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(200):
        vdq0 = rng.normal(scale=10.0, size=3)
        dvdq0 = rng.normal(scale=100.0, size=3)
        if np.linalg.norm(vdq0) < 1e-3:
            continue
        draws.append((vdq0, dvdq0, rng.normal()))  # each draw has its own w_dq
    vdq0, dvdq0, w_dq = (np.array(x) for x in zip(*draws))
    rep = park.derivative_frame_check(
        park.DqoJet(t=0.0, vdq0=vdq0, dvdq0=dvdq0), park.ParkConfig(w_dq=w_dq)
    )

    # Remark 7: synchronous balanced frame reproduces the plane-curve result
    cfg_sync = park.ParkConfig(w_dq=100.0 * math.pi, theta0=-math.pi / 2)
    t = np.array([0.0125])
    jet = signals.eval_arrays(signals.make_scenario("E0"), t)
    w = park.dq0_invariants(park.to_dq0(t, *jet, cfg_sync), cfg_sync).omega_vec
    remark7 = _worst(
        np.abs(w[:, :2]), np.abs(w[:, 2] - 100.0 * math.pi) / (100.0 * math.pi)
    )
    return [
        PropertyResult("park", "invariants unchanged by dq0 round trip", round_trip, 1e-9),
        PropertyResult(
            "park", "sum identity of derivative splits", _worst(rep.sum_rel_err), 1e-9
        ),
        PropertyResult("park", "Remark-7 reduction at synchronous speed", remark7, 1e-9),
    ]


_SUITES = {
    "geometry": check_geometry,
    "frenet_core": check_frenet,
    "threephase_forms": check_threephase,
    "signals": check_signals,
    "numdiff": check_numdiff,
    "hilbert": check_hilbert,
    "park": check_park,
}


def run(scope="all"):
    """Run one module's property suite, or all of them."""
    if scope == "all":
        results = []
        for suite in _SUITES.values():
            results.extend(suite())
        return results
    if scope not in _SUITES:
        raise KeyError(f"unknown validation scope {scope!r}")
    return _SUITES[scope]()
