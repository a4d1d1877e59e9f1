"""Self-check suites: each module's invariants evaluated on generated
data, with the worst observed deviation reported per property.  A suite
(a ``check_*`` function) returns ``(name, worst, tol)`` rows, and ``run``
labels each row with the suite's ``_SUITES`` key as a ``PropertyResult``.

The frenet_core, threephase_forms, signals, numdiff and park suites
check the kernel ``analyze`` runs, ``frenet.invariants_batch`` over the
arrays of ``signals.eval_arrays`` or ``numdiff.differentiate_arrays``;
the closed-form oracle (``threephase``) and the dq0 transforms
(``park``) take the same time arrays.  frenet_core and threephase_forms
give the signal kernel the nine presets as one sequence of models, and
call each kernel once (signals: once per draw group, for E6 and for
E0-E2): a row's bits do not depend on the rows beside it, and a max over
joined rows is the fold of per-scenario maxes, NaN included.  The
geometry suite checks the row helpers the kernel uses (``rowdot``,
``rownorm`` and ``rowcross``) on 500 random triples at once.  Draws come
from fixed seeds (module constants), and the hilbert and park suites
pass or fail by the bounds those modules name, which ``geomfreq
hilbert`` and ``geomfreq park`` read too.  The residuals of the two
derivative splits come from ``frenet.identity_residuals``, and
``geometry.worst``, the one fold of every verdict (``geomfreq park``'s
and the hilbert report's too), folds them keeping NaN.  An error
between two routes on rho, |omega| or xi (rates of one curve) is read
over the row's |omega| (``_over_omega``), any other over its own
reference.

The CLI ``validate`` subcommand runs these and exits nonzero on any
failure; the pytest suite asserts the same properties with finer
granularity.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import frenet, hilbert, numdiff, park, signals, threephase
from .errors import InvalidParameter
from .geometry import rowcross, rowdot, rownorm, worst

THREE_PHASE_SCENARIOS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")
T_MAX = 2.0  # s, latest sampled instant
TIMES_SEED, GEOMETRY_SEED, SIGNALS_SEED, PARK_SEED = 7, 11, 3, 5  # every run draws alike


@dataclass(frozen=True)
class PropertyResult:
    module: str
    name: str
    worst: float
    tol: float

    @property
    def passed(self):
        return self.worst <= self.tol


def _sample_times():
    """60 instants in [1e-3, T_MAX), the same on every call."""
    return np.random.default_rng(TIMES_SEED).uniform(1e-3, T_MAX, size=60)


def check_geometry():
    rng = np.random.default_rng(GEOMETRY_SEED)
    a, b, c = np.moveaxis(rng.normal(scale=10.0, size=(500, 3, 3)), 1, 0)
    axb = rowcross(a, b)
    orth = worst(np.abs(rowdot(a, axb)) / (rownorm(a) * rownorm(axb)))
    t1 = rowdot(a, rowcross(b, c))
    t2 = rowdot(c, rowcross(a, b))
    t3 = rowdot(b, rowcross(c, a))
    cyc = worst(np.maximum(np.abs(t1 - t2), np.abs(t1 - t3)) / np.abs(t1))
    rhs = rowdot(a, a) * rowdot(b, b) - rowdot(a, b) ** 2
    lagr = worst(np.abs(rowdot(axb, axb) - rhs) / np.abs(rhs))
    return [
        ("cross orthogonal to factors", orth, 1e-12),
        ("triple product cyclic", cyc, 1e-12),
        ("Lagrange identity", lagr, 1e-10),
    ]


def _over_omega(ref, *errs):
    """Worst of the rate errors errs (1/s, one per row) over the same row's |omega| in ref."""
    return worst(*(np.abs(e) / ref.omega_mag for e in errs))


def _batch(models, times):
    """Analytic v, v', v'' of a model (or a sequence, model-major) at the
    given times, and their invariants from the batch kernel ``analyze`` runs."""
    v, dv, ddv = signals.eval_arrays(models, times)
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
    return rowdot(xd, rowcross(xdd, xddd)) / rowdot(xdd, xdd)


def check_frenet():
    times = _sample_times()
    v, dv, ddv, b = _batch(list(map(signals.make_scenario, THREE_PHASE_SCENARIOS)), times)
    # torsion of the stationary balanced scenarios E0-E3 and E6 at the first 40 times
    planar = b.tau.reshape(len(THREE_PHASE_SCENARIOS), times.size)[[0, 1, 2, 3, 6], :40]
    stray_xi = math.inf if np.any(b.xi[b.no_rotation] != 0.0) else 0.0
    rot = ~(b.no_rotation | b.degenerate)
    recon, rocof = (r[rot] for r in frenet.identity_residuals(v, dv, b))
    v, dv, ddv = v[rot], dv[rot], ddv[rot]
    vm, rho, tau, xi = b.v_mag[rot], b.rho[rot], b.tau[rot], b.xi[rot]
    w, wm = b.omega_vec[rot], b.omega_mag[rot]
    n = dv - rho[:, None] * v
    nm = rownorm(n)
    # relative comparison is meaningful only when the torsion is
    # not itself a cancellation residue of a planar curve
    tw = np.abs(xi) >= 1e-3
    return [
        ("orthogonality of {v, n, omega}", worst(
            np.abs(rowdot(v, n)) / (vm * nm),
            np.abs(rowdot(v, w)) / (vm * wm),
            np.abs(rowdot(n, w)) / (nm * wm),
        ), 1e-9),
        ("normal magnitude |n| = |omega||v|", worst(np.abs(nm - wm * vm) / (wm * vm)), 1e-9),
        ("v from n x omega", worst(rownorm(rowcross(n, w) / (wm**2)[:, None] - v) / vm), 1e-9),
        ("omega from v x n", worst(rownorm(rowcross(v, n) / (vm**2)[:, None] - w) / wm), 1e-9),
        ("torsion equals arc-length definition", worst(
            np.abs(tau[tw] - _tau_arclength(v[tw], dv[tw], ddv[tw])) / np.abs(tau[tw])
        ), 1e-10),
        ("reconstruction v' = rho v + omega x v", worst(recon), 1e-9),
        ("RoCoF decomposition residual", worst(rocof), 1e-8),
        ("torsional frequency only with rotation", stray_xi, 0.0),
        ("planarity of stationary balanced scenarios", worst(np.abs(planar)), 1e-8),
    ]


def check_threephase():
    times = _sample_times()
    models = list(map(signals.make_scenario, THREE_PHASE_SCENARIOS))
    b = _batch(models, times)[3]
    cf = threephase.closed_form_invariants(signals.phase_jets(models, times))
    return [
        ("closed-form rho vs Frenet", _over_omega(b, cf.rho - b.rho), 1e-12),
        ("closed-form omega vs Frenet", _over_omega(b, rownorm(cf.omega_vec - b.omega_vec)), 1e-6),
        ("closed-form xi vs Frenet", _over_omega(b, cf.xi - b.xi), 1e-9),
    ]


def check_signals():
    rng = np.random.default_rng(SIGNALS_SEED)
    # power-of-two steps with snapped times keep t + k*h exactly
    # representable, so the stencil sees a perfectly uniform grid; the
    # second derivative divides by h^2 and needs the larger step to stay
    # above the sin(w_o t) argument-rounding noise floor
    h1 = 2.0**-23  # ~1.2e-7 s
    h2 = 2.0**-19  # ~1.9e-6 s
    draws = {}
    for _ in range(100):
        sid = THREE_PHASE_SCENARIOS[rng.integers(len(THREE_PHASE_SCENARIOS))]
        draws.setdefault(sid, []).append(round(float(rng.uniform(0.01, 2.0)) / h2) * h2)
    jets = []
    for sid, times in draws.items():
        # grid[k + 2, j] is t + k * (h1, h2)[j], so t itself at k = 0
        grid = np.array(times) + (np.arange(-2, 3)[:, None] * np.array([h1, h2]))[..., None]
        jet = signals.eval_arrays(signals.make_scenario(sid), grid.ravel())
        jets.append(tuple(x.reshape(*grid.shape, 3) for x in jet))
    v, dv, ddv = (np.concatenate(x, axis=2) for x in zip(*jets))
    d1, d2 = dv[2, 0], ddv[2, 1]
    fd1 = numdiff.stencil_derivatives(v[:, 0], h1)[0][0]
    fd2 = numdiff.stencil_derivatives(v[:, 1], h2)[1][0]
    e6 = signals.eval_arrays(signals.make_scenario("E6"), np.linspace(0.0, 5.0, 200))
    e0_e2 = signals.eval_arrays(list(map(signals.make_scenario, ("E0", "E1", "E2"))), _sample_times()[:40])
    b = frenet.invariants_batch(*map(np.concatenate, zip(e6, e0_e2)))  # the 200 E6 rows, then E0-E2
    worst_e6 = worst(np.abs(b.rho[:200]), np.abs(b.xi[:200]))
    return [
        ("analytic first derivative vs FD", worst(rownorm(d1 - fd1) / rownorm(d1)), 1e-5),
        ("analytic second derivative vs FD", worst(rownorm(d2 - fd2) / rownorm(d2)), 1e-5),
        ("E6 null rho and xi", worst_e6, 1e-8),
        ("E0-E2 null xi", worst(np.abs(b.xi[200:])), 1e-8),
    ]


def check_numdiff():
    errs = {}
    model = signals.make_scenario("E0")
    for dt in (2e-4, 1e-4):
        _, v, dv, ddv = numdiff.differentiate_arrays(signals.sample(model, 0.0, 0.1, dt))
        errs[dt] = worst(np.abs(frenet.invariants_batch(v, dv, ddv).omega_mag - signals.W_BASE))
    gain = errs[2e-4] / errs[1e-4]
    worst_conv = 0.0 if gain >= 8.0 else 8.0 - gain

    model6 = signals.make_scenario("E6")
    t, v, dv, ddv = numdiff.differentiate_arrays(signals.sample(model6, 0.0, 1.0, 1e-4))
    num = frenet.invariants_batch(v, dv, ddv)
    ana = _batch(model6, t[5:-5])[3]
    worst_num = _over_omega(
        ana, num.rho[5:-5] - ana.rho, num.omega_mag[5:-5] - ana.omega_mag, num.xi[5:-5] - ana.xi
    )

    # causality: perturbing sample k must not change filtered samples < k
    base = signals.sample(model, 0.0, 0.01, 1e-4)
    filt = numdiff.lowpass_first_order(base, 5e-4)
    bumped_values = base.values.copy()
    k = 60
    bumped_values[k] += 3.0
    bumped = numdiff.lowpass_first_order(base.with_values(bumped_values), 5e-4)
    causal_leak = worst(np.abs(filt.values[:k] - bumped.values[:k]))

    return [
        ("E0 halved-dt error gain >= 8", worst_conv, 0.0),
        ("E6 numeric vs analytic invariants", worst_num, 1e-4),
        ("low-pass filter causality", causal_leak, 0.0),
    ]


def check_hilbert():
    """The embedding identities on the default ``geomfreq hilbert`` tone."""
    t, u = hilbert.tone(hilbert.TONE_FREQ, hilbert.TONE_T1, hilbert.TONE_DT)
    report = hilbert.geometric_equivalence(hilbert.analytic_embed(t, hilbert.TONE_DT, u))
    return [
        ("embedding omega equals classical phi'", report.max_rel_dev, hilbert.MAX_REL_DEV),
        ("embedding torsion is zero", report.max_abs_xi, hilbert.MAX_ABS_XI),
    ]


def check_park():
    frame = (signals.W_BASE, 0.3)  # w_dq, theta0
    times = _sample_times()[:40]
    v, dv, ddv, g0 = _batch(signals.make_scenario("E8"), times)
    dq = park.to_dq0(times, v, dv, ddv, *frame)
    g1 = frenet.invariants_batch(*park.from_dq0(times, *dq, *frame))
    round_trip = _over_omega(g0, g1.rho - g0.rho, g1.omega_mag - g0.omega_mag, g1.xi - g0.xi)

    # 200 draws, one row each: v_dq0, v_hat' and its own w_dq; at
    # PARK_SEED every |v_dq0| >= 1e-3, away from the origin where the
    # frame is undefined (tests/test_validate.py checks it)
    draws = np.random.default_rng(PARK_SEED).standard_normal((200, 7))
    rep = park.derivative_frame_check(draws[:, :3] * 10.0, draws[:, 3:6] * 100.0, draws[:, 6])

    # Remark 7: synchronous balanced frame reproduces the plane-curve result
    t = np.array([0.0125])
    jet = signals.eval_arrays(signals.make_scenario("E0"), t)
    vdq0, dvdq0, _ = park.to_dq0(t, *jet, signals.W_BASE, -math.pi / 2)
    w = park.derivative_frame_check(vdq0, dvdq0, signals.W_BASE).omega_vec
    remark7 = worst(np.abs(w[:, :2]), np.abs(w[:, 2] - signals.W_BASE) / signals.W_BASE)
    return [
        ("invariants unchanged by dq0 round trip", round_trip, 1e-9),
        ("sum identity of derivative splits", worst(rep.sum_rel_err), park.MAX_SUM_REL_ERR),
        ("Remark-7 reduction at synchronous speed", remark7, 1e-9),
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
    """The properties of one module's suite, or of all of them in
    ``_SUITES`` order, each labelled with its suite's key; an unknown
    scope raises InvalidParameter."""
    if scope != "all" and scope not in _SUITES:
        raise InvalidParameter(
            f"unknown validation scope {scope!r}; choose one of: all, {', '.join(_SUITES)}"
        )
    return [
        PropertyResult(module, *row)
        for module in (_SUITES if scope == "all" else (scope,))
        for row in _SUITES[module]()
    ]
