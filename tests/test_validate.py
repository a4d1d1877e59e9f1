"""The frenet_core, threephase_forms and signals suites make one kernel
call over the rows of every scenario.  Their worst values must be the
fold of per-scenario worst values that the loops below computed, one
kernel call per scenario, before the rows were joined; the loops are
kept here only as that reference.  The park suite draws its 200 rows
in one call; its reference draws them one at a time.  A NaN planted in
the rows of the first or the last scenario must fail exactly the
property it feeds."""

import dataclasses
import math

import numpy as np
import pytest

from geomfreq import frenet, numdiff, park, signals, threephase, validate
from geomfreq.geometry import rowdot, rownorm, worst
from geomfreq.validate import (
    THREE_PHASE_SCENARIOS,
    _batch,
    _sample_times,
    _tau_arclength,
)

# ------------------------------------------------- per-scenario reference


def frenet_fold():
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
    found = dict.fromkeys(tols, 0.0)

    def update(name, *values):
        found[name] = worst(found[name], *values)

    for sid in THREE_PHASE_SCENARIOS:
        model = signals.make_scenario(sid)
        v, dv, ddv, b = _batch(model, _sample_times())
        if np.any(b.xi[b.no_rotation] != 0.0):
            found["torsional frequency only with rotation"] = math.inf
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
            b = _batch(model, _sample_times()[:40])[3]
            update("planarity of stationary balanced scenarios", np.abs(b.tau))
    return [(name, found[name], tols[name]) for name in found]


def threephase_fold():
    worst_rho = worst_omega = worst_xi = 0.0
    for sid in THREE_PHASE_SCENARIOS:
        model = signals.make_scenario(sid)
        times = _sample_times()
        b = _batch(model, times)[3]
        cf = threephase.closed_form_invariants(signals.phase_jets(model, times))
        worst_rho = worst(worst_rho, np.abs(cf.rho - b.rho) / b.omega_mag)
        worst_omega = worst(worst_omega, rownorm(cf.omega_vec - b.omega_vec) / b.omega_mag)
        worst_xi = worst(worst_xi, np.abs(cf.xi - b.xi) / b.omega_mag)
    return [
        ("closed-form rho vs Frenet", worst_rho, 1e-12),
        ("closed-form omega vs Frenet", worst_omega, 1e-6),
        ("closed-form xi vs Frenet", worst_xi, 1e-9),
    ]


H1 = 2.0**-23
H2 = 2.0**-19


def signal_draws():
    """The suite's draw groups: scenario id -> its snapped times."""
    rng = np.random.default_rng(3)
    draws = {}
    for _ in range(100):
        sid = str(rng.choice(THREE_PHASE_SCENARIOS))
        draws.setdefault(sid, []).append(round(float(rng.uniform(0.01, 2.0)) / H2) * H2)
    return {sid: np.array(times) for sid, times in draws.items()}


def _fd_error(model, times, h, order):
    grid = times + h * np.arange(-2, 3)[:, None]  # (5, N), row k+2 is t + k*h
    v = signals.eval_arrays(model, grid.ravel())[0].reshape(5, times.size, 3)
    fd = numdiff.stencil_derivatives(v, h)[order - 1][0]
    exact = signals.eval_arrays(model, times)[order]
    return worst(rownorm(exact - fd) / rownorm(exact))


def signals_fold():
    worst_d1 = worst_d2 = 0.0
    for sid, times in signal_draws().items():
        model = signals.make_scenario(sid)
        worst_d1 = worst(worst_d1, _fd_error(model, times, H1, 1))
        worst_d2 = worst(worst_d2, _fd_error(model, times, H2, 2))
    b = _batch(signals.make_scenario("E6"), np.linspace(0.0, 5.0, 200))[3]
    worst_e6 = worst(np.abs(b.rho), np.abs(b.xi))
    worst_plane = worst(
        *(
            np.abs(_batch(signals.make_scenario(sid), _sample_times()[:40])[3].xi)
            for sid in ("E0", "E1", "E2")
        )
    )
    return [
        ("analytic first derivative vs FD", worst_d1, 1e-5),
        ("analytic second derivative vs FD", worst_d2, 1e-5),
        ("E6 null rho and xi", worst_e6, 1e-8),
        ("E0-E2 null xi", worst_plane, 1e-8),
    ]


def park_draws():
    """The park suite's draws, one at a time: (v_dq0, v_hat', w_dq) of
    each draw with |v_dq0| >= 1e-3, and how many draws fell under it."""
    rng = np.random.default_rng(validate.PARK_SEED)
    draws, skipped = [], 0
    for _ in range(200):
        vdq0 = rng.normal(scale=10.0, size=3)
        dvdq0 = rng.normal(scale=100.0, size=3)
        if np.linalg.norm(vdq0) < 1e-3:
            skipped += 1
            continue
        draws.append((vdq0, dvdq0, rng.normal()))  # each draw has its own w_dq
    return draws, skipped


def park_fold():
    frame = (signals.W_BASE, 0.3)  # w_dq, theta0
    times = _sample_times()[:40]
    v, dv, ddv, g0 = _batch(signals.make_scenario("E8"), times)
    dq = park.to_dq0(times, v, dv, ddv, *frame)
    g1 = frenet.invariants_batch(*park.from_dq0(times, *dq, *frame))
    round_trip = worst(
        np.abs(g0.rho - g1.rho) / g0.omega_mag,
        np.abs(g0.omega_mag - g1.omega_mag) / g0.omega_mag,
        np.abs(g0.xi - g1.xi) / g0.omega_mag,
    )
    vdq0, dvdq0, w_dq = (np.array(x) for x in zip(*park_draws()[0]))
    rep = park.derivative_frame_check(vdq0, dvdq0, w_dq)
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


REFERENCE = {
    "frenet_core": frenet_fold,
    "threephase_forms": threephase_fold,
    "signals": signals_fold,
    "park": park_fold,
}


@pytest.mark.parametrize("scope", REFERENCE)
def test_worst_values_are_the_per_scenario_fold(scope):
    """Same names, tolerances and order, and worst values equal at full repr."""
    results = validate.run(scope)
    assert {r.module for r in results} == {scope}
    got = [(r.name, repr(r.worst), repr(r.tol)) for r in results]
    assert got == [(name, repr(w), repr(tol)) for name, w, tol in REFERENCE[scope]()]


def test_rho_error_is_read_over_the_rows_omega(monkeypatch):
    """+1e-7 1/s on the closed-form rho of the row with the largest |rho|
    (E5, rho = 311.1, |omega| = 297.4) is 3.4e-10 of that row's |omega|,
    past the 1e-12 tolerance of "closed-form rho vs Frenet"."""
    original = threephase.closed_form_invariants
    rows = []

    def planted(jet):
        cf = original(jet)
        rho = cf.rho.copy()
        rows.append(int(np.argmax(np.abs(rho))))
        rho[rows[-1]] += 1e-7
        return dataclasses.replace(cf, rho=rho)

    monkeypatch.setattr(threephase, "closed_form_invariants", planted)
    assert _failed("threephase_forms") == ["closed-form rho vs Frenet"]
    assert rows == [5 * T60.size + 52]  # E5 at its 53rd time


def test_no_park_draw_falls_under_the_filter():
    """The suite takes all 200 rows, where the loop skips a draw with
    |v_dq0| < 1e-3 (and its w_dq with it): the two see the same draws,
    bit for bit, only while no draw at PARK_SEED is skipped."""
    draws, skipped = park_draws()
    assert skipped == 0
    rows = np.random.default_rng(validate.PARK_SEED).standard_normal((200, 7))
    assert np.all(rownorm(rows[:, :3] * 10.0) >= 1e-3)
    assert [x.tobytes() for draw in draws for x in map(np.asarray, draw)] == [
        x.tobytes() for row in rows for x in (row[:3] * 10.0, row[3:6] * 100.0, row[6])
    ]


def test_all_is_every_suite_in_order_labelled_with_its_scope():
    """``run("all")`` is ``run(s)`` for each suite s in ``_SUITES`` order,
    field by field, and ``run(s)`` labels each of its results s."""

    def fields(results):
        return [(r.module, r.name, repr(r.worst), repr(r.tol)) for r in results]

    each = []
    for scope in validate._SUITES:
        results = validate.run(scope)
        assert results and all(r.module == scope for r in results)
        each += fields(results)
    assert fields(validate.run("all")) == each


def test_worst_keeps_nan_and_folds_nothing_to_zero():
    assert math.isnan(worst(np.array([1.0, np.nan]), 3.0))
    assert math.isnan(worst(2.0, np.array([[0.5], [np.nan]])))
    assert worst(np.array([1.0, 4.0]), 3.0) == 4.0
    assert worst(np.array([])) == 0.0 and worst(np.array([]), np.empty((0, 3))) == 0.0


# ------------------------------------------------------- planted NaN


def _poison_kernel(monkeypatch, field, sid, times, call=None):
    """frenet.invariants_batch, but NaN in ``field`` on the rows whose v
    is scenario sid's at the given times, in every call or only in the
    call-th one.  Returns the number of rows poisoned per call."""
    target = signals.eval_arrays(signals.make_scenario(sid), times)[0]
    original = frenet.invariants_batch
    hits = []

    def poisoned(v, dv, ddv, **kwargs):
        b = original(v, dv, ddv, **kwargs)
        hit = (np.asarray(v)[:, None] == target).all(axis=2).any(axis=1)
        hit &= call is None or len(hits) == call
        hits.append(int(hit.sum()))
        col = getattr(b, field).copy()
        col[hit] = np.nan
        return dataclasses.replace(b, **{field: col})

    monkeypatch.setattr(frenet, "invariants_batch", poisoned)
    return hits


def _failed(scope):
    return [r.name for r in validate.run(scope) if not r.passed]


T60, T40, T200 = _sample_times(), _sample_times()[:40], np.linspace(0.0, 5.0, 200)


ROCOF = "RoCoF decomposition residual"
PLANAR = "planarity of stationary balanced scenarios"


# the first row of the first scenario joined, or the last row of the last.
# Planarity reads the main frenet_core rows of E0-E3 and E6 at the first
# 40 times, whose tau the RoCoF residual reads too; the last case is the
# E6 row just past those 40, which planarity must not read.
@pytest.mark.parametrize(
    "scope, field, sid, times, call, failed",
    [
        ("frenet_core", "eta", "E0", T60[:1], 0, [ROCOF]),
        ("frenet_core", "eta", "E8", T60[-1:], 0, [ROCOF]),
        ("frenet_core", "tau", "E0", T40[:1], 0, [ROCOF, PLANAR]),
        ("frenet_core", "tau", "E6", T40[-1:], 0, [ROCOF, PLANAR]),
        ("threephase_forms", "xi", "E0", T60[:1], None, ["closed-form xi vs Frenet"]),
        ("threephase_forms", "xi", "E8", T60[-1:], None, ["closed-form xi vs Frenet"]),
        ("threephase_forms", "rho", "E8", T60[-1:], None, ["closed-form rho vs Frenet"]),
        ("signals", "rho", "E6", T200[:1], None, ["E6 null rho and xi"]),
        ("signals", "xi", "E6", T200[-1:], None, ["E6 null rho and xi"]),
        ("signals", "xi", "E0", T40[:1], None, ["E0-E2 null xi"]),
        ("signals", "xi", "E2", T40[-1:], None, ["E0-E2 null xi"]),
        ("frenet_core", "tau", "E6", T60[40:41], 0, [ROCOF]),
    ],
)
def test_nan_in_first_or_last_scenario_fails_its_property(
    monkeypatch, scope, field, sid, times, call, failed
):
    hits = _poison_kernel(monkeypatch, field, sid, times, call)
    assert _failed(scope) == failed
    assert 1 in hits


@pytest.mark.parametrize("group", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize(
    "order, prop",
    [(1, "analytic first derivative vs FD"), (2, "analytic second derivative vs FD")],
)
def test_nan_in_a_draw_group_fails_its_derivative(monkeypatch, group, order, prop):
    sid, times = list(signal_draws().items())[group]
    times = times[group:][:1]  # the group's first time, or its last
    original = signals.eval_arrays
    hits = []

    def poisoned(models, t):
        jet = list(original(models, t))
        if models != signals.make_scenario(sid):  # another group, or a sequence of models
            return tuple(jet)
        hit = np.isin(t, times)
        hits.append(int(hit.sum()))
        jet[order] = jet[order].copy()
        jet[order][hit] = np.nan
        return tuple(jet)

    monkeypatch.setattr(signals, "eval_arrays", poisoned)
    assert _failed("signals") == [prop]
    assert sum(hits) >= 1
