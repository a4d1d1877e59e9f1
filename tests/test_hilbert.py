"""Analytic-signal embedding and instantaneous-frequency equivalence."""

import math

import numpy as np
import pytest

import numpy_reference
from geomfreq import hilbert
from geomfreq.errors import DegenerateInput, FloatOverflow, InvalidParameter

DT = 1e-4
# 0.4 s window: an integer number of 50 Hz periods, so the discrete
# Hilbert transform of the test tone is leakage-free
N = 4000
T = DT * np.arange(N)


def _tone(freq=50.0):
    return np.cos(2.0 * math.pi * freq * T)


def _mid(x):
    n = x.size
    return x[n // 4 : 3 * n // 4]


def test_embed_cosine_gives_sine():
    embedded = hilbert.analytic_embed(T, DT, _tone())
    expected = np.sin(2.0 * math.pi * 50.0 * T)
    mid = slice(N // 4, 3 * N // 4)
    np.testing.assert_allclose(embedded.values[mid, 1], expected[mid], atol=0.01)


def test_embed_constant_has_no_quadrature():
    embedded = hilbert.analytic_embed(T[:64], DT, np.full(64, 3.0))
    np.testing.assert_allclose(embedded.values[:, 1], 0.0, atol=1e-12)


def test_embed_too_short():
    with pytest.raises(InvalidParameter):
        hilbert.analytic_embed(T[:8], DT, np.ones(8))


def test_classical_frequency_of_tone():
    embedded = hilbert.analytic_embed(T, DT, _tone())
    phi_dot = hilbert.instantaneous_frequency_classical(embedded)
    np.testing.assert_allclose(_mid(phi_dot), 100.0 * math.pi, rtol=1e-3)


def test_classical_frequency_of_chirp():
    # longer window: the chirp is not periodic, so mid-window leakage
    # only falls below 0.5% with enough distance from the edges
    t = DT * np.arange(16384)
    u = np.cos(2.0 * math.pi * (50.0 * t + 5.0 * t**2))
    embedded = hilbert.analytic_embed(t, DT, u)
    phi_dot = hilbert.instantaneous_frequency_classical(embedded)
    t_mid = _mid(t[2:-2])
    expected = 2.0 * math.pi * (50.0 + 10.0 * t_mid)
    np.testing.assert_allclose(_mid(phi_dot), expected, rtol=5e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_analytic_pair_rejects_non_finite(bad):
    # checked once per array, before any row reaches frenet.invariants
    u = np.ones(64)
    u[17] = bad
    with pytest.raises(InvalidParameter, match="non-finite"):
        hilbert.analytic_embed(T[:64], DT, u)


@pytest.mark.parametrize(
    "times, dt, says",
    [(T[:64], 0.0, "^dt must be positive and finite, got 0.0$"),
     (T[:64], -DT, "^dt must be positive and finite, got -0.0001$"),
     (T[:64], math.nan, "^dt must be positive and finite, got nan$"),
     (T[:64], math.inf, "^dt must be positive and finite, got inf$"),
     (T[:63], DT, r"expected \(N,\) times and \(N, 3\) rows, got shapes \(63,\), \(64, 3\)")],
    ids=["dt-zero", "dt-negative", "dt-nan", "dt-inf", "times-length"],
)
def test_analytic_embed_rejects_a_bad_grid(times, dt, says):
    with pytest.raises(InvalidParameter, match=says):
        hilbert.analytic_embed(times, dt, np.ones(64))


def test_classical_frequency_zero_signal():
    embedded = hilbert.analytic_embed(T[:64], DT, np.zeros(64))
    with pytest.raises(DegenerateInput):
        hilbert.instantaneous_frequency_classical(embedded)


def test_equivalence_tone():
    report = hilbert.geometric_equivalence(hilbert.analytic_embed(T, DT, _tone()))
    assert report.max_rel_dev <= 1e-9
    assert report.max_abs_xi <= 1e-12
    np.testing.assert_allclose(_mid(report.omega_mag), 100.0 * math.pi, rtol=1e-3)
    np.testing.assert_allclose(_mid(report.phi_dot), 100.0 * math.pi, rtol=1e-3)


def test_equivalence_is_algebraic_even_off_tone():
    # agreement between omega_z and phi' does not rely on the signal
    # being narrowband; it is the same arithmetic on both paths
    u = np.cos(2.0 * math.pi * 50.0 * T) + 0.4 * np.sin(2.0 * math.pi * 120.0 * T)
    report = hilbert.geometric_equivalence(hilbert.analytic_embed(T, DT, u))
    assert report.max_rel_dev <= 1e-9
    assert report.max_abs_xi <= 1e-12


def test_amplitude_modulated_tone_radial_frequency():
    u = (1.0 + 0.1 * np.sin(2.0 * math.pi * 5.0 * T)) * np.cos(
        2.0 * math.pi * 50.0 * T
    )
    embedded = hilbert.analytic_embed(T, DT, u)
    report = hilbert.geometric_equivalence(embedded)
    # rho of the embedding equals (u u' + uh uh')/(u^2 + uh^2) with the
    # same stencil derivatives
    from geomfreq.numdiff import TRIM, stencil_derivatives

    cols = embedded.values[:, :2]
    d1, _ = stencil_derivatives(cols, DT)
    u_c = cols[TRIM:-TRIM, 0]
    uh_c = cols[TRIM:-TRIM, 1]
    expected = (u_c * d1[:, 0] + uh_c * d1[:, 1]) / (u_c**2 + uh_c**2)
    np.testing.assert_allclose(report.rho, expected, atol=1e-9 * np.max(np.abs(expected)))


@pytest.mark.parametrize("signal", ["tone", "am", "dc"])
def test_equivalence_is_the_numpy_route_bit_for_bit(monkeypatch, signal):
    # the report through frenet.invariants and through the numpy body it
    # replaced, on a 50 Hz tone, an amplitude-modulated tone and DC
    u = {
        "tone": _tone(),
        "am": (1.0 + 0.3 * np.cos(2.0 * math.pi * 3.0 * T)) * _tone(),
        "dc": np.full(N, 5.0),
    }[signal]
    embedded = hilbert.analytic_embed(T, DT, u)
    got = hilbert.geometric_equivalence(embedded)
    monkeypatch.setattr(hilbert, "invariants", numpy_reference.invariants)
    want = hilbert.geometric_equivalence(embedded)
    for name in ("rho", "omega_mag", "omega_z", "xi", "phi_dot", "max_rel_dev"):
        got_x, want_x = getattr(got, name), getattr(want, name)
        assert type(got_x) is type(want_x), name
        assert np.asarray(got_x).tobytes() == np.asarray(want_x).tobytes(), name


def test_dc_embedding_keeps_both_bounds():
    # the envelope is 5 V everywhere and the curve does not rotate: the
    # kernel's omega_z is the same residue as phi', not a zero next to it
    rep = hilbert.geometric_equivalence(hilbert.analytic_embed(T, DT, np.full(N, 5.0)))
    assert rep.max_rel_dev <= hilbert.MAX_REL_DEV
    assert rep.max_abs_xi <= hilbert.MAX_ABS_XI


@pytest.mark.parametrize(
    "scale, says",
    [
        (1e152, "embedded curve's invariants"),  # v' x v'' in the per-row kernel
        (1e300, "envelope or its phase rate"),  # u^2 + uh^2
        (1e304, "stencil derivatives"),  # u'' of the stencil
        (1e307, "Hilbert transform"),  # the spectrum
    ],
    ids=["invariants", "envelope", "stencil", "transform"],
)
def test_overflow_is_raised(scale, says):
    with pytest.raises(FloatOverflow, match=says):
        hilbert.geometric_equivalence(hilbert.analytic_embed(T, DT, scale * _tone()))


def test_largest_scale_before_overflow_keeps_the_equivalence():
    rep = hilbert.geometric_equivalence(hilbert.analytic_embed(T, DT, 1e150 * _tone()))
    assert rep.max_rel_dev <= 1e-9 and rep.max_abs_xi == 0.0


def test_default_tone_writes_its_own_frequency():
    # the DFT takes the window as one period of a periodic signal, so only
    # a whole number of periods gives the tone's frequency on every row
    t, u = hilbert.tone(hilbert.TONE_FREQ, hilbert.TONE_T1, hilbert.TONE_DT)
    rep = hilbert.geometric_equivalence(hilbert.analytic_embed(t, hilbert.TONE_DT, u))
    w = 2.0 * math.pi * hilbert.TONE_FREQ
    assert np.abs(rep.omega_mag / w - 1.0).max() <= 1e-6
