"""Correctly rounded Frenet invariants of float rows: a test oracle.

Each row v, v', v'' is taken as the exact rationals its floats hold, and
every invariant whose formula is rational (rho, omega, tau, omega' and
eta; see ``frenet``'s docstring) is computed in ``fractions.Fraction``
and rounded once to the nearest float.  The two that need a square
root, |v| and |omega|, and xi = |v| tau, are computed in ``decimal`` at
DIGITS significant digits and rounded once from there, so each value is
the float nearest the true invariant of the given floats, unless that
lies within about 1e-60 relative of a point halfway between two floats.
The kernel's error on a row is its distance from these values, in units
of u = 2**-53.
"""

from decimal import Context, Decimal
from fractions import Fraction
from types import SimpleNamespace

DIGITS = 60
_CTX = Context(prec=DIGITS)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dec(q):
    """The Fraction q as a Decimal of DIGITS digits."""
    return _CTX.divide(Decimal(q.numerator), Decimal(q.denominator))


def _sqrt(q):
    """sqrt of the Fraction q >= 0, as a Decimal of DIGITS digits."""
    return _CTX.sqrt(_dec(q))


def invariants(v, dv, ddv):
    """The invariants of one row of float 3-vectors with v != 0, each the
    float nearest its true value, as a namespace of floats: v_mag, rho,
    omega_mag and xi, and omega_dot as a 3-tuple.  It also gives the
    row's conditioning: sin_vdv, the sine of the angle between v and v'
    (0 where v' = 0), and ratio, |v| |v''| / |v'|^2.  xi, omega_dot and
    eta are None where omega = 0, and ratio where v' = 0."""
    v, dv, ddv = ([Fraction(x) for x in vec] for vec in (v, dv, ddv))
    v2, dv2 = _dot(v, v), _dot(dv, dv)
    vxdv = _cross(v, dv)
    rho = _dot(v, dv) / v2
    omega = tuple(x / v2 for x in vxdv)
    omega2 = _dot(omega, omega)
    v_mag = _sqrt(v2)
    out = SimpleNamespace(
        v_mag=float(v_mag), rho=float(rho), omega_mag=float(_sqrt(omega2)),
        xi=None, omega_dot=None, eta=None,
        sin_vdv=float(_sqrt(_dot(vxdv, vxdv) / (v2 * dv2))) if dv2 else 0.0,
        ratio=float(_CTX.divide(_sqrt(v2 * _dot(ddv, ddv)), _dec(dv2))) if dv2 else None,
    )
    if omega2:
        tau = _dot(v, _cross(dv, ddv)) / _dot(vxdv, vxdv)
        omega_dot = tuple(x / v2 - 2 * rho * w for x, w in zip(_cross(v, ddv), omega))
        out.xi = float(_CTX.multiply(v_mag, _dec(tau)))
        out.omega_dot = tuple(float(x) for x in omega_dot)
        out.eta = float(_dot(omega, omega_dot) / omega2)
    return out
