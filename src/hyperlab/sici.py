"""Sine/cosine integral tails and the Nielsen (sici) spiral.

Conventions (fixed once, used everywhere in this package):

    si(x) =  integral_x^inf  sin(y)/y dy   =  pi/2 - Si(x),
    ci(x) = -integral_x^inf  cos(y)/y dy   (the standard Ci),

so that ci is negative on (0, x0) with first zero x0 ~ 0.6165.  Both are
parts of E(y) = -ci(|y|) + i sgn(y) si(|y|) (``exp_integral_tail``); E,
the antiderivative of e^{i c/t} and the spiral read them off
``scipy.special.sici``, which returns (Si, Ci) with Si = pi/2 - si.  No
other module calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import sici as _sici


def exp_integral_tail(y):
    """E(y) = integral_1^inf e^{i y u} du / u = -ci(|y|) + i sgn(y) si(|y|)
    for y != 0, elementwise over arrays (a complex scalar for a scalar)."""
    y = np.asarray(y, dtype=float)
    if np.any(y == 0.0):
        raise ValueError("diverges at y = 0")
    big_si, ci = _sici(np.abs(y))
    out = -ci + 1j * np.sign(y) * (0.5 * np.pi - big_si)
    return complex(out) if out.ndim == 0 else out


def _antideriv_exp_over_t(c, t) -> np.ndarray:
    """Antiderivative of e^{i c / t} on t > 0 (finite limit |c| pi/2 at 0+),
    elementwise over broadcast c and t; it is t itself where c = 0."""
    c, t = np.broadcast_arrays(np.asarray(c, dtype=float),
                               np.asarray(t, dtype=float))
    ac = np.abs(c)
    out = np.where(c == 0.0, t, ac * np.pi / 2.0).astype(complex)
    live = (c != 0.0) & (t > 0.0)
    u = ac[live] / t[live]
    si_u, ci_u = _sici(u)
    a = t[live] * np.exp(1j * u) - 1j * ac[live] * (ci_u + 1j * si_u)
    out[live] = np.where(c[live] > 0.0, a, np.conj(a))
    return out


@dataclass(frozen=True)
class SpiralPoint:
    x: float
    ci: float
    si: float
    modulus: float  # hypot(ci, si)


@dataclass(frozen=True)
class SpiralResult:
    points: tuple
    min_modulus: float


def nielsen_spiral(x_grid) -> SpiralResult:
    """Evaluate (ci(x), si(x)) along a positive grid."""
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.size == 0:
        return SpiralResult((), np.inf)
    if np.any(x_grid <= 0) or not np.all(np.isfinite(x_grid)):
        raise ValueError("grid must be positive and finite")
    big_si, ci = _sici(x_grid)
    si = 0.5 * np.pi - big_si
    modulus = np.hypot(ci, si)
    pts = tuple(map(SpiralPoint, x_grid.tolist(), ci.tolist(), si.tolist(),
                    modulus.tolist()))
    return SpiralResult(pts, float(np.min(modulus)))
