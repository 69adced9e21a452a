"""Fourier transforms of hyperbola measures at planar points and on
lattice-crosses.

The planar transform convention is

    ft(mu, xi) = integral exp(i pi [xi1 t - m^2 xi2 / (4 pi^2 t)]) d(pi1 mu)(t),

so that the pairing exp(i 2 pi j t) used in the one-branch experiments is
ft at xi = (2j, 0) (after the alpha = 2, m = 2 pi rescaling).  Every
``pairing`` of a measure with e^{i(w t - c/t)} sends its oscillatory
integrals through one primitive, ``_osc`` (QUADPACK's Fourier weights:
QAWO on finite intervals, QAWF on infinite tails); piecewise constant
(Ulam) densities are paired in closed form per bin where one phase
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import sici as _scipy_sici

from .measures import HyperbolaMeasure, Measure1D, Piece, QuadrantTag
from .sici import exp_integral_tail


class QuadratureError(RuntimeError):
    """Raised when an oscillatory integral misses its tolerance budget."""

    def __init__(self, message, error_estimate=np.nan):
        super().__init__(message)
        self.error_estimate = error_estimate


# QUADPACK tolerances and subdivision limit of every pairing
ABS_TOL = 1e-10
REL_TOL = 1e-8
LIMIT = 200


@dataclass(frozen=True)
class LatticeCross:
    """Lattice-cross (alpha Z x {0}) u ({0} x beta Z), optionally offset
    and filtered to a quadrant."""

    alpha: float
    beta: float
    j_range: tuple
    k_range: tuple
    offset: tuple = (0.0, 0.0)
    quadrant_filter: Optional[QuadrantTag] = None

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("spacings must be strictly positive")
        j0, j1 = self.j_range
        k0, k1 = self.k_range
        if j0 > j1 or k0 > k1:
            raise ValueError("index ranges must be nonempty")

    def points(self):
        """Cross points in deterministic order: axis 1 ascending j, then
        axis 2 ascending k.  The origin may appear once per axis."""
        out = []
        ox, oy = self.offset
        for j in range(self.j_range[0], self.j_range[1] + 1):
            out.append((1, j, self.alpha * j + ox, oy))
        for k in range(self.k_range[0], self.k_range[1] + 1):
            out.append((2, k, ox, self.beta * k + oy))
        if self.quadrant_filter is not None:
            out = [p for p in out if self.quadrant_filter.contains(p[2], p[3])]
        return out


# ---------------------------------------------------------------------------
# closed-form bin pairings

def _antideriv_exp_over_t(c, t) -> np.ndarray:
    """Antiderivative of e^{i c / t} on t > 0 (finite limit |c| pi/2 at 0+),
    elementwise over broadcast c and t; it is t itself where c = 0."""
    c, t = np.broadcast_arrays(np.asarray(c, dtype=float),
                               np.asarray(t, dtype=float))
    ac = np.abs(c)
    out = np.where(c == 0.0, t, ac * np.pi / 2.0).astype(complex)
    live = (c != 0.0) & (t > 0.0)
    u = ac[live] / t[live]
    si_u, ci_u = _scipy_sici(u)
    a = t[live] * np.exp(1j * u) - 1j * ac[live] * (ci_u + 1j * si_u)
    out[live] = np.where(c[live] > 0.0, a, np.conj(a))
    return out


def _binned_pairing(edges: np.ndarray, values: np.ndarray,
                    w: float, c: float):
    """(integral of v(t) e^{i(w t - c/t)} dt, error estimate) for a bin
    table on t >= 0; exact (error 0) when one of w, c vanishes."""
    edges = np.asarray(edges, dtype=float)
    values = np.asarray(values, dtype=complex)
    if c == 0.0:
        if w == 0.0:
            return complex(np.sum(values * np.diff(edges))), 0.0
        prim = np.exp(1j * w * edges) / (1j * w)
        return complex(np.sum(values * np.diff(prim))), 0.0
    if w == 0.0:
        prim = _antideriv_exp_over_t(-c, edges)
        return complex(np.sum(values * np.diff(prim))), 0.0
    # mixed phase: Gauss where the c/t oscillation is tame, otherwise switch
    # to u = 1/t where the fast phase is linear and Clenshaw-Curtis applies
    nodes, wts = np.polynomial.legendre.leggauss(10)
    total = 0.0 + 0.0j
    err = 0.0
    for a, b, v in zip(edges[:-1], edges[1:], values):
        if v == 0.0:
            continue
        dphase = abs(w) * (b - a)
        if a > 0.0:
            dphase += abs(c) * (1.0 / a - 1.0 / b)
        if a > 0.0 and dphase < 200.0:
            nseg = int(max(1, np.ceil(dphase / 0.5)))
            seg = np.linspace(a, b, nseg + 1)
            mid = 0.5 * (seg[:-1] + seg[1:])
            half = 0.5 * np.diff(seg)
            t = mid[:, None] + half[:, None] * nodes[None, :]
            ph = np.exp(1j * (w * t - c / t))
            total += v * np.sum(half[:, None] * wts[None, :] * ph)
            continue

        def g(u, w=w):
            return np.exp(1j * w / u) / u**2
        u_hi = np.inf if a == 0.0 else 1.0 / a
        val, e = _osc(g, 1.0 / b, u_hi, -c)
        total += v * val
        err += abs(v) * e
    return complex(total), err


# ---------------------------------------------------------------------------
# generic oscillatory quadrature

def _cquad(f, a, b):
    v, e = quad(f, a, b, complex_func=True, limit=LIMIT, epsabs=ABS_TOL,
                epsrel=REL_TOL)
    return complex(v), e.real + e.imag


def _osc(g, a, b, w):
    """(integral_a^b g(t) e^{i w t} dt, error estimate) for w != 0 with
    QUADPACK's Fourier weights: QAWO on finite [a, b], QAWF for b = inf."""
    if not (np.isfinite(w) and np.isfinite(a) and a < b):
        raise QuadratureError(f"oscillatory quadrature needs a finite "
                              f"frequency and limits, got w={w} on [{a}, {b})")
    kw = {"wvar": abs(w), "complex_func": True, "limit": LIMIT,
          "limlst": LIMIT, "epsabs": ABS_TOL, "epsrel": REL_TOL}
    cos, e_cos = quad(g, a, b, weight="cos", **kw)
    sin, e_sin = quad(g, a, b, weight="sin", **kw)
    err = e_cos + e_sin
    return complex(cos + 1j * np.sign(w) * sin), err.real + err.imag


def _piece_ft_positive(rho, a, b, w, c):
    """integral_a^b rho(t) e^{i(w t - c/t)} dt over [a,b) in (0, inf]."""
    val = 0.0 + 0.0j
    err = 0.0
    # near-zero oscillation: substitute s = k/t and push to a Fourier tail;
    # k = min(|c|, 1) keeps its frequency c/k at least 1 in size, and
    # with it QAWF's cycles short, however small c is
    if a == 0.0 and c != 0.0:
        k = min(abs(c), 1.0)
        d = min(b, k)

        def g(s):
            return rho(k / s) * np.exp(1j * w * k / s) * k / s**2
        val, err = _osc(g, k / d, np.inf, -c / k)
        a = d
        if a >= b:
            return val, err

    def integrand(t):
        return rho(t) * np.exp(-1j * c / t) if c != 0.0 else rho(t)
    a = max(a, 1e-300)
    # for |c| < 1 the c/t phase turns by a radian only where t ~ |c|, a
    # scale that one rule on [a, 1) never samples: cut at |c| 16^i
    cuts = [a]
    cut = abs(c) if 0.0 < abs(c) < 1.0 else np.inf
    while cut < min(b, 1.0):
        if cut > a:
            cuts.append(cut)
        cut *= 16.0
    for lo, hi in zip(cuts, cuts[1:] + [b]):
        v, e = _osc(integrand, lo, hi, w) if w != 0.0 else \
            _cquad(integrand, lo, hi)
        val += v
        err += e
    return val, err


def _piece_ft(p: Piece, w: float, c: float):
    if p.family == "binned":
        return _binned_pairing(p.params["edges"], p.params["values"], w, c)
    if p.family == "binned_inverted":
        # substitute u = s/t:  w' = -c/s, c' = -w s, same bin table
        s = p.params["s"]
        return _binned_pairing(p.params["edges"], p.params["values"],
                               -c / s, -w * s)
    if p.b <= 0.0:
        # reflect to positive support: t -> -t flips both frequencies
        rho = p.density
        return _piece_ft_positive(lambda u: rho(-u), -p.b, -p.a, -w, -c)
    return _piece_ft_positive(p.density, p.a, p.b, w, c)


def pairing(nu: Measure1D, w: float, c: float):
    """(integral of e^{i(w t - c/t)} d nu(t), achieved error estimate)."""
    if not (np.isfinite(w) and np.isfinite(c)):
        raise QuadratureError(f"pairing needs finite frequencies, got "
                              f"w={w}, c={c}")
    total = 0.0 + 0.0j
    err = 0.0
    for x, wt in nu.atoms:
        total += wt * np.exp(1j * (w * x - (c / x if c else 0.0)))
    for p in nu.pieces:
        v, e = _piece_ft(p, w, c)
        total += v
        err += e
    return complex(total), err


def error_budget(value) -> float:
    """Largest achieved error estimate accepted for a pairing result of
    size |value|; above it the result raises ``QuadratureError``."""
    return 100.0 * (ABS_TOL + REL_TOL * abs(value)) + 1e-8


def _within_budget(value, err: float, what: str):
    """(value, err), or ``QuadratureError`` when the achieved error
    estimate err of ``what`` exceeds the error budget of value."""
    if err > error_budget(value):
        raise QuadratureError(f"{what} achieved error estimate {err:.3g} "
                              f"above tolerance", err)
    return value, err


def _checked_ft(mu: HyperbolaMeasure, xi1: float, xi2: float):
    """(ft of mu at (xi1, xi2), error estimate) within the error budget."""
    c = mu.m**2 * xi2 / (4.0 * np.pi)
    return _within_budget(*pairing(mu.pi1, np.pi * xi1, c),
                          f"oscillatory quadrature at xi=({xi1}, {xi2})")


def ft_point(mu: HyperbolaMeasure, xi) -> complex:
    """Fourier transform of mu at the planar point xi = (xi1, xi2)."""
    return _checked_ft(mu, float(xi[0]), float(xi[1]))[0]


@dataclass(frozen=True)
class CrossValue:
    axis: int
    index: int
    xi1: float
    xi2: float
    value: complex
    abs_err_estimate: float


def ft_on_cross(mu: HyperbolaMeasure, cross: LatticeCross):
    """One transform per cross point, deterministic ordering, each with
    the error estimate its quadrature achieved (0 where closed-form)."""
    out = []
    for axis, idx, x1, x2 in cross.points():
        try:
            val, err = _checked_ft(mu, x1, x2)
        except QuadratureError as exc:
            raise QuadratureError(
                f"cross point axis={axis} index={idx} xi=({x1}, {x2}): {exc}",
                exc.error_estimate) from exc
        out.append(CrossValue(axis, idx, x1, x2, val, err))
    return out


def critical_measure_ft(x: float) -> complex:
    """Fourier transform (1-e^{i 2 pi x}) * int_0^inf e^{i 2 pi x t} dt/(t+1)
    of the critical annihilator, via the si/ci decomposition (the
    substitution y = 2 pi x t gives lower limit 2 pi |x| in the tail
    integrals)."""
    x = float(x)
    if x.is_integer():
        return 0.0 + 0.0j
    e_val = np.exp(-2j * np.pi * x) * exp_integral_tail(2.0 * np.pi * x)
    return complex((1.0 - np.exp(2j * np.pi * x)) * e_val)
