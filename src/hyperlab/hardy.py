"""Hardy-space numerics on the 2-periodic line: the Fourier coefficients
of the periodization Q2 by Poisson summation, the inversion J_beta (the
image under t -> -beta/t), principal-value Hilbert transforms on the line
and on the hyperbola branch pair, Hardy-membership defects read off those
coefficients, and the time-like witness family

    f_z0(t) = 1/(t - z0) - 1/(t - 2 - z0),   Im z0 > 0,

whose exponential pairings all vanish by residues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .fourier import ABS_TOL, LIMIT, REL_TOL, QuadratureError, _caught, \
    _diagnosed, _memo, _refusal, _within_budget, error_budget, pairing
from .measures import (HyperbolaMeasure, Measure1D, MeasureError, Piece,
                       _pushforward_reciprocal, compress_pi2)

# the smallest Im z0 of the witness: a scan of its pairings against their
# exact 0 (beta from 0.1 to 1000, j, k <= 20, Im z0 down to 1e-9) found
# every row within its budget of 0, or over its own budget, down to 1e-4,
# and rows reading wrong values with in-budget estimates from 3.2e-5 down
# (the mass row, |value| = 2 Im z0, from about 5e-6 down)
WITNESS_MIN_IM = 1e-4


def q2_coefficients(f: Measure1D, n_max: int):
    """(c, err): the Fourier coefficients

        c_n = (1/2) int_{-1}^{1} Q2f(x) e^{-i pi n x} dx = (1/2) f^(pi n)

    of the 2-periodization Q2f(x) = sum_j f(x + 2j) for |n| <= n_max, by
    Poisson summation (index n via [n + n_max]), and the summed error
    estimate the pairings achieved."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    vals, errs = pairing(f, -np.pi * np.arange(-n_max, n_max + 1), 0.0)
    return 0.5 * vals, 0.5 * float(np.sum(errs))


@dataclass(frozen=True)
class HardyDefect:
    """l1-mass split of periodized Fourier coefficients.

    ``ratio`` uses strictly negative indices (H^1_+ membership test);
    ``nonpos_ratio`` also counts n = 0 (the H^1_{+,0} variant);
    ``err_estimate`` is the error the coefficient pairings achieved.
    """

    neg_mass: float
    nonpos_mass: float
    total_mass: float
    ratio: float
    nonpos_ratio: float
    err_estimate: float


def hardy_defect(f: Measure1D, n_max: int) -> HardyDefect:
    # QUADPACK returns finite, wrong values for a non-integrable density:
    # raise MeasureError unless a majorant certifies the tail
    for p in f.pieces:
        p.check_integrable()
    with _diagnosed():
        coeffs, err = q2_coefficients(f, n_max)
        mags = np.abs(coeffs)
        total = float(np.sum(mags))
        _within_budget(total, err, ["Q2 coefficients"])
    if total == 0.0:
        raise MeasureError("zero periodization has no defect ratio")
    neg = float(np.sum(mags[:n_max]))
    nonpos = float(np.sum(mags[:n_max + 1]))
    return HardyDefect(neg, nonpos, total, neg / total, nonpos / total, err)


# ---------------------------------------------------------------------------
# inversion

def inversion_j(f: Measure1D, beta: float) -> Measure1D:
    """J_beta f (x) = beta |x|^{-2} f(-beta/x): the image of f under
    t -> -beta/t, a total-variation isometry and an involution."""
    if beta <= 0:
        raise MeasureError("beta must be positive")
    return _pushforward_reciprocal(f, -beta)


# ---------------------------------------------------------------------------
# Hilbert transforms

def _total_density(f: Measure1D):
    """The total density of f at one float t, by ``density_at``'s rule
    (the sum over the pieces with a <= t < b) without its arrays and
    masks."""
    def rho(t):
        return sum((pc.density(t) for pc in f.pieces if pc.a <= t < pc.b),
                   0j)
    return rho


def _pv_point(f: Measure1D, x: float):
    """pv int f(t)/(x - t) dt with error estimate, as the regular integral
    int_0^inf [rho(x - s) - rho(x + s)]/s ds of the total density rho,
    split at s = d = |x - e| for each finite piece end e, where rho may
    jump, and cut 16^i (i = 0, 1, ...) from each such d on both sides while
    16^i < d (``fourier._t_chart``'s fixed ladder), so that no part hides a
    narrow piece or a far mass from its rule.  An end with d + 1 == d (d >=
    2^53), where the first cut is not a float, raises ``QuadratureError``;
    an x at a piece end where rho jumps by more than rounding (ABS_TOL +
    REL_TOL |rho(x)|), where the principal value diverges, raises
    ``MeasureError``."""
    rho = _total_density(f)
    cuts = {0.0, np.inf}
    for end in {e for pc in f.pieces for e in (pc.a, pc.b) if np.isfinite(e)}:
        d = abs(x - end)
        if d == 0.0:
            here = rho(x)
            jump = float(abs(here - rho(np.nextafter(x, -np.inf))))
            if jump > ABS_TOL + REL_TOL * abs(here):
                raise MeasureError(f"the density jumps by {jump:.3g} at the "
                                   f"piece end x={x}: the principal value "
                                   f"diverges there")
        if d + 1.0 == d:
            raise QuadratureError(f"piece end {end} lies {d:.3g} from x={x}: "
                                  f"a unit cut is below float resolution")
        cuts.add(d)
        step = 1.0
        while step < d:
            cuts.update((d - step, d + step))
            step *= 16.0
    g = _memo(lambda s: (rho(x - s) - rho(x + s)) / s)
    total, err = 0j, 0.0
    cuts = sorted(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        with _caught():
            v, e = quad(g, lo, hi, complex_func=True, limit=LIMIT,
                        epsabs=ABS_TOL, epsrel=REL_TOL)
        total += v
        err += e.real + e.imag
    return total, err


def hilbert_line(f: Measure1D, x_grid):
    """(values, errs): H[f](x) = (1/pi) pv int f(t)/(x - t) dt on the given
    grid, a complex array, and the error estimates achieved, a float
    array; a value whose achieved error estimate is over its budget raises
    ``QuadratureError``, and an x at a piece end where the density jumps
    ``MeasureError`` (``_pv_point``)."""
    if f.atoms:
        raise MeasureError("Hilbert transform of atoms is not a function")
    x_grid = np.asarray(x_grid, dtype=float)
    vals = np.zeros(x_grid.shape, dtype=complex)
    errs = np.zeros(x_grid.shape)
    with _diagnosed():
        for i, x in enumerate(x_grid):
            v, e = _pv_point(f, float(x))
            vals[i] = v / np.pi
            errs[i] = e / np.pi
        _within_budget(vals, errs, [f"Hilbert transform at x={x}"
                                    for x in x_grid.tolist()])
    return vals, errs


def hilbert_hyperbola(mu: HyperbolaMeasure, t_grid):
    """(values, errs, agreement_sup): H[pi1 nu] on t_grid with its error
    estimates, and the sup distance from it of the pi2 route, H[pi2 nu]
    pulled back to the same chart (its values at sigma(t_grid) times the
    Jacobian), which must agree with it by intertwining."""
    nu1 = mu.pi1
    if abs(pairing(nu1, 0.0, 0.0)[0]) > 1e-10:
        raise MeasureError("hyperbola Hilbert transform requires total "
                           "mass 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid == 0.0):
        raise MeasureError("grid must avoid the branch point t = 0")
    vals, errs = hilbert_line(nu1, t_grid)
    sigma = -mu.m**2 / (4.0 * np.pi**2 * t_grid)
    h2 = hilbert_line(compress_pi2(mu), sigma)[0]
    # a density on the x2-axis pulls back to |dsigma/dt| times its values;
    # not by the reciprocal rule, whose rounding order would move the sup
    jac = mu.m**2 / (4.0 * np.pi**2 * t_grid**2)
    return vals, errs, float(np.max(np.abs(h2 * jac - vals)))


# ---------------------------------------------------------------------------
# time-like witness

def _witness_f(z0: complex):
    def f(t):
        return 1.0 / (t - z0) - 1.0 / (t - 2.0 - z0)
    return f


def timelike_witness(z0: complex, beta: float, j_max: int, k_max: int):
    """(values, error estimates) of the pairings <f_z0, e^{i pi j t}> for
    j = 0..j_max, then <f_z0, e^{i pi beta k / t}> for k = 0..k_max: complex
    and float arrays of j_max + k_max + 2 entries, each value 0 by
    residues, each estimate the one its quadrature achieved.  A pairing
    whose achieved error estimate exceeds its budget, or whose |value|
    exceeds the budget of the exact 0, raises ``QuadratureError``, as does
    Im z0 below WITNESS_MIN_IM."""
    z0 = complex(z0)
    if z0.imag <= 0:
        raise MeasureError("the witness requires Im z0 > 0")
    if beta <= 0:
        raise MeasureError("beta must be positive")
    j, k = np.arange(j_max + 1), np.arange(k_max + 1)
    return _witness_pairings(
        z0, np.r_[np.pi * j, np.zeros(k.size)],
        np.r_[np.zeros(j.size), -np.pi * beta * k],
        [f"witness pairing j = {i}" for i in j]
        + [f"witness pairing k = {i}" for i in k])


def _witness_pairings(z0: complex, w, c, labels):
    """(values, errs) of the pairings of f_z0 with e^{i(w t - c/t)} at the
    1-d arrays w and c, or ``QuadratureError`` naming by labels[i] the
    first whose estimate is over its budget, or whose |value| is over the
    budget of the exact 0; and then for any Im z0 < WITNESS_MIN_IM, where
    the poles z0 and z0 + 2 lie so near the axis that a row may read a
    wrong value with an in-budget estimate."""
    f = _witness_f(z0)
    # the total-variation bound is not needed by the pairings
    nu = Measure1D(pieces=(Piece(-np.inf, 0.0, f, np.inf),
                           Piece(0.0, np.inf, f, np.inf)))
    with _diagnosed():
        vals, errs = _within_budget(*pairing(nu, w, c), labels)
        for label, v, e in zip(labels, vals, errs):
            if abs(v) > error_budget(0.0):
                raise _refusal(f"{label} reads |value| {abs(v):.3g}, where "
                               f"the residue identity gives 0", e)
        if z0.imag < WITNESS_MIN_IM:
            raise _refusal(f"witness pairings at Im z0 = {z0.imag:.3g} are "
                           f"refused: below Im z0 = {WITNESS_MIN_IM:g} "
                           f"their error estimates are not reliable")
    return vals, errs
