"""Hardy-space numerics on the 2-periodic line: the periodization Q2,
the inversions J_beta and J_{beta,p}, principal-value Hilbert transforms
on the line and on the hyperbola branch pair, Hardy-membership defects
read off Fourier coefficients, and the time-like witness family

    f_z0(t) = 1/(t - z0) - 1/(t - 2 - z0),   Im z0 > 0,

whose exponential pairings all vanish by residues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .fourier import QuadratureSpec, DEFAULT_QUAD, _cquad, pairing
from .measures import (HyperbolaMeasure, Measure1D, MeasureError, Piece,
                       compress_pi1, compress_pi2)


@dataclass(frozen=True)
class PeriodicFunction2:
    """Period-2 function sampled on the midpoint grid of [-1, 1)."""

    x: np.ndarray
    samples: np.ndarray

    @property
    def grid_n(self) -> int:
        return len(self.x)

    def mass(self) -> complex:
        return complex(np.sum(self.samples) * 2.0 / self.grid_n)


TAIL_CUT = 1e-4  # summation budget; the remainder is handled analytically


def _tail_j(p: Piece, probe, step: int) -> int:
    """Smallest |j| with the piece variation beyond probe(j) below the
    explicit-summation cutoff."""
    j = step
    while p.tail_bound(abs(probe(j))) > TAIL_CUT:
        j += step
        if abs(j) > 10**6:
            raise MeasureError("periodization tail does not certify")
    return j


def _em_remainder(p: Piece, lower: np.ndarray, positive_side: bool):
    """(1/2) integral of rho beyond ``lower`` (toward the infinite end),
    the midpoint Euler-Maclaurin value of the dropped sum tail."""
    l0 = float(np.min(lower)) if positive_side else float(np.max(lower))
    if positive_side:
        base, _ = _cquad(p.density, l0, np.inf, DEFAULT_QUAD)
    else:
        base, _ = _cquad(p.density, -np.inf, l0, DEFAULT_QUAD)
    # incremental integral from l0 to each grid lower-limit (span <= 2)
    nodes, wts = np.polynomial.legendre.leggauss(24)
    mid = 0.5 * (lower + l0)
    half = 0.5 * (lower - l0)
    t = mid[:, None] + half[:, None] * nodes[None, :]
    inc = np.sum(wts[None, :] * p.density(t), axis=1) * half
    if positive_side:
        return 0.5 * (base - inc)
    return 0.5 * (base + inc)


def periodize_q2(f: Measure1D, grid_n: int) -> PeriodicFunction2:
    """Q2 f (x) = sum_j rho_f(x + 2j) on the midpoint grid of [-1, 1)."""
    if f.atoms:
        raise MeasureError("Q2 acts on densities; remove atoms first")
    x = -1.0 + 2.0 * (np.arange(grid_n) + 0.5) / grid_n
    out = np.zeros(grid_n, dtype=complex)
    for p in f.pieces:
        if np.isfinite(p.a):
            j_lo = int(np.floor((p.a - x[-1]) / 2.0))
        else:
            j_lo = _tail_j(p, lambda j: x[-1] + 2.0 * j, -1)
        if np.isfinite(p.b):
            j_hi = int(np.ceil((p.b - x[0]) / 2.0))
        else:
            j_hi = _tail_j(p, lambda j: x[0] + 2.0 * j, +1)
        js = np.arange(j_lo, j_hi + 1)
        for chunk in np.array_split(js, max(1, len(js) // 128)):
            t = x[None, :] + 2.0 * chunk[:, None]
            mask = (t >= p.a) & (t < p.b)
            if np.any(mask):
                vals = np.zeros(t.shape, dtype=complex)
                vals[mask] = p.density(t[mask])
                out += vals.sum(axis=0)
        if not np.isfinite(p.b):
            out += _em_remainder(p, x + 2.0 * (j_hi + 1) - 1.0, True)
        if not np.isfinite(p.a):
            out += _em_remainder(p, x + 2.0 * (j_lo - 1) + 1.0, False)
    return PeriodicFunction2(x, out)


def fourier_coeffs_periodic(g: PeriodicFunction2, n_max: int) -> np.ndarray:
    """c_n = (1/2) int_{-1}^{1} g(x) e^{-i pi n x} dx for |n| <= n_max,
    by the sampling grid; index n via [n + n_max]."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    n = np.arange(-n_max, n_max + 1)
    phases = np.exp(-1j * np.pi * n[:, None] * g.x[None, :])
    return (phases @ g.samples) / g.grid_n


@dataclass(frozen=True)
class HardyDefect:
    """l1-mass split of periodized Fourier coefficients.

    ``ratio`` uses strictly negative indices (H^1_+ membership test);
    ``nonpos_ratio`` also counts n = 0 (the H^1_{+,0} variant).
    """

    neg_mass: float
    nonpos_mass: float
    total_mass: float
    ratio: float
    nonpos_ratio: float


def hardy_defect(f: Measure1D, n_max: int, grid_n: int = 8192) -> HardyDefect:
    if 2 * n_max + 1 > grid_n:
        raise MeasureError(f"{2 * n_max + 1} coefficients alias on a "
                           f"{grid_n}-point grid; need 2 n_max + 1 <= grid_n")
    coeffs = fourier_coeffs_periodic(periodize_q2(f, grid_n), n_max)
    mags = np.abs(coeffs)
    total = float(np.sum(mags))
    if total == 0.0:
        raise MeasureError("zero periodization has no defect ratio")
    neg = float(np.sum(mags[:n_max]))
    nonpos = float(np.sum(mags[:n_max + 1]))
    return HardyDefect(neg, nonpos, total, neg / total, nonpos / total)


# ---------------------------------------------------------------------------
# inversions

def inversion_j(f: Measure1D, beta: float, p: float = 1.0) -> Measure1D:
    """J_{beta,p} f (x) = beta^{1/p} |x|^{-2/p} theta_p(x) f(-beta/x),
    with theta_p = 1 on x > 0 and e^{-i 2 pi / p} on x < 0.  For p = 1
    this is the total-variation isometry J_beta."""
    if beta <= 0:
        raise MeasureError("beta must be positive")
    if not 0.0 < p <= 1.0:
        raise MeasureError("p must lie in (0, 1]")
    for x0, _ in f.atoms:
        if x0 == 0.0:
            raise MeasureError("J_beta is undefined on mass at 0")
    if f.atoms and p != 1.0:
        raise MeasureError("atoms transform only in the p = 1 case")
    theta_neg = np.exp(-2j * np.pi / p)
    atoms = tuple((-beta / x0, wt) for x0, wt in f.atoms)

    def endpoint(t, side):
        if t == 0.0:
            return -np.inf if side > 0 else np.inf
        if not np.isfinite(t):
            return 0.0
        return -beta / t

    pieces = []
    for pc in f.pieces:
        if pc.a < 0.0 < pc.b:
            raise MeasureError("pieces must not straddle 0")
        lo, hi = endpoint(pc.a, +1), endpoint(pc.b, -1)
        theta = 1.0 + 0.0j if lo >= 0.0 else theta_neg

        def rho_new(x, rho=pc.density, theta=theta):
            x = np.asarray(x, dtype=float)
            return (beta ** (1.0 / p) * np.abs(x) ** (-2.0 / p) * theta
                    * rho(-beta / x))
        tv = pc.tv_bound if p == 1.0 else np.inf
        pieces.append(Piece(lo, hi, rho_new, tv))
    return Measure1D(atoms=atoms, pieces=tuple(sorted(pieces,
                                                      key=lambda q: q.a)))


# ---------------------------------------------------------------------------
# Hilbert transforms

@dataclass(frozen=True)
class SampledFunction:
    x: np.ndarray
    values: np.ndarray
    err_estimates: np.ndarray


def _pv_point(f: Measure1D, x: float, q: QuadratureSpec,
              window: float = 50.0):
    """pv int f(t)/(x - t) dt with error estimate.

    The principal-value window (x - w, x + w) integrates the *total*
    density with QUADPACK's Cauchy-weight rule, so internal piece
    boundaries (where the total density is continuous) cause no trouble;
    the remaining support is integrated plainly per piece."""
    lo, hi = x - window, x + window
    total = 0.0 + 0.0j
    err = 0.0
    if any(pc.a < hi and pc.b > lo for pc in f.pieces):
        # QUADPACK's Cauchy-weight rule computes pv int rho/(t - x)
        v, e = quad(lambda t: complex(f.density_at(t)), lo, hi,
                    weight="cauchy", wvar=x, complex_func=True,
                    limit=q.max_subdivisions, epsabs=q.abs_tol,
                    epsrel=q.rel_tol)
        total -= v
        err += e.real + e.imag
    for pc in f.pieces:
        rho = pc.density

        def plain(t, rho=rho):
            return rho(t) / (x - t)

        if pc.a < lo:
            v, e = _cquad(plain, pc.a, min(pc.b, lo), q)
            total += v
            err += e
        if pc.b > hi:
            v, e = _cquad(plain, max(pc.a, hi), pc.b, q)
            total += v
            err += e
    return total, err


def hilbert_line(f: Measure1D, x_grid,
                 q: QuadratureSpec = DEFAULT_QUAD) -> SampledFunction:
    """H[f](x) = (1/pi) pv int f(t)/(x - t) dt on the given grid."""
    if f.atoms:
        raise MeasureError("Hilbert transform of atoms is not a function")
    x_grid = np.asarray(x_grid, dtype=float)
    vals = np.zeros(x_grid.shape, dtype=complex)
    errs = np.zeros(x_grid.shape)
    for i, x in enumerate(x_grid):
        v, e = _pv_point(f, float(x), q)
        vals[i] = v / np.pi
        errs[i] = e / np.pi
    return SampledFunction(x_grid, vals, errs)


@dataclass(frozen=True)
class HyperbolaHilbert:
    """Hilbert transform of a mass-zero hyperbola measure, reported in
    both compressions: ``pi1`` is H[pi1 nu] on t_grid; ``pi2_route`` is
    H[pi2 nu] pulled back to the same chart (values at sigma(t_grid)
    times the Jacobian), which must agree with ``pi1`` by intertwining."""

    m: float
    t_grid: np.ndarray
    pi1: SampledFunction
    pi2_route: SampledFunction
    agreement_sup: float


def hilbert_hyperbola(mu: HyperbolaMeasure, t_grid,
                      q: QuadratureSpec = DEFAULT_QUAD) -> HyperbolaHilbert:
    nu1 = compress_pi1(mu)
    if abs(pairing(nu1, 0.0, 0.0, q)[0]) > 1e-10:
        raise MeasureError("hyperbola Hilbert transform requires total "
                           "mass 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid == 0.0):
        raise MeasureError("grid must avoid the branch point t = 0")
    h1 = hilbert_line(nu1, t_grid, q)
    nu2 = compress_pi2(mu)
    sigma = -mu.m**2 / (4.0 * np.pi**2 * t_grid)
    h2 = hilbert_line(nu2, sigma, q)
    # pull the pi2-route values back to the t chart: a density on the
    # x2-axis corresponds to |dsigma/dt| times its pullback
    jac = mu.m**2 / (4.0 * np.pi**2 * t_grid**2)
    back = SampledFunction(t_grid, h2.values * jac, h2.err_estimates * jac)
    agree = float(np.max(np.abs(back.values - h1.values)))
    return HyperbolaHilbert(mu.m, t_grid, h1, back, agree)


# ---------------------------------------------------------------------------
# time-like witness

@dataclass(frozen=True)
class PairingRow:
    kind: str  # "j" or "k"
    index: int
    value: complex
    err_estimate: float


def _witness_f(z0: complex):
    def f(t):
        return 1.0 / (t - z0) - 1.0 / (t - 2.0 - z0)
    return f


def timelike_witness(z0: complex, beta: float, j_max: int, k_max: int,
                     q: QuadratureSpec = DEFAULT_QUAD):
    """Pairings <f_z0, e^{i pi j t}> (j = 0..j_max) and
    <f_z0, e^{i pi beta k / t}> (k = 0..k_max); all vanish by residues."""
    z0 = complex(z0)
    if z0.imag <= 0:
        raise MeasureError("the witness requires Im z0 > 0")
    if beta <= 0:
        raise MeasureError("beta must be positive")
    f = _witness_f(z0)
    # the total-variation bound is not needed by the pairings
    nu = Measure1D(pieces=(Piece(-np.inf, 0.0, f, np.inf),
                           Piece(0.0, np.inf, f, np.inf)))
    rows = []
    for j in range(0, j_max + 1):
        rows.append(PairingRow("j", j, *pairing(nu, np.pi * j, 0.0, q)))
    for k in range(0, k_max + 1):
        rows.append(PairingRow("k", k,
                               *pairing(nu, 0.0, -np.pi * beta * k, q)))
    return rows


def witness_l1_norm(z0: complex, q: QuadratureSpec = DEFAULT_QUAD) -> float:
    f = _witness_f(complex(z0))
    v, _ = _cquad(lambda t: abs(f(t)), -np.inf, np.inf, q)
    return float(np.real(v))
