"""Ulam discretization of the transfer operator of U_gamma and invariant
density computation.

Bin-to-bin transition fractions are computed analytically from the branch
inverses t = gamma/(y + j) (no sampling).  The infinitely many branches
accumulating at 0 are summed in closed form through digamma differences, so
every row is stochastic to machine precision.  The operator applied to a
bin table, sum_j v(s/(t+j)) s/(t+j)^2, is one blocked kernel shared by the
invariance residual and the periodization sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma

from .measures import _binned

MEMORY_BUDGET_BYTES = 2 << 30
# branch iterations of build_ulam, about gamma * n_bins: a bound on its run
# time (10^7 iterations take over a minute), not on its accuracy
WORK_BUDGET_BRANCHES = 10 ** 7
# elements per block of the bin-table sum: a cache's worth, not an option
_BLOCK_ELEMS = 1 << 16


class UlamError(RuntimeError):
    pass


@dataclass(frozen=True)
class UlamOperator:
    gamma: float
    n_bins: int
    matrix: np.ndarray  # row-stochastic (n_bins, n_bins)


@dataclass(frozen=True)
class InvariantDensity:
    gamma: float
    edges: np.ndarray   # n_bins + 1 edges on [0, 1]
    values: np.ndarray  # nonnegative density per bin, integral 1

    def __call__(self, t):
        return _binned(self.edges, self.values)(t)

    def bin_masses(self) -> np.ndarray:
        return self.values * np.diff(self.edges)


def _digamma_diff(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """psi(x + h) - psi(x) for x >= 1 and 0 < h <= 1, as a sum of positive
    terms: the two digammas agree in most digits once x is large, so their
    difference would cancel.  psi(x + 1) = psi(x) + 1/x carries x past
    100, where psi(x) = log x - 1/(2x) - 1/(12x^2) + 1/(120x^4) + O(x^-6)
    is differenced term by term (relative error below 1e-13)."""
    out = np.zeros(np.shape(x))
    for _ in range(max(0, int(np.ceil(100.0 - np.min(x))))):
        out += h / (x * (x + h))
        x = x + 1.0
    y = x + h
    return (out + np.log1p(h / x) + h / (2.0 * x * y)
            + h * (x + y) / (12.0 * x * x * y * y)
            + (1.0 / y**4 - 1.0 / x**4) / 120.0)


def build_ulam(gamma: float, n_bins: int) -> UlamOperator:
    """Row-stochastic Ulam matrix for U_gamma on uniform bins of [0, 1)."""
    if n_bins < 2:
        raise UlamError("need at least 2 bins")
    if 8 * n_bins * n_bins > MEMORY_BUDGET_BYTES:
        raise UlamError(f"n_bins={n_bins} exceeds the matrix memory budget")
    if gamma * n_bins > WORK_BUDGET_BRANCHES:
        raise UlamError(f"gamma * n_bins = {gamma * n_bins:.3g} exceeds the "
                        f"branch work budget {WORK_BUDGET_BRANCHES:.0e}")
    edges = np.arange(n_bins + 1) / n_bins
    P = np.zeros((n_bins, n_bins))
    for i in range(n_bins):
        a, b = edges[i], edges[i + 1]
        width = b - a
        row = P[i]
        # explicit branches overlapping (a, b); branch j occupies
        # t in (gamma/(j+1), gamma/j], branch 0 is t > gamma (gamma/t < 1)
        j_lo = 0 if (gamma < b) else int(np.floor(gamma / b))
        j_hi_t = gamma / a if a > 0.0 else np.inf
        # branches fully inside (0, b) are summed in closed form below
        j_full = int(np.ceil(gamma / b)) if a == 0.0 else None
        j_hi = (j_full - 1) if a == 0.0 else int(np.ceil(j_hi_t))
        for j in range(max(j_lo, 0), j_hi + 1):
            t_hi = gamma / j if j >= 1 else 1.0
            t_lo = gamma / (j + 1)
            t1, t2 = max(t_lo, a), min(t_hi, b)
            if t1 >= t2:
                continue
            # preimages of the target edges under this branch (descending)
            t_edges = gamma / (edges + j) if j >= 1 else \
                np.concatenate([[np.inf], gamma / (edges[1:] + j)])
            t_edges = np.clip(t_edges, t1, t2)
            row += (t_edges[:-1] - t_edges[1:]) / width
        if j_full is not None:
            start = max(j_full, 1)
            row += gamma * _digamma_diff(start + edges[:-1],
                                         np.diff(edges)) / width
        # checked per row, so a lost row fails before the rows after it
        if abs(row.sum() - 1.0) > 1e-10:
            raise UlamError(f"branch bookkeeping lost mass in row {i}")
    P /= P.sum(axis=1)[:, None]
    return UlamOperator(gamma, n_bins, P)


def invariant_density(op: UlamOperator, tol: float = 1e-12,
                      max_iter: int = 100_000) -> InvariantDensity:
    """Leading left fixed vector of the Ulam matrix by power iteration."""
    n = op.n_bins
    v = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iter):
        w = v @ op.matrix
        w /= np.sum(np.abs(w))
        residual = float(np.sum(np.abs(w - v)))
        v = w
        if residual <= tol:
            break
    else:
        raise UlamError(f"power iteration did not reach tol={tol:g}; "
                        f"last residual {residual:g}")
    edges = np.arange(n + 1) / n
    values = np.maximum(v, 0.0) * n  # masses -> density
    values /= np.sum(values * np.diff(edges))
    return InvariantDensity(op.gamma, edges, values)


def _bin_table_sum(edges, values, s: float, t: np.ndarray,
                   lo: float = 0.0, hi: float = np.inf) -> np.ndarray:
    """sum_{j>=0} v(s/(t+j)) s/(t+j)^2 over the j with lo <= t+j < hi, for
    t in [0, 1) and the bin table v = (edges, values), zero off
    [edges[0], edges[-1]).

    This is the transfer operator of U_s applied to the table.  When the
    table reaches 0 and hi = inf, every argument beyond J lies in the first
    bin and those j are summed exactly as v_0 s psi'(t+J+1)."""
    edges = np.asarray(edges, dtype=float)
    values = np.asarray(values)
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.zeros(flat.shape, dtype=np.result_type(values, float))
    if not flat.size:
        return out.reshape(t.shape)
    # index 0 is below the table and n + 1 above it (searchsorted, right)
    table = np.concatenate([[0.0], values, [0.0]])
    top = min(hi, s / edges[0] if edges[0] > 0.0 else np.inf)
    tail = not np.isfinite(top)  # the table reaches 0 and hi = inf
    j_hi = max(int(np.ceil(s / edges[1])) + 2, int(np.ceil(lo))) if tail \
        else int(np.ceil(top))
    step = max(1, _BLOCK_ELEMS // flat.size)
    for j0 in range(0, j_hi + 1, step):
        js = np.arange(j0, min(j0 + step, j_hi + 1), dtype=float)
        x = flat[None, :] + js[:, None]
        live = (x >= lo) & (x < hi)
        if j0 == 0:
            # x = 0 is the image of an infinite argument: weight 0, not 0*inf
            x[0, x[0] == 0.0] = np.inf
        u = s / x
        # a block's arguments span few bins: search only those edges
        i0, i1 = np.searchsorted(edges, [u.min(), u.max()], side="right")
        w = table[i0 + np.searchsorted(edges[i0:i1], u, side="right")] * (u / x)
        out += np.sum(np.where(live, w, 0.0), axis=0)
    if tail:
        out += values[0] * s * polygamma(1, flat + j_hi + 1)
    return out.reshape(t.shape)


def invariance_residual(density: InvariantDensity, grid_n: int) -> float:
    """Sup-norm residual of rho(t) = sum_{j>=0} rho(gamma/(t+j))
    gamma/(t+j)^2 on a midpoint grid of [0, 1)."""
    t = (np.arange(grid_n) + 0.5) / grid_n
    image = _bin_table_sum(density.edges, density.values, density.gamma, t)
    return float(np.max(np.abs(density(t) - image)))
