"""Ulam discretization of the transfer operator of U_gamma and invariant
density computation.

Bin-to-bin transition fractions are computed analytically from the branch
inverses t = gamma/(y + j) (no sampling), written once into the arrays of
a sparse CSR matrix.  Branch j spans (gamma/(j+1), gamma/j]; the
J ~ sqrt(gamma n) branches longer than a bin are cut at the bin edges and
at the preimages of the bin edges in one merge, whose runs fill the
sparse rows in order.  Every shorter branch lies in at most two bins of
the first ~sqrt(gamma n) rows, which are dense and filled in row blocks:
the whole branches inside a bin are summed per target as digamma
differences that do not cancel, and the one branch straddling each bin
edge is clipped at it.  So every row is stochastic to machine precision,
assembly costs O(n sqrt(gamma n)), and the matrix has about 2 n^{3/2}
entries at gamma = 1, in t order within a row (a bin pair reached twice
keeps two entries, and a few are 0).  Assembly holds about 1.9 times the
CSR's bytes at its peak.

The operator applied to a bin table, sum_j v(s/(t+j)) s/(t+j)^2, is one
blocked kernel shared by the invariance residual and the periodization
sums.  The j with t + j < J_s ~ sqrt(s n) are summed term by term; beyond
J_s each bin's run of j is summed at once as a trigamma difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .measures import WORK_BUDGET_BRANCHES, UlamError, _binned

MEMORY_BUDGET_BYTES = 2 << 30
# power iteration stops at this l1 step between iterates, or fails here
POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000
# elements per block of the bin-table sum and of the dense Ulam rows
_BLOCK_ELEMS = 1 << 16
# bytes assembly holds at its peak per entry of the dense rows (slot and
# normalizing mass: 20), per cut of the long branches (slot, merge arrays and
# the length's temporaries: 37) and per element of a row block or bin (the
# digamma temporaries, the O(n) arrays: tracemalloc reads 65), charged with
# slack
_FAR_ENTRY_BYTES = 24
_NEAR_ENTRY_BYTES = 48
_STAGED_BYTES = 80


@dataclass(frozen=True)
class InvariantDensity:
    gamma: float
    edges: np.ndarray   # n_bins + 1 edges on [0, 1]
    values: np.ndarray  # nonnegative density per bin, integral 1

    def __call__(self, t):
        return _binned(self.edges, self.values)(t)


def _digamma_diff(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """psi(x + h) - psi(x) for x >= 1 and 0 < h <= 1, as a sum of positive
    terms: the two digammas agree in most digits once x is large, so their
    difference would cancel.  psi(x + 1) = psi(x) + 1/x carries x to
    max(20, 320 h); there the series about m = x + h/2, h psi'(m) +
    h^3 psi'''(m)/24 + h^5 psi^(5)(m)/1920 (_trigamma's series and its
    derivatives), leaves out less than 1e-17 relative."""
    out = np.zeros(np.broadcast(x, h).shape)
    for _ in range(max(0, int(np.ceil(max(20.0, 320.0 * np.max(h))
                                      - np.min(x))))):
        out += h / (x * (x + h))
        x = x + 1.0
    m = x + 0.5 * h
    r, hr2 = 1.0 / m, (h / m) ** 2
    return out + h * (_trigamma(m) + hr2 * r * (
        (2.0 + r * (3.0 + r * (2.0 + r * r * (r * r * 4.0 / 3.0 - 1.0)))) / 24
        + hr2 * (24.0 + r * (60.0 + r * 60.0)) / 1920))


def _trigamma(x: np.ndarray) -> np.ndarray:
    """psi'(x) for x >= 20 (0 at x = inf) from its asymptotic series
    1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1), cut after B_10; the first
    omitted term is below 1e-16 relative there."""
    r = 1.0 / x
    r2 = r * r
    return r + r2 * (0.5 + r * (1.0 / 6.0 + r2 * (-1.0 / 30.0 + r2 * (
        1.0 / 42.0 + r2 * (-1.0 / 30.0 + r2 * (5.0 / 66.0))))))


def _ulam_matrix(gamma: float, n_bins: int) -> sparse.csr_array:
    """Row-stochastic Ulam matrix for U_gamma on uniform bins of [0, 1)."""
    if n_bins < 2:
        raise UlamError("need at least 2 bins")
    if gamma * n_bins > WORK_BUDGET_BRANCHES:
        raise UlamError(f"gamma * n_bins = {gamma * n_bins:.3g} exceeds the "
                        f"branch work budget {WORK_BUDGET_BRANCHES:.0e}")
    n = n_bins
    edges = np.arange(n + 1) / n
    h = np.diff(edges)
    # branches j >= J are shorter than a bin: gamma/(J(J+1)) < 1/n; those
    # below j_first lie beyond t = 1
    J = int(np.ceil(np.sqrt(gamma * n))) + 1
    j_first = int(np.floor(gamma))
    # q[i] = gamma/e_i: bin i holds the short branches ceil(q[i+1]) ..
    # floor(q[i]) - 1 whole, and branch floor(q[i]) straddles e_i.  Rows
    # 0 .. n_far - 1, up to the one holding gamma/J, are stored densely
    q = np.full(n + 1, np.inf)
    q[1:] = gamma / edges[1:]
    n_far = min(int(np.searchsorted(edges, gamma / J, side="right")), n)
    n_near = max(0, J - j_first)
    peak = (n * (_FAR_ENTRY_BYTES * n_far + _NEAR_ENTRY_BYTES * (n_near + 1))
            + _STAGED_BYTES * max(_BLOCK_ELEMS, n))
    if peak > MEMORY_BUDGET_BYTES:
        raise UlamError(f"n_bins={n_bins} exceeds the memory budget: "
                        f"assembly needs {peak / 2**30:.3g} GiB")

    # long branches j_first <= j < J, ascending in t from gamma/J: branch j's
    # preimages p_k = gamma/(e_k + j), k = n..1, open the runs mapped to bin
    # k - 1; merged with the bin edges, each run between two cuts is one entry
    js = np.arange(max(j_first, 0), J)[::-1]
    pre = (gamma / (edges[None, :0:-1] + js[:, None])).ravel()
    pre = pre[:np.searchsorted(pre, 1.0)]  # ascending; the rest is >= 1
    inner = edges[n_far:]
    at = np.searchsorted(pre, inner, side="right") + np.arange(inner.size)
    is_edge = np.zeros(pre.size + inner.size, dtype=bool)
    is_edge[at] = True
    cuts = np.empty(is_edge.size)
    cuts[at] = inner
    cuts[~is_edge] = pre
    del pre
    # the runs fill their rows' slots in order, the first row's after its
    # dense entries.  A run maps to the bin of its last preimage: with c
    # preimages up to its left cut, number c - 1, so bin n - 1 - (c - 1) % n
    indptr = np.r_[n * np.arange(n_far), n * n_far + at].astype(np.int32)
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], np.int32)
    data[n_far * n:] = n * np.diff(cuts)
    indices[n_far * n:] = -np.cumsum(~is_edge[:-1], dtype=np.int32) % n
    del cuts, is_edge

    # short branches j >= J fill the dense rows, in blocks: whole ones per
    # bin as digamma differences sum_{j=ja}^{jb} [1/(j+e_k) - 1/(j+e_{k+1})].
    # Row i's jb + 1 = floor(q[i]) is row i - 1's ja or one less, so its
    # upper difference is row i - 1's lower one, plus that one branch's term
    ja = np.maximum(J, np.ceil(q[1:n_far + 1]))
    jb1 = np.floor(q[:n_far])
    one = jb1 < np.r_[np.inf, ja[:-1]]
    indices[:n_far * n].reshape(n_far, n)[:] = np.arange(n, dtype=np.int32)
    dense = data[:n_far * n].reshape(n_far, n)
    lower = np.zeros((1, n))  # above row 0, where jb = inf
    step = max(1, _BLOCK_ELEMS // n)
    for r0 in range(0, n_far, step):
        r1, block = min(r0 + step, n_far), dense[r0:r0 + step]
        block[0] = lower[-1]
        lower = _digamma_diff(ja[r0:r1, None] + edges[:-1], h)
        block[1:] = lower[:-1]
        y = jb1[r0:r1, None] + edges[:-1]
        block += one[r0:r1, None] * (h / (y * (y + h)))
        np.subtract(lower, block, out=block)
        block[ja[r0:r1] >= jb1[r0:r1]] = 0.0
        block *= gamma * n
        # the branch straddling edge e_s, split between rows s - 1 and s;
        # where none does, j = inf puts nothing in either
        j = np.floor(q[r0:r1 + 1])
        j[(j < J) | (j >= q[r0:r1 + 1])] = np.inf
        pre, e = gamma / (edges + j[:, None]), edges[r0:r1 + 1, None]
        block -= n * np.diff(np.minimum(pre[1:], e[1:]), axis=1)
        block -= n * np.diff(np.maximum(pre[:-1], e[:-1]), axis=1)
    P = sparse.csr_array((data, indices, indptr), shape=(n, n))
    mass = P.sum(axis=1)
    bad = np.nonzero(np.abs(mass - 1.0) > 1e-10)[0]
    if bad.size:
        raise UlamError(f"branch bookkeeping lost mass in row {bad[0]}")
    P.data /= np.repeat(mass, np.diff(P.indptr))
    return P


def invariant_density(gamma: float, n_bins: int) -> InvariantDensity:
    """Invariant density of U_gamma on n_bins uniform bins: the leading
    left fixed vector of the Ulam matrix, by power iteration."""
    if gamma < 1.0:
        raise UlamError(
            f"gamma = {gamma!r} < 1: x -> gamma/x is an involution of "
            f"[gamma, 1), so U_gamma has no unique invariant density")
    PT = _ulam_matrix(gamma, n_bins).T
    n = n_bins
    v = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(POWER_MAX_ITER):
        w = PT @ v
        w /= np.sum(np.abs(w))
        residual = float(np.sum(np.abs(w - v)))
        v = w
        if residual <= POWER_TOL:
            break
    else:
        raise UlamError(f"power iteration did not reach tol={POWER_TOL:g}; "
                        f"last residual {residual:g}")
    edges = np.arange(n + 1) / n
    values = np.maximum(v, 0.0) * n  # masses -> density
    values /= np.sum(values * np.diff(edges))
    return InvariantDensity(gamma, edges, values)


def _bin_table_sum(edges, values, s: float, t: np.ndarray) -> np.ndarray:
    """sum_{j>=0} v(s/(t+j)) s/(t+j)^2 for t in [0, 1) and the bin table
    v = (edges, values), zero off (edges[0], edges[-1]].

    This is the transfer operator of U_s applied to the table, read on
    (e_m, e_{m+1}] as an image piece reads it.  The j below J = max(20,
    sqrt(s n)) are summed term by term.  Beyond J, bin m takes the run
    s/e_{m+1} <= t + j < s/e_m, which adds v_m s (psi'(t + j_a) - psi'(t +
    j_b + 1)); only the first ~sqrt(s n) bins have such runs."""
    edges = np.asarray(edges, dtype=float)
    values = np.asarray(values)
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.zeros(flat.shape, dtype=np.result_type(values, float))
    if not flat.size:
        return out.reshape(t.shape)
    # index 0 is below the table and n + 1 above it (searchsorted, left)
    table = np.concatenate([[0.0], values, [0.0]])
    top = s / edges[0] if edges[0] > 0.0 else np.inf
    J = max(20, int(np.ceil(np.sqrt(s * values.size))))
    j_hi = int(min(J - 1, np.ceil(top)))
    step = max(1, _BLOCK_ELEMS // flat.size)
    for j0 in range(0, j_hi + 1, step):
        js = np.arange(j0, min(j0 + step, j_hi + 1), dtype=float)
        x = flat[None, :] + js[:, None]
        if j0 == 0:
            # x = 0 is the image of an infinite argument: weight 0, not 0*inf
            x[0, x[0] == 0.0] = np.inf
        u = s / x
        # a block's arguments span few bins: search only those edges
        i0, i1 = np.searchsorted(edges, [u.min(), u.max()], side="left")
        w = table[i0 + np.searchsorted(edges[i0:i1], u, side="left")] * (u / x)
        out += np.sum(w, axis=0)
    # bins reached by some j >= J, and where each one's run of j starts:
    # b[:, m] = ceil(s/e_m - t), at least J
    m_hi = min(int(np.searchsorted(edges, s / J, side="right")), values.size)
    if m_hi:
        with np.errstate(divide="ignore"):
            over = s / edges[:m_hi + 1]
        step = max(1, _BLOCK_ELEMS // (m_hi + 1))
        for k0 in range(0, flat.size, step):
            tt = flat[k0:k0 + step, None]
            b = np.maximum(np.ceil(over[None, :] - tt), J)
            psi1 = _trigamma(tt + b)
            out[k0:k0 + step] += s * ((psi1[:, 1:] - psi1[:, :-1])
                                      @ values[:m_hi])
    return out.reshape(t.shape)


def invariance_residual(density: InvariantDensity, grid_n: int) -> float:
    """Sup-norm residual of rho(t) = sum_{j>=0} rho(gamma/(t+j))
    gamma/(t+j)^2 on a midpoint grid of [0, 1)."""
    t = (np.arange(grid_n) + 0.5) / grid_n
    image = _bin_table_sum(density.edges, density.values, density.gamma, t)
    return float(np.max(np.abs(density(t) - image)))
