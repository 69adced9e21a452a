"""Defect estimation: discretize candidate measures on a graded grid,
assemble exponential-pairing constraint systems for lattice-crosses, and
count near-null singular directions.

Candidate measures live on the positive branch at m = 2 pi, where the
cross point (xi1, xi2) pairs e^{i(pi xi1 t - pi xi2 / t)}.  They are
spanned by unit-mass elements with density 1/t per geometric bin (so
coefficients sample t * rho(t) along the grid), plus two-term asymptotic
end elements: {1, t} shapes below t_min and {1/t^2, 1/t^3} shapes beyond
t_max.  These ends match the asymptotics of every annihilator in the
family, so truncation does not pollute the singular spectrum.  Under
u = 1/t the basis maps onto the basis on the reciprocal edges, each end
onto the other, so one axis-1 kernel also writes the axis-2 rows, and one
near-end rule also gives the far-end coefficients.  The band [t_min,
t_max] is chosen so each bin is resolved by at least one row family:
axis-1 rows e^{i pi alpha j t} see scales up to ~1/(2 lr), axis-2 rows
e^{-i c k / t} see scales down to ~2 gamma lr; outside the joint window
the system aliases and the defect count becomes meaningless.  Grid edges
may be anchored at density-jump locations (t = gamma for the expanded
annihilators); the sweep does this automatically.

The work is done once where it can be.  The real stack is written in
place: each bin's real and imaginary parts are differences of the two
real arrays (Re E, Im E) (``sici.exp_integral_parts``), written straight
into their rows, with no complex intermediate.  The sweep's crosses all
have alpha = 2, so their axis-1 rows pair the same frequencies: one axis-1
E table on the union of the gammas' edges serves the whole grid, and each
gamma reads its own columns.  Null vectors come from the SVD of the n x n
factor R of a QR of the stack, which has the stack's singular values and
right singular vectors without its tall left factor.  The sweep needs no
null vectors, only each spectrum's count and bottom six values: it reads
them off one eigensolve of the n x n Gram matrix S^T S, with a Rayleigh
step that takes the six back to within rounding of the SVD's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .measures import LatticeCross, Measure1D, MeasureError, \
    _reciprocal_density
from .sici import exp_integral, exp_integral_parts

# largest t_max, and 1/t_min, whose end elements' scale 2 t^2 is finite
MAX_BAND_SCALE = float(np.sqrt(np.finfo(float).max / 2.0))

# midpoints of 16 equal cells of [0, 1]: the sample points of ``project``
_MID = (np.arange(16) + 0.5) / 16


@dataclass(frozen=True)
class CandidateBasis:
    """Graded geometric grid on [t_min, t_max] (optionally anchored at
    given interior points) with log-uniform unit-mass bin elements plus
    two analytic end elements per side."""

    t_min: float
    t_max: float
    n_bins: int
    anchors: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max:
            raise MeasureError("need 0 < t_min < t_max")
        if not (self.t_max < MAX_BAND_SCALE
                and self.t_min * MAX_BAND_SCALE > 1.0):
            raise MeasureError(f"the end elements scale as 2 t_max^2 and "
                               f"2 / t_min^2, which overflow unless "
                               f"{1.0 / MAX_BAND_SCALE:.3g} < t_min and "
                               f"t_max < {MAX_BAND_SCALE:.3g}")
        if self.n_bins < 8:
            raise MeasureError("basis too small to be meaningful")
        for a in self.anchors:
            if not self.t_min < a < self.t_max:
                raise MeasureError("anchors must lie inside the band")

    def with_anchor(self, t: float) -> "CandidateBasis":
        if not self.t_min < t < self.t_max:
            return self
        return replace(self, anchors=tuple(sorted(set(self.anchors) | {t})))

    @cached_property
    def edges(self) -> np.ndarray:
        """The grid, computed once per basis and read-only."""
        out = np.geomspace(self.t_min, self.t_max, self.n_bins + 1)
        if self.anchors:
            out = np.asarray(sorted(set(out) | set(self.anchors)))
            # drop near-duplicates from anchor insertion
            out = out[np.concatenate([[True], np.diff(np.log(out)) > 1e-9])]
        out.flags.writeable = False
        return out

    @property
    def n_interior(self) -> int:
        return len(self.edges) - 1

    @property
    def n_elements(self) -> int:
        return self.n_interior + 4

    def project(self, nu: Measure1D) -> np.ndarray:
        """Coefficients approximating nu: per-bin masses, and end
        coefficients matched by mass and first moment, from 16 midpoint
        samples per bin; far-end ones from the image of nu under u = 1/t."""
        edges = self.edges
        nb = self.n_interior
        coeffs = np.empty(self.n_elements, dtype=complex)
        a, b = edges[:-1, None], edges[1:, None]
        t = a * (b / a) ** _MID
        coeffs[:nb] = np.mean(nu.density_at(t) * t, axis=1) \
            * np.diff(np.log(edges))
        coeffs[nb:nb + 2] = _near_end(nu.density_at, self.t_min)
        coeffs[nb + 2:] = _near_end(
            _reciprocal_density(nu.density_at, 1.0, 0.0), 1.0 / self.t_max)
        return coeffs


def _near_end(density, t0: float) -> np.ndarray:
    """Coefficients of the unit-mass {1, t} shapes on [0, t0] that match
    the mass and first moment of ``density`` there: the shapes' moments
    are t0/2 and 2 t0/3."""
    t = t0 * _MID
    rho = density(t)
    m0 = np.mean(rho) * t0
    m1 = np.mean(rho * t) * t0
    return np.linalg.solve([[1.0, 1.0], [t0 / 2.0, 2.0 * t0 / 3.0]],
                           [m0, m1])


@dataclass(frozen=True)
class ConstraintMatrix:
    entries: np.ndarray  # real stack of the full system's rows x nElements


def _small_y(y: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> None:
    """Where |y| < 0.1, overwrite f1 = int_0^1 e^{iyu} du and f2 = 2 int_0^1
    u e^{iyu} du, whose closed forms cancel to about eps/|y| and eps/y^2,
    by 12 terms of sum_n (iy)^n/n! (1/(n+1), 2/(n+2))."""
    near, n = np.abs(y) < 0.1, np.arange(12.0)
    terms = (1j * y[near, None]) ** n / np.cumprod(np.maximum(n, 1.0))
    f1[near], f2[near] = terms @ (1.0 / (n + 1.0)), terms @ (2.0 / (n + 2.0))


def _e_table(w: np.ndarray, edges: np.ndarray):
    """(Re E, Im E) at w_i edges_j, rows i and columns j: the table whose
    column differences are the bins' pairings at w."""
    return exp_integral_parts(w[:, None] * edges)


def _branch_block(re: np.ndarray, im: np.ndarray, basis: CandidateBasis,
                  w: np.ndarray, c: np.ndarray, e=None) -> None:
    """Write the pairings of e^{i(w t - c/t)} with the basis elements, their
    real parts into ``re`` and their imaginary parts into ``im``, one row
    per entry of w and c.  The rows lie on one axis: all c = 0, or else all
    w = 0.  Rows at the origin pair to the element masses, 1.  An axis-1
    row pairs the bins through E (``_e_table``, or the table ``e`` if one
    is given), the near-end {1, t} shapes in elementary form, or
    ``_small_y`` near 0, and the far-end shapes as E_2 and 2 E_3
    (``sici.exp_integral``).  An axis-2 row is the axis-1 row at w = -c of
    the reciprocal basis (u = 1/t): its edges are 1/edges reversed, its
    bins are the basis's bins reversed, and its near-end and far-end shapes
    are the basis's far-end and near-end ones."""
    edges, nb = basis.edges, basis.n_interior
    bins, near, far = slice(nb), (nb, nb + 1), (nb + 2, nb + 3)
    if np.any(c):
        edges, w = 1.0 / edges[::-1], -c
        bins, near, far = slice(nb - 1, None, -1), far, near
    origin = w == 0.0
    w = np.where(origin, 1.0, w)
    # times the reciprocal of the log widths, not divided by them: numpy
    # divides a complex array by a real one so, and these are its bits
    inv_width = 1.0 / np.diff(np.log(edges))
    for out, val in zip((re, im), _e_table(w, edges) if e is None else e):
        np.subtract(val[:, :-1], val[:, 1:], out=out[:, bins])
        out[:, bins] *= inv_width
    # (1/t0) int_0^t0 e^{iwt} dt and (2/t0^2) int_0^t0 t e^{iwt} dt: past
    # |y| ~ 1e154 f2 reads its limit 0, and below 1e-154 _small_y's series
    iy = 1j * w * edges[0]
    ey = np.exp(iy)
    with np.errstate(all="ignore"):
        f1 = (ey - 1.0) / iy
        f2 = 2.0 * (ey * (iy - 1.0) + 1.0) / iy**2
    _small_y(w * edges[0], f1, f2)
    # t1 int_t1^inf e^{iwt}/t^2 and 2 t1^2 int_t1^inf e^{iwt}/t^3
    e2, e3 = (exp_integral(p, w * edges[-1]) for p in (2, 3))
    for col, val in zip(near + far, (f1, f2, e2, 2.0 * e3)):
        re[:, col], im[:, col] = val.real, val.imag
    re[origin], im[origin] = 1.0, 0.0


def _half_cross(cross: LatticeCross) -> np.ndarray:
    """pi (xi1, xi2) at the index >= 0 points of the cross, in its order
    (axis 1, then axis 2, each from its index-0 point up): the (w, c) of
    the row that pairs e^{i(w t - c/t)}."""
    return np.pi * np.array([(x1, x2) for _, idx, x1, x2 in cross.points()
                             if idx >= 0], dtype=float)


def build_constraint_matrix(basis: CandidateBasis, cross: LatticeCross,
                            e1=None) -> ConstraintMatrix:
    """The pairing system of a symmetric cross, as one real matrix.

    The elements are real measures, so the row for index -j of the full
    complex system A is the conjugate of the row for +j.  Only the index
    >= 0 rows R are assembled, in the cross's order, and the entries are
    S = sqrt(2) [Re R; Im R] with the two index-0 rows (real: they pair to
    the element masses) weighted 1/sqrt(2) and their zero imaginary parts
    left out.  Then S^T S = A^H A, S has A's row count, sigma(S) =
    sigma(A), and the right singular vectors of S are real.  S is written
    in place, real and imaginary parts straight into their rows.  ``e1``,
    if given, is the E table (Re, Im) of the axis-1 rows j = 1..j_max at
    basis.edges (``_e_table``)."""
    xi = _half_cross(cross)
    # each axis opens with its index-0 row; the other rows write their real
    # parts in place and their imaginary parts, in the same order, below
    n, n1 = len(xi), cross.j_max + 1
    entries = np.empty((2 * n - 2, basis.n_elements))
    _branch_block(entries[1:n1], entries[n:n + n1 - 1], basis,
                  xi[1:n1, 0], xi[1:n1, 1], e1)
    _branch_block(entries[n1 + 1:n], entries[n + n1 - 1:], basis,
                  xi[n1 + 1:, 0], xi[n1 + 1:, 1])
    entries *= np.sqrt(2.0)
    entries[[0, n1]] = 1.0
    return ConstraintMatrix(entries)


@dataclass(frozen=True)
class DefectEstimate:
    singular_values: np.ndarray  # descending
    numerical_defect: int
    nullvectors: np.ndarray  # numerical_defect x nElements


def _checked(entries: np.ndarray, threshold: float) -> np.ndarray:
    """``entries``, once defect counting can read it: the threshold lies
    in (0, 1) and there are at least as many rows as elements."""
    if not 0.0 < threshold < 1.0:
        raise MeasureError("threshold must lie in (0, 1)")
    if entries.shape[0] < entries.shape[1]:
        raise MeasureError("underdetermined system: defect counting needs "
                           "at least as many rows as elements")
    return entries


def _null_spectrum(entries: np.ndarray, threshold: float) -> DefectEstimate:
    """SVD of a pairing system; the numerical defect counts singular
    values <= threshold * sigma_max, and their right singular vectors are
    the null vectors.  The SVD is that of the n x n factor R of entries =
    QR, which has the same singular values and right singular vectors, so
    the tall left factor is never formed."""
    r = np.linalg.qr(_checked(entries, threshold), mode="r")
    sv, vh = np.linalg.svd(r)[1:]
    defect = int(np.sum(sv <= threshold * sv[0]))
    return DefectEstimate(sv, defect, vh[len(sv) - defect:])


def defect_estimate(mat: ConstraintMatrix,
                    threshold: float = 1e-6) -> DefectEstimate:
    """Numerical defect of a constraint matrix (see ``_null_spectrum``);
    the null vectors of a built matrix are real."""
    return _null_spectrum(mat.entries, threshold)


def cross_for_gamma(gamma: float, j_max: int = 40, k_max: int = 40
                    ) -> LatticeCross:
    """The normalized cross alpha = 2, beta = 2 gamma (m = 2 pi), whose
    rows pair e^{i 2 pi j t} and e^{-i 2 pi gamma k / t}."""
    return LatticeCross(2.0, 2.0 * gamma, j_max, k_max)


def sweep_gamma(basis: CandidateBasis, gamma_grid, j_max: int = 40,
                k_max: int = 40, threshold: float = 1e-6):
    """(tails, defects): an n_gamma x 6 array of each gamma's six smallest
    singular values, ascending, and the n_gamma numerical defects.  Each
    gamma's grid is anchored at 1 and gamma, so the expanded annihilators'
    density jumps fall on bin edges.

    Every gamma's cross has alpha = 2, so its axis-1 rows pair the same w.
    E is elementwise, so their E table is evaluated once, on the union of
    the grids' edges (the base edges, 1 and each gamma), and each gamma
    reads its own columns: the same bits as its own table.

    Each spectrum is one eigensolve of the n x n Gram matrix G = S^T S of
    the stack S (Golub and Van Loan, Matrix Computations, 5.3).  The
    defect counts eigenvalues lambda_i <= threshold^2 lambda_max; the
    tails are ||S v_i|| over the eigenvectors of the six smallest, a
    Rayleigh step that puts them within about eps sigma_max of the SVD's.
    Forming G moves its eigenvalues by at most about rows eps trace(G)
    (rows eps |S|^T |S| entrywise, Higham, Accuracy and Stability, 3.5,
    whose norm ||S||_F^2 = trace(G) bounds; then Weyl), and eigh's backward
    error, about n eps lambda_max with n <= rows, by no more again: a
    count with an eigenvalue within twice that of the cut would be decided
    by rounding, and is refused with ``MeasureError``."""
    gamma_grid = [float(g) for g in gamma_grid]
    for gamma in gamma_grid:
        # gamma > 0, and a finite largest axis-2 phase, as its row computes it
        if not (gamma > 0 and np.isfinite(np.pi * (2.0 * gamma * k_max)
                                          * (1.0 / basis.t_min))):
            raise MeasureError(f"gamma grid holds {gamma:g}: need gamma > 0 "
                               f"and a finite 2 pi gamma k_max / t_min")
    bases = [basis.with_anchor(1.0).with_anchor(g) for g in gamma_grid]
    crosses = [cross_for_gamma(g, j_max, k_max) for g in gamma_grid]
    if bases:
        cols = np.unique(np.concatenate([b.edges for b in bases]))
        table = _e_table(_half_cross(crosses[0])[1:j_max + 1, 0], cols)
    tails, defects = [], []
    for gamma, b, cross in zip(gamma_grid, bases, crosses):
        idx = np.searchsorted(cols, b.edges)
        s = _checked(build_constraint_matrix(
            b, cross, [t[:, idx] for t in table]).entries, threshold)
        gram = s.T @ s
        lam, vec = np.linalg.eigh(gram)
        cut = threshold * threshold * lam[-1]
        if np.any(np.abs(lam - cut)
                  <= 2.0 * len(s) * np.finfo(float).eps * np.trace(gram)):
            raise MeasureError(f"gamma {gamma:g}: an eigenvalue of S^T S "
                               f"lies within rounding of threshold^2 "
                               f"lambda_max at threshold {threshold:g}, so "
                               f"rounding would decide the defect count")
        tails.append(np.sort(np.linalg.norm(s @ vec[:, :6], axis=0)))
        defects.append(int(np.sum(lam <= cut)))
    return np.reshape(tails, (-1, 6)), np.array(defects, dtype=int)


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x).ravel()
    y = np.asarray(y).ravel()
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(abs(np.vdot(x, y)) / (nx * ny))


# ---------------------------------------------------------------------------
# distorted cross (slanted lattice-waist proxy)

def distorted_cross_residual(xi0, threshold: float = 1e-3
                             ) -> DefectEstimate:
    """Spectral-window test for the distorted cross.

    Candidates are 11 Gaussian spectral atoms of width 0.12 with centers
    on [-2, 3]; rows sample their transforms on S = {j/2 : -40 <= j <= 0}
    union {j/2 + xi0_1 : 0 <= j <= 40} (the xi0-shifted half-cross on the
    spectral side).  A shift with min(xi0) > 0 opens a window (0, xi0_1)
    unreachable by S, producing a near-null atom combination; any shift
    with min(xi0) <= 0 leaves no gap and the system stays well
    conditioned.  This is a modeling proxy for the ACH class, not a
    discretization of it.
    """
    xi1 = float(xi0[0])
    if abs(float(xi0[1])) > 1e-12:
        raise MeasureError("the proxy models axis-1 shifts only")
    left = 0.5 * np.arange(-40, 1)
    right = 0.5 * np.arange(0, 41) + xi1
    samples = np.concatenate([left, right])
    centers = np.linspace(-2.0, 3.0, 11)
    # past |xi1| ~ 1.3e154 the squares overflow to inf: those rows read 0
    with np.errstate(over="ignore"):
        rows = np.exp(-(samples[:, None] - centers[None, :]) ** 2
                      / (2.0 * 0.12**2))
    return _null_spectrum(rows, threshold)
