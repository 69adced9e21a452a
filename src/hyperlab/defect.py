"""Defect estimation: discretize candidate measures on a graded grid,
assemble exponential-pairing constraint systems for lattice-crosses, and
count near-null singular directions.

Candidate measures are spanned by unit-mass elements with density 1/t per
geometric bin (so coefficients sample t * rho(t) along the grid), plus
two-term asymptotic end elements: {1, t} shapes below t_min and
{1/t^2, 1/t^3} shapes beyond t_max.  These ends match the asymptotics of
every annihilator in the family, so truncation does not pollute the
singular spectrum.  The band [t_min, t_max] is chosen so each bin is
resolved by at least one row family: axis-1 rows e^{i pi alpha j t} see
scales up to ~1/(2 lr), axis-2 rows e^{-i c k / t} see scales down to
~2 gamma lr; outside the joint window the system aliases and the defect
count becomes meaningless.  Grid edges may be anchored at density-jump
locations (t = gamma for the expanded annihilators); the sweep does this
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .measures import LatticeCross, Measure1D, MeasureError, Piece
from .sici import _e2_e3, exp_integral_tail

# largest t_max, and 1/t_min, whose end elements' scale 2 t^2 is finite
MAX_BAND_SCALE = float(np.sqrt(np.finfo(float).max / 2.0))


@dataclass(frozen=True)
class CandidateBasis:
    """Graded geometric grid on [t_min, t_max] (optionally anchored at
    given interior points) with log-uniform unit-mass bin elements plus
    two analytic end elements per side."""

    t_min: float
    t_max: float
    n_bins: int
    m: float = 2.0 * np.pi
    two_branch: bool = False
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

    @property
    def edges(self) -> np.ndarray:
        base = np.geomspace(self.t_min, self.t_max, self.n_bins + 1)
        if not self.anchors:
            return base
        out = np.asarray(sorted(set(base) | set(self.anchors)))
        # drop near-duplicates from anchor insertion
        keep = np.concatenate([[True], np.diff(np.log(out)) > 1e-9])
        return out[keep]

    @property
    def n_interior(self) -> int:
        return len(self.edges) - 1

    @property
    def n_elements(self) -> int:
        per_branch = self.n_interior + 4
        return 2 * per_branch if self.two_branch else per_branch

    def project(self, nu: Measure1D) -> np.ndarray:
        """Coefficients approximating nu: per-bin masses, and end
        coefficients matched by mass and first moment, from 16 midpoint
        samples per bin."""
        edges = self.edges
        u = (np.arange(16) + 0.5) / 16
        nb = self.n_interior
        coeffs = np.empty(self.n_elements, dtype=complex)
        a, b = edges[:-1, None], edges[1:, None]
        t = a * (b / a) ** u
        coeffs[:nb] = np.mean(nu.density_at(t) * t, axis=1) \
            * np.diff(np.log(edges))
        # near end: match mass and first moment of {1, t} shapes
        t = self.t_min * u
        m0 = np.mean(nu.density_at(t)) * self.t_min
        m1 = np.mean(nu.density_at(t) * t) * self.t_min
        # shapes (unit mass): const has moment t_min/2, linear 2 t_min/3
        a_mat = np.array([[1.0, 1.0],
                          [self.t_min / 2.0, 2.0 * self.t_min / 3.0]])
        coeffs[nb], coeffs[nb + 1] = np.linalg.solve(a_mat, [m0, m1])
        # far end: match mass and 1/t moment of {1/t^2, 1/t^3} shapes
        t = self.t_max / u
        m0 = np.mean(nu.density_at(t) * t**2) / self.t_max
        m1 = np.mean(nu.density_at(t) * t) / self.t_max
        a_mat = np.array([[1.0, 1.0],
                          [1.0 / (2.0 * self.t_max),
                           2.0 / (3.0 * self.t_max)]])
        coeffs[nb + 2], coeffs[nb + 3] = np.linalg.solve(a_mat, [m0, m1])
        if self.two_branch:
            refl = Measure1D(pieces=tuple(
                Piece(-p.b, -p.a, lambda s, r=p.density: r(-np.asarray(s)),
                      p.tv_bound) for p in nu.pieces))
            coeffs[nb + 4:] = replace(self, two_branch=False).project(refl)
        return coeffs


@dataclass(frozen=True)
class ConstraintMatrix:
    rows: tuple  # (axis, index, xi1, xi2) descriptors of the index >= 0 rows
    entries: np.ndarray  # real stack of the full system's rows x nElements
    basis: CandidateBasis


def _small_y(y: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> None:
    """Where |y| < 0.1, overwrite f1 = int_0^1 e^{iyu} du and f2 = 2 int_0^1
    u e^{iyu} du, whose closed forms cancel to about eps/|y| and eps/y^2,
    by 12 terms of sum_n (iy)^n/n! (1/(n+1), 2/(n+2))."""
    near, n = np.abs(y) < 0.1, np.arange(12.0)
    terms = (1j * y[near, None]) ** n / np.cumprod(np.maximum(n, 1.0))
    f1[near], f2[near] = terms @ (1.0 / (n + 1.0)), terms @ (2.0 / (n + 2.0))


def _branch_block(out: np.ndarray, basis: CandidateBasis, w: np.ndarray,
                  c: np.ndarray) -> None:
    """Write the pairings of e^{i(w t - c/t)} with the positive-branch
    elements into ``out``, one row per entry of w and c.  The rows lie on
    one axis: all c = 0, or else all w = 0.  Rows at the origin pair to the
    element masses, 1.  The end elements on the row's fast side (beyond
    t_max for w, below t_min for c) are E_2 and 2 E_3 (``sici._e2_e3``);
    those on its slow side are elementary, or ``_small_y`` near 0."""
    edges = basis.edges
    log_w = np.diff(np.log(edges))
    nb = basis.n_interior
    t0, t1 = basis.t_min, basis.t_max
    bins = out[:, :nb]
    if not np.any(c):
        origin = w == 0.0
        w = np.where(origin, 1.0, w)
        vals = exp_integral_tail(w[:, None] * edges)
        np.subtract(vals[:, :-1], vals[:, 1:], out=bins)
        bins /= log_w
        iw0 = 1j * w * t0
        ew0 = np.exp(iw0)
        out[:, nb] = (ew0 - 1.0) / iw0
        # (2/t0^2) int_0^t0 t e^{iwt} dt, elementary
        out[:, nb + 1] = 2.0 * (ew0 * (iw0 - 1.0) + 1.0) / iw0**2
        _small_y(w * t0, out[:, nb], out[:, nb + 1])
        # t1 int_t1^inf e^{iwt}/t^2 and 2 t1^2 int_t1^inf e^{iwt}/t^3
        e2, e3 = _e2_e3(w * t1)
        out[:, nb + 2], out[:, nb + 3] = e2, 2.0 * e3
    else:
        origin = c == 0.0
        c = np.where(origin, 1.0, c)
        # int e^{-i c/t} dt/t over a bin, through u = 1/t
        vals = exp_integral_tail(-c[:, None] / edges)
        np.subtract(vals[:, 1:], vals[:, :-1], out=bins)
        bins /= log_w
        # (1/t0) int_0^t0 e^{-ic/t} dt and (2/t0^2) int_0^t0 t e^{-ic/t} dt,
        # through u = t0/t
        e2, e3 = _e2_e3(-c / t0)
        out[:, nb], out[:, nb + 1] = e2, 2.0 * e3
        z = np.exp(-1j * c / t1)
        out[:, nb + 2] = (1.0 - z) * t1 / (1j * c)
        # 2 t1^2 int_0^{1/t1} u e^{-icu} du, elementary
        out[:, nb + 3] = 2.0 * t1**2 * (
            1.0 - z * (1.0 + 1j * c / t1)) / (1j * c) ** 2
        _small_y(-c / t1, out[:, nb + 2], out[:, nb + 3])
    out[origin] = 1.0


def build_constraint_matrix(basis: CandidateBasis, cross: LatticeCross
                            ) -> ConstraintMatrix:
    """The pairing system of a symmetric cross, as one real matrix.

    The elements are real measures, so the row for index -j of the full
    complex system A is the conjugate of the row for +j.  Only the index
    >= 0 rows R are assembled, in the cross's order, and the entries are
    S = sqrt(2) [Re R; Im R] with the two index-0 rows (real: they pair to
    the element masses) weighted 1/sqrt(2) and their zero imaginary parts
    left out.  Then S^T S = A^H A, S has A's row count, sigma(S) =
    sigma(A), and the right singular vectors of S are real."""
    pts = [p for p in cross.points() if p[1] >= 0]
    half = np.empty((len(pts), basis.n_elements), dtype=complex)
    per = basis.n_interior + 4
    xi = np.array([(x1, x2) for _, _, x1, x2 in pts], dtype=float)
    w = np.pi * xi[:, 0]
    c = basis.m**2 * xi[:, 1] / (4.0 * np.pi)
    # the cross lists its axis-1 points first, then its axis-2 points
    n1 = cross.j_max + 1
    for blk in (slice(0, n1), slice(n1, len(pts))):
        _branch_block(half[blk, :per], basis, w[blk], c[blk])
        if basis.two_branch:
            # reflected branch: t -> -t flips both frequency signs
            _branch_block(half[blk, per:], basis, -w[blk], -c[blk])
    zero = np.array([idx == 0 for _, idx, _, _ in pts])
    scale = np.where(zero, 1.0, np.sqrt(2.0))[:, None]
    entries = np.concatenate([scale * half.real,
                              np.sqrt(2.0) * half[~zero].imag])
    return ConstraintMatrix(tuple(pts), entries, basis)


@dataclass(frozen=True)
class DefectEstimate:
    singular_values: np.ndarray  # descending
    threshold: float
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
    the null vectors."""
    sv, vh = np.linalg.svd(_checked(entries, threshold),
                           full_matrices=False)[1:]
    defect = int(np.sum(sv <= threshold * sv[0]))
    nullvectors = vh[len(sv) - defect:] if defect else \
        np.zeros((0, entries.shape[1]))
    return DefectEstimate(sv, threshold, defect, nullvectors)


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


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    singular_tail: tuple  # smallest six singular values, ascending
    defect: int


def _anchored_spectrum(basis: CandidateBasis, gamma: float, j_max: int,
                       k_max: int, threshold: float):
    """(singular values, descending; numerical defect) at one gamma, on the
    grid anchored at 1 and gamma so the expanded annihilators' density
    jumps fall on bin edges.  Values only: no singular vectors."""
    b = basis.with_anchor(1.0).with_anchor(float(gamma))
    mat = build_constraint_matrix(b, cross_for_gamma(gamma, j_max, k_max))
    sv = np.linalg.svd(_checked(mat.entries, threshold), compute_uv=False)
    return sv, int(np.sum(sv <= threshold * sv[0]))


def sweep_gamma(basis: CandidateBasis, gamma_grid, j_max: int = 40,
                k_max: int = 40, threshold: float = 1e-6):
    """Per-gamma singular tails and defects on the anchored grids."""
    rows = []
    for gamma in gamma_grid:
        if not (np.isfinite(gamma) and gamma > 0):
            raise MeasureError("gamma grid must be positive and finite")
        sv, defect = _anchored_spectrum(basis, gamma, j_max, k_max,
                                        threshold)
        tail = tuple(float(s) for s in np.sort(sv)[:6])
        rows.append(SweepRow(float(gamma), tail, defect))
    return rows


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
    return _null_spectrum(np.exp(-(samples[:, None] - centers[None, :]) ** 2
                                 / (2.0 * 0.12**2)), threshold)
