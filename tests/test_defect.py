import numpy as np
import pytest
from scipy.integrate import quad

from hyperlab import defect as defect_module
from hyperlab.annihilators import critical_annihilator
from hyperlab.defect import (MAX_BAND_SCALE, CandidateBasis,
                             ConstraintMatrix, _branch_block,
                             build_constraint_matrix, cosine_similarity,
                             cross_for_gamma, defect_estimate,
                             distorted_cross_residual, sweep_gamma)
from hyperlab.fourier import LatticeCross
from hyperlab.measures import MeasureError


def row_oracle(basis, w, c):
    """Direct quadrature of the closed-form pairing rows."""
    edges = basis.edges
    out = []

    def pair(a, b, rho):
        # element shapes are real; use QUADPACK's oscillatory weights
        if c != 0.0:
            # u = 1/t keeps the phase linear for the axis-2 rows
            def amp(u):
                return rho(1.0 / u) / u**2

            lo, hi = 1.0 / b, min(1.0 / a, 1e4)
            re, _ = quad(amp, lo, hi, weight="cos", wvar=c, limit=800)
            im, _ = quad(amp, lo, hi, weight="sin", wvar=c, limit=800)
            return complex(re, -im)
        if w != 0.0:
            re, _ = quad(rho, a, b, weight="cos", wvar=w, limit=800)
            im, _ = quad(rho, a, b, weight="sin", wvar=w, limit=800)
            return complex(re, im)
        re, _ = quad(rho, a, b, limit=800)
        return complex(re, 0.0)

    for a, b in zip(edges[:-1], edges[1:]):
        lr = np.log(b / a)
        out.append(pair(a, b, lambda t: 1.0 / (t * lr)))
    t0, t1 = basis.t_min, basis.t_max
    out.append(pair(1e-9, t0, lambda t: 1.0 / t0))
    out.append(pair(1e-9, t0, lambda t: 2.0 * t / t0**2))
    out.append(pair(t1, 1e5, lambda t: t1 / t**2))
    out.append(pair(t1, 1e5, lambda t: 2.0 * t1**2 / t**3))
    return np.array(out)


# the basis spans the positive branch alone: these tests run without a
# reflected branch, under the id [False]
ONE_BRANCH = pytest.mark.parametrize("reflected", [False])


class TestCandidateBasis:
    def test_bad_band_rejected(self):
        with pytest.raises(MeasureError):
            CandidateBasis(1.0, 0.5, 64)

    @pytest.mark.parametrize("t_min, t_max", [
        (0.1, MAX_BAND_SCALE), (1.0 / MAX_BAND_SCALE, 10.0)])
    def test_band_with_overflowing_end_elements_rejected(self, t_min, t_max):
        with pytest.raises(MeasureError, match="overflow"):
            CandidateBasis(t_min, t_max, 64)

    def test_widest_band_has_finite_rows(self):
        basis = CandidateBasis(1.0001 / MAX_BAND_SCALE,
                               0.9999 * MAX_BAND_SCALE, 64)
        mat = build_constraint_matrix(basis, cross_for_gamma(1.0, 8, 8))
        assert np.all(np.isfinite(mat.entries))

    def test_anchor_inserts_edge(self):
        b = CandidateBasis(0.1, 10.0, 64).with_anchor(1.0)
        assert np.any(np.isclose(b.edges, 1.0))

    def test_edges_computed_once_and_read_only(self):
        b = CandidateBasis(0.1, 10.0, 64).with_anchor(1.0)
        assert b.edges is b.edges
        with pytest.raises(ValueError):
            b.edges[0] = 0.2

    def test_anchor_outside_band_ignored(self):
        b = CandidateBasis(0.1, 10.0, 64).with_anchor(50.0)
        assert b.anchors == ()

    def test_element_count(self):
        # the bins and two end elements per side, on the positive branch
        assert CandidateBasis(0.1, 10.0, 64).n_elements == 64 + 4

    @ONE_BRANCH
    def test_project_matches_per_bin_loop(self, reflected):
        # one density_at call over all bins: the same arithmetic as a loop
        # over the bins, so the bin coefficients are equal, not just close
        nu = critical_annihilator()
        basis = CandidateBasis(0.08, 12.5, 202).with_anchor(1.0)
        edges = basis.edges
        u = (np.arange(16) + 0.5) / 16
        want = []
        for a, b, lw in zip(edges[:-1], edges[1:], np.diff(np.log(edges))):
            t = a * (b / a) ** u
            want.append(np.mean(nu.density_at(t) * t) * lw)
        got = basis.project(nu)[:basis.n_interior]
        assert np.array_equal(got, want)


def small_system(w, c, reach=1):
    """Anchored basis and its matrix on the symmetric cross whose rows pair
    at frequencies (+-n w, 0), (0, +-n c) for n <= reach and twice (0, 0)."""
    basis = CandidateBasis(0.1, 10.0, 16).with_anchor(1.0).with_anchor(0.8)
    alpha = abs(w) / np.pi if w else 1.0
    beta = abs(c) / np.pi if c else 1.0
    cross = LatticeCross(alpha, beta, reach, reach)
    return basis, cross, build_constraint_matrix(basis, cross)


def frequencies(rows):
    """(w, c) of each cross-point descriptor: the row pairs e^{i(wt - c/t)},
    w = pi xi1 and c = pi xi2 at m = 2 pi."""
    xi = np.array([(x1, x2) for _, _, x1, x2 in rows], dtype=float)
    return np.pi * xi[:, 0], np.pi * xi[:, 1]


def complex_rows(mat, pts):
    """The index >= 0 rows R, at the cross points pts, read back from the
    real stack sqrt(2) [Re R; Im R] (index-0 rows weighted 1/sqrt(2), no Im
    rows)."""
    n = len(pts)
    zero = np.array([idx == 0 for _, idx, _, _ in pts])
    rows = mat.entries[:n] / np.where(zero, 1.0, np.sqrt(2.0))[:, None] \
        + 0j
    rows[~zero] += 1j * mat.entries[n:] / np.sqrt(2.0)
    return rows


def full_system(basis, cross):
    """The full complex system: every cross point, both index signs, each
    axis assembled by ``_branch_block`` at its own frequencies."""
    pts = cross.points()
    w, c = frequencies(pts)
    re, im = np.empty((2, len(pts), basis.n_elements))
    n1 = sum(axis == 1 for axis, *_ in pts)
    for blk in (slice(0, n1), slice(n1, len(pts))):
        _branch_block(re[blk], im[blk], basis, w[blk], c[blk])
    return re + 1j * im


# E_2(y) and 2 E_3(y), the four fast-side end columns of _branch_block, on
# CandidateBasis(0.08, 12.5, 202) at the rows (axis, n) of
# cross_for_gamma(1.5, 640, 640): y = w t_max at the far end of the axis-1
# rows, y = -c / t_min at the near end of the axis-2 rows.  30 digits from
# an arbitrary-precision E_p(y) = integral_1^inf e^{iyu} u^{-p} du; the
# index -n row is the conjugate of the index n row.
END_COLUMNS = {
    (1, 1): (-3.23600085816140960849770599254e-4
             - 1.27200507421428114491192363159e-2j,
             -9.69550879868647604854417627748e-4
             - 2.54154913075258686055571362078e-2j),
    (1, 10): (3.24221480552942822988440795986e-6
              + 1.27322716054745566675242754072e-3j,
              9.72651828036460147021267163398e-6
              + 2.54642955352247354605275263829e-3j),
    (1, 100): (3.24227724735914061219052443061e-8
               + 1.27323942088931059723337484528e-4j,
               9.72683047904877430522206602138e-8
               + 2.54647859408699732508129799655e-4j),
    (1, 640): (7.91571845756344799990541488014e-10
               + 1.9894367839243456667299324763e-5j,
               2.37471542743990838109874721184e-9
               + 3.97887355839999934749086208557e-5j),
    (2, 1): (8.48459939553718236318239278133e-3
             + 1.4397691618177309067364966035e-4j,
             1.69618808311125715194118981631e-2
             + 4.31682637299586972302603798102e-4j),
    (2, 10): (-1.44099993080302816215601886939e-6
              + 8.4882269370173380895108894452e-4j,
              -4.32297487523169915353387817431e-6
              + 1.69763804859913471493664938968e-3j),
    (2, 100): (1.44101226653491441266025068153e-8
               - 8.48826326461701221453647406197e-5j,
               4.32303654887687111455656611584e-8
               - 1.69765257953326521321951071989e-4j),
    (2, 640): (3.51809718742067151168446295213e-10
               - 1.3262911910326548826363277035e-5j,
               1.05542910068105744212748708086e-9
               - 2.65258237926569727757991050751e-5j),
}

# int_0^1 e^{iyu} du and 2 int_0^1 u e^{iyu} du, the slow-side end columns
# of _branch_block ({1, t} on axis 1, {1/t^2, 1/t^3} on axis 2), on
# CandidateBasis(1e-6, 1e4, 16) at the index-1 rows of cross_for_gamma(0.6,
# 1, 1): y = w t_min = 2 pi 1e-6 on axis 1, y = -c / t_max = -1.2 pi 1e-4
# on axis 2.  30 digits from arbitrary-precision quadrature at those y.
SLOW_END_COLUMNS = {
    1: (0.999999999993420263732620083535
        + 3.14159265357945747806977659707e-6j,
        0.99999999999013039559893228995
        + 4.18879020476985385727701399424e-6j),
    2: (0.999999976312949605708447566183
        - 1.88495556982935685835101562616e-4j,
        0.999999964469424436616489424672
        - 2.51327408715260406214013241563e-4j),
}


class TestBranchRow:
    @pytest.mark.parametrize("w,c", [(0.0, 0.0), (3.0, 0.0), (-2.0, 0.0),
                                     (0.0, 4.0), (0.0, -1.5)])
    def test_against_quadrature_oracle(self, w, c):
        # the index -n row, which is not assembled, is the conjugate of the
        # index +n row
        basis, cross, mat = small_system(w, c)
        pts = [p for p in cross.points() if p[1] >= 0]
        rw, rc = frequencies(pts)
        for row, fw, fc in zip(complex_rows(mat, pts), rw, rc):
            oracle = row_oracle(basis, fw, fc)
            assert np.max(np.abs(row - oracle)) <= 1e-4
            oracle = row_oracle(basis, -fw, -fc)
            assert np.max(np.abs(np.conj(row) - oracle)) <= 1e-4

    def test_zero_row_is_masses(self):
        _, cross, mat = small_system(3.0, 4.0)
        pts = [p for p in cross.points() if p[1] >= 0]
        origin = [r for r, (_, idx, _, _) in enumerate(pts) if idx == 0]
        assert len(origin) == 2
        assert np.allclose(mat.entries[origin], 1.0)


    def test_end_columns_pinned(self):
        # |y| reaches 7.5e4: a recurrence from E_1 cancels there
        basis = CandidateBasis(0.08, 12.5, 202)
        nb = basis.n_interior
        pts = [p for p in cross_for_gamma(1.5, 640, 640).points()
               if (p[0], abs(p[1])) in END_COLUMNS]
        w, c = frequencies(pts)
        for axis, cols in ((1, [nb + 2, nb + 3]), (2, [nb, nb + 1])):
            sel = [i for i, p in enumerate(pts) if p[0] == axis]
            re, im = np.empty((2, len(sel), nb + 4))
            _branch_block(re, im, basis, w[sel], c[sel])
            out = re + 1j * im
            for row, i in zip(out, sel):
                idx = pts[i][1]
                pin = np.array(END_COLUMNS[axis, abs(idx)])
                pin = pin if idx > 0 else np.conj(pin)
                assert np.all(np.abs(row[cols] - pin) <= 1e-10 * np.abs(pin))

    def test_slow_end_columns_pinned(self):
        # |y| is 6.3e-6 and 3.8e-4: the closed forms cancel to eps/|y| and
        # eps/y^2 there
        basis = CandidateBasis(1e-6, 1e4, 16)
        nb = basis.n_interior
        pts = [p for p in cross_for_gamma(0.6, 1, 1).points() if p[1] == 1]
        w, c = frequencies(pts)
        for i, (axis, cols) in enumerate(((1, [nb, nb + 1]),
                                          (2, [nb + 2, nb + 3]))):
            re, im = np.empty((2, 1, nb + 4))
            _branch_block(re, im, basis, w[i:i + 1], c[i:i + 1])
            out = re + 1j * im
            pin = np.array(SLOW_END_COLUMNS[axis])
            assert np.all(np.abs(out[0, cols] - pin) <= 1e-10 * np.abs(pin))

class TestRealSystem:
    @ONE_BRANCH
    def test_spectrum_of_the_full_system(self, reflected):
        basis, cross, mat = small_system(3.0, 4.0, reach=12)
        a = full_system(basis, cross)
        assert mat.entries.shape == a.shape
        assert mat.entries.dtype == np.float64
        sv = np.linalg.svd(a, compute_uv=False)
        est = defect_estimate(mat, 0.05)
        assert np.max(np.abs(est.singular_values - sv)) <= 1e-13 * sv[0]

    @ONE_BRANCH
    def test_real_null_vectors(self, reflected):
        basis, cross, mat = small_system(3.0, 4.0, reach=12)
        vh = np.linalg.svd(full_system(basis, cross))[2]
        est = defect_estimate(mat, 0.05)
        assert est.numerical_defect >= 1
        assert est.nullvectors.dtype == np.float64
        for v, ref in zip(est.nullvectors, vh[-est.numerical_defect:]):
            assert cosine_similarity(v, ref) >= 1.0 - 1e-12


class TestDefectEstimate:
    def test_zero_matrix_full_defect(self):
        basis = CandidateBasis(0.1, 10.0, 16)
        mat = ConstraintMatrix(np.zeros((40, basis.n_elements)))
        est = defect_estimate(mat, 0.5)
        assert est.numerical_defect == basis.n_elements

    def test_underdetermined_rejected(self):
        basis = CandidateBasis(0.1, 10.0, 64)
        mat = ConstraintMatrix(np.zeros((10, basis.n_elements)))
        with pytest.raises(MeasureError):
            defect_estimate(mat, 0.5)

    def test_bad_threshold_rejected(self):
        basis = CandidateBasis(0.1, 10.0, 16)
        mat = ConstraintMatrix(np.zeros((40, basis.n_elements)))
        with pytest.raises(MeasureError):
            defect_estimate(mat, 2.0)


class TestGammaOnePoint:
    @pytest.fixture(scope="class")
    def system(self):
        basis = CandidateBasis(0.08, 12.5, 202).with_anchor(1.0)
        mat = build_constraint_matrix(basis, cross_for_gamma(1.0, 640, 640))
        return basis, mat

    def test_defect_is_one(self, system):
        _, mat = system
        est = defect_estimate(mat, 1e-2)
        assert est.numerical_defect == 1

    def test_nullvector_is_the_critical_annihilator(self, system):
        basis, mat = system
        est = defect_estimate(mat, 1e-2)
        proj = basis.project(critical_annihilator())
        assert cosine_similarity(est.nullvectors[0], proj) >= 0.99

    def test_projected_annihilator_nearly_annihilates(self, system):
        basis, mat = system
        proj = basis.project(critical_annihilator())
        rel = np.linalg.norm(mat.entries @ proj) / np.linalg.norm(proj)
        assert rel <= 0.05

    def test_gamma_08_well_separated(self, system):
        basis, mat = system
        sv1 = np.linalg.svd(mat.entries, compute_uv=False)
        mat08 = build_constraint_matrix(
            CandidateBasis(0.08, 12.5, 202).with_anchor(1.0),
            cross_for_gamma(0.8, 640, 640))
        est08 = defect_estimate(mat08, 1e-2)
        assert est08.numerical_defect == 0
        # the gamma=0.8 system has no comparably small singular value
        assert np.min(est08.singular_values) >= 3.0 * sv1[-1]


class TestSweep:
    def test_phase_transition_pattern(self):
        basis = CandidateBasis(0.08, 12.5, 202)
        _, defects = sweep_gamma(basis, [0.8, 1.0, 1.2], j_max=640,
                                 k_max=640, threshold=1e-2)
        assert defects.tolist()[:2] == [0, 1]
        assert defects[2] >= 1

    def test_gamma_grid_validated(self):
        for gamma in (-1.0, np.nan, np.inf):
            with pytest.raises(MeasureError):
                sweep_gamma(CandidateBasis(0.08, 12.5, 32), [gamma])

    def test_shared_table_matches_each_gamma_alone(self):
        # one axis-1 E table serves the whole grid: a repeated gamma, one
        # past the band, and one on its lower edge each read the bits of
        # their own matrix's values-only SVD
        basis = CandidateBasis(0.08, 12.5, 24)
        grid = [1.0, 1.0, 1.2, 20.0, basis.t_min]
        tails, defects = sweep_gamma(basis, grid, 12, 10, 1e-2)
        for gamma, tail, defect in zip(grid, tails, defects):
            b = basis.with_anchor(1.0).with_anchor(gamma)
            mat = build_constraint_matrix(b, cross_for_gamma(gamma, 12, 10))
            sv = np.linalg.svd(mat.entries, compute_uv=False)
            assert np.array_equal(tail, np.sort(sv)[:6])
            assert defect == np.sum(sv <= 1e-2 * sv[0])

    def test_whole_grid_validated_first(self, monkeypatch):
        # a bad gamma anywhere in the grid is refused before any assembly
        def never(*args):
            raise AssertionError("assembled before the grid was checked")
        monkeypatch.setattr(defect_module, "build_constraint_matrix", never)
        with pytest.raises(MeasureError, match="gamma grid"):
            sweep_gamma(CandidateBasis(0.08, 12.5, 32), [1.0, 1.2, -1.0])

    def test_bad_threshold_rejected(self):
        with pytest.raises(MeasureError, match="threshold"):
            sweep_gamma(CandidateBasis(0.08, 12.5, 32), [1.0], threshold=2.0)

    def test_truncation_stable_at_gamma_one(self):
        # doubling the cross keeps the one null direction, and moves the
        # smallest singular value by less than 5%
        basis = CandidateBasis(0.08, 12.5, 202)
        (base, base_d), (doubled, doubled_d) = (
            sweep_gamma(basis, [1.0], n, n, 1e-2) for n in (640, 1280))
        assert base_d[0] == doubled_d[0] == 1
        s, s2 = base[0, 0], doubled[0, 0]
        assert abs(s2 - s) < 0.05 * s


class TestDistortedCross:
    def test_three_point_pattern(self):
        defects = [distorted_cross_residual(xi0).numerical_defect
                   for xi0 in ((0.0, 0.0), (-1.0, 0.0), (1.0, 0.0))]
        assert defects[0] == 0
        assert defects[1] == 0
        assert defects[2] >= 1

    def test_axis2_shift_rejected(self):
        with pytest.raises(MeasureError):
            distorted_cross_residual((1.0, 0.5))
