import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import polygamma

from hyperlab import transfer
from hyperlab.cli import main
from hyperlab.measures import piece_from_family
from hyperlab.transfer import (InvariantDensity, UlamError, _bin_table_sum,
                               _ulam_matrix, invariance_residual,
                               invariant_density)
from measure_helpers import run_child

LOG2 = np.log(2.0)


def gauss_density(t):
    """Closed-form invariant density of U_1: 1 / ((1 + t) log 2)."""
    return 1.0 / ((1.0 + np.asarray(t)) * LOG2)


def reference_ulam(gamma, n_bins):
    """Dense per-row reference assembler: every branch overlapping a bin is
    clipped to it, one branch at a time, and the branches accumulating at
    0 are summed in row 0 as digamma differences.  O(gamma n^2) work, so
    for n_bins <= 1024 only."""
    edges = np.arange(n_bins + 1) / n_bins
    P = np.zeros((n_bins, n_bins))
    for i in range(n_bins):
        a, b = edges[i], edges[i + 1]
        width = b - a
        row = P[i]
        j_lo = 0 if (gamma < b) else int(np.floor(gamma / b))
        j_hi_t = gamma / a if a > 0.0 else np.inf
        j_full = int(np.ceil(gamma / b)) if a == 0.0 else None
        j_hi = (j_full - 1) if a == 0.0 else int(np.ceil(j_hi_t))
        for j in range(max(j_lo, 0), j_hi + 1):
            t_hi = gamma / j if j >= 1 else 1.0
            t_lo = gamma / (j + 1)
            t1, t2 = max(t_lo, a), min(t_hi, b)
            if t1 >= t2:
                continue
            t_edges = gamma / (edges + j) if j >= 1 else \
                np.concatenate([[np.inf], gamma / (edges[1:] + j)])
            t_edges = np.clip(t_edges, t1, t2)
            row += (t_edges[:-1] - t_edges[1:]) / width
        if j_full is not None:
            start = max(j_full, 1)
            row += gamma * transfer._digamma_diff(start + edges[:-1],
                                                  np.diff(edges)) / width
    return P / P.sum(axis=1)[:, None]


def exact_entry(gamma, n_bins, i, k):
    """P[i, k] for i >= 1 in exact rational arithmetic (a float gamma is a
    binary fraction): n times the length of bin i that the branches map
    into bin k, rounded once."""
    g, n = Fraction(gamma), n_bins
    a, b = Fraction(i, n), Fraction(i + 1, n)
    total = Fraction(0)
    for j in range(max(math.floor(g / b) - 1, 0), math.ceil(g / a) + 2):
        lo = g / (Fraction(k + 1, n) + j)
        hi = g / (Fraction(k, n) + j) if (j or k) else b
        total += max(min(hi, b) - max(lo, a), 0)
    return float(total * n)


def direct_sum(edges, values, s, t, lo=0.0, hi=np.inf):
    """_bin_table_sum term by term: every j up to where all arguments lie
    in bin 0 (table from 0) or below the table, then (table from 0,
    hi = inf) the rest of bin 0 as v_0 s psi'(t + j_end) from scipy."""
    edges = np.asarray(edges, dtype=float)
    out = np.zeros(len(t), dtype=complex)
    j_end = int(np.ceil(s / edges[1 if edges[0] == 0.0 else 0])) + 2
    if np.isfinite(hi):
        j_end = min(j_end, int(np.ceil(hi)) + 1)
    for m, tm in enumerate(t):
        x = tm + np.arange(j_end, dtype=float)
        x = x[(x >= lo) & (x < hi) & (x > 0.0)]
        u = s / x
        # the image of a bin [e_k, e_{k+1}) is [s/e_{k+1}, s/e_k)
        k = np.searchsorted(edges, u, side="left") - 1
        inside = (k >= 0) & (k < len(values))
        out[m] = np.sum(values[k[inside]] * u[inside] / x[inside])
        if edges[0] == 0.0 and not np.isfinite(hi):
            out[m] += values[0] * s * polygamma(1, tm + j_end)
    return out


class TestBuildUlam:
    def test_rows_are_stochastic(self):
        P = _ulam_matrix(1.0, 128)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P.data >= 0.0)

    def test_gamma_above_one_rows_stochastic(self):
        P = _ulam_matrix(1.5, 128)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_too_few_bins_rejected(self):
        with pytest.raises(UlamError):
            _ulam_matrix(1.0, 1)

    def test_memory_budget_enforced(self):
        with pytest.raises(UlamError, match="memory budget"):
            _ulam_matrix(1.0, 10 ** 6)
        # 10^5 bins: the CSR (about 2 n^{3/2} entries of 12 bytes, 0.76 GB)
        # fits in 2 GiB; assembly holds about 1.9 times that at once, and
        # its charge, with slack, is about 3 times
        assert 12 * 2 * 1e5 ** 1.5 < transfer.MEMORY_BUDGET_BYTES
        with pytest.raises(UlamError, match="memory budget"):
            _ulam_matrix(1.0, 10 ** 5)

    @pytest.mark.parametrize("gamma, n", [
        (1.0, 4096), (0.5, 2048), (3.7, 777), (30.0, 1024), (1000.0, 256)])
    def test_budget_bounds_the_assembly_peak(self, gamma, n, monkeypatch):
        # a budget just below the traced peak refuses the build, and one
        # three times the peak admits it: the charge is an upper bound, and
        # not a loose one (1.2 to 2.1 times the peak with numpy 2.4 and
        # scipy 1.17; the slack leaves room for other versions)
        tracemalloc.start()
        try:
            _ulam_matrix(gamma, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(transfer, "MEMORY_BUDGET_BYTES", peak - 1)
        with pytest.raises(UlamError, match="memory budget"):
            _ulam_matrix(gamma, n)
        monkeypatch.setattr(transfer, "MEMORY_BUDGET_BYTES", 3 * peak)
        _ulam_matrix(gamma, n)

    def test_large_gamma_within_budget_still_builds(self):
        P = _ulam_matrix(1000.0, 16)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_lost_row_fails_before_the_rest(self, monkeypatch):
        # a row that loses mass fails the build, and the error names the
        # first such row
        monkeypatch.setattr(transfer, "_digamma_diff",
                            lambda x, h: 0.5 * h / x)
        with pytest.raises(UlamError, match="row 0"):
            _ulam_matrix(1e5, 16)

    @pytest.mark.parametrize("gamma, bins", [("3000", "16"), ("30", "4096")])
    def test_large_gamma_n_keeps_row_0(self, gamma, bins, tmp_path):
        # gamma * n >= 5e4 used to lose row 0 to cancelling digammas
        assert main(["invariant-density", "--gamma", gamma, "--bins", bins,
                     "--out", str(tmp_path / "d.csv")]) == 0

    @pytest.mark.parametrize("x", [1.0, 99.5, 1e3, 1.6e6])
    def test_digamma_difference_telescopes(self, x):
        # steps of 1/n from x to x + 1 add up to psi(x + 1) - psi(x) = 1/x
        edges = np.arange(4097) / 4096
        steps = transfer._digamma_diff(x + edges[:-1], np.diff(edges))
        assert np.all(steps > 0.0)
        assert np.sum(steps) == pytest.approx(1.0 / x, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, exact", [
        # psi(x + h) - psi(x) at h = 1.0/n for the x below, to 30 digits
        (16, (9.83621748414284941007883072804e-2,
              3.28332031722865384494414172237e-3,
              3.19930431649033615959219364624e-3,
              6.82820138303760246350585612043e-4,
              6.2529305419061559044527144208e-5,
              3.90625114440938830374361712432e-8)),
        (777, (2.11504351169802109931954380428e-3,
               6.77189961084200313970810504872e-5,
               6.59834386243325005616704215313e-5,
               1.40653489233636818178063184196e-5,
               1.28764417313091423236522694704e-6,
               8.04376055419785165768987225962e-10)),
        (8192, (2.00779705506885009424573352092e-4,
                6.42325100815694256984957170512e-6,
                6.25862579687629948836006243265e-6,
                1.33408760762013897956838993316e-6,
                1.22131360543263718755861036724e-7,
                7.6293969151452492345465969698e-11)),
        (65536, (2.50994220759200185169627817119e-5,
                 8.02908631808815802965450783433e-7,
                 7.82330366275495746550373285482e-7,
                 1.66761048283832798597159441021e-7,
                 1.5266420883630457620340047556e-8,
                 9.53674614424988488773758466727e-12))])
    def test_digamma_difference_pinned(self, n, exact):
        # on both sides of the switch from the recurrence to the midpoint
        # series at x = 20; at n = 16 the series needs its h^5 term
        x = np.array([1.0, 19.5, 20.0, 92.0, 1e3, 1.6e6])
        got = transfer._digamma_diff(x, np.full(x.shape, 1.0 / n))
        assert got.tolist() == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_huge_gamma_rejected_without_hanging(self):
        res = run_child("-m", "hyperlab.cli", "invariant-density",
                        "--gamma", "1e300", "--bins", "16", timeout=60)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "work budget" in json.loads(res.stderr)["message"]

    @pytest.mark.parametrize("gamma, n", [
        (0.5, 512), (0.8, 512), (1.0, 1024), (1.2, 512), (1.5, 512),
        (3.7, 777), (30.0, 256), (1000.0, 32)])
    def test_matches_reference_assembler(self, gamma, n):
        S = _ulam_matrix(gamma, n).toarray()
        gap = np.abs(S - reference_ulam(gamma, n))
        # the reference adds the ~gamma n / i branches of row i one by one
        # and drifts (1.7e-13 at gamma = 3.7, n = 777); where the two differ
        # by more than 1e-13, the exact entry must side with the sparse one
        for i in np.nonzero(gap.max(axis=1) > 1e-13)[0]:
            k = int(np.argmax(gap[i]))
            assert i > 0
            assert abs(S[i, k] - exact_entry(gamma, n, int(i), k)) <= 1e-15
        assert np.count_nonzero(gap > 1e-13) <= 0.01 * gap.size

    def test_about_two_n_three_halves_nonzeros(self):
        n = 4096
        assert _ulam_matrix(1.0, n).nnz <= 2.1 * n ** 1.5

    @pytest.mark.parametrize("x, exact", [
        # psi'(x) to 30 digits
        (20.0, 0.0512708229352031198315362945884),
        (20.5, 0.0499895924299609927988521059213),
        (97.25, 0.0103358252995757831710506687987),
        (1e4, 0.000100005000166666666333333335714),
        (3e8, 0.00000000333333333888888889506172839506)])
    def test_trigamma_series(self, x, exact):
        assert transfer._trigamma(x) == pytest.approx(exact, rel=2e-16,
                                                      abs=0.0)

    def test_trigamma_at_infinity_is_zero(self):
        assert transfer._trigamma(np.inf) == 0.0


class TestBinTableSum:
    @pytest.mark.parametrize("edges, s, lo, hi", [
        (np.arange(17) / 16, 1.5, 0.0, np.inf),
        (np.arange(17) / 16, 1.5, 2.5, np.inf),
        (np.arange(17) / 16, 2.0, 0.5, 7.5),
        (np.arange(17) / 16, 3000.0, 0.0, np.inf),
        (np.arange(17) / 16, 3000.0, 0.0, 4000.0),
        (np.sort(np.r_[0.0, 1.0, np.linspace(0.05, 0.95, 31) ** 2]), 0.7,
         0.0, np.inf),
        (np.linspace(0.25, 2.0, 12), 1.5, 0.0, np.inf),
        (np.linspace(0.25, 2.0, 12), 40.0, 1.0, np.inf),
        (np.arange(17) / 16, 3000.0, 1000.5, np.inf),
    ])
    def test_matches_direct_sum(self, edges, s, lo, hi):
        # the window lo <= t + j < hi is the image of a binned piece on
        # [lo, hi), whose table is cut to [s/hi, s/lo): the image bins are
        # half-open, so the window is the piece's own
        rng = np.random.default_rng(7)
        values = (rng.uniform(0.5, 1.5, len(edges) - 1)
                  + 1j * rng.uniform(-1.0, 1.0, len(edges) - 1))
        t = np.r_[0.0, (np.arange(40) + 0.5) / 40, 1.0 - 1e-12]
        cut = piece_from_family(lo, hi, "binned", {
            "edges": edges, "values": values, "s": s}, 1.0).params
        got = _bin_table_sum(cut["edges"], cut["values"], s, t)
        want = direct_sum(edges, values, s, t, lo, hi)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_keeps_the_shape_of_t(self):
        t = np.full((3, 2), 0.25)
        out = _bin_table_sum(np.arange(9) / 8, np.ones(8), 1.0, t)
        assert out.shape == (3, 2)


class TestInvariantDensity:
    def test_normalized(self):
        dens = invariant_density(1.0, 256)
        assert np.sum(dens.values * np.diff(dens.edges)) == pytest.approx(
            1.0, abs=1e-12)
        assert np.all(dens.values >= 0.0)

    def test_matches_gauss_density_coarsely(self):
        dens = invariant_density(1.0, 512)
        mid = 0.5 * (dens.edges[:-1] + dens.edges[1:])
        l1 = np.sum(np.abs(dens.values - gauss_density(mid))) / 512
        assert l1 <= 1e-2

    def test_gauss_density_converges_at_rate_one_over_n(self):
        # past the 8192 bins of the benchmark: doubling n halves the L1
        # error (Li 1976 bounds it by O(log n / n))
        def l1(n):
            dens = invariant_density(1.0, n)
            mid = 0.5 * (dens.edges[:-1] + dens.edges[1:])
            return np.sum(np.abs(dens.values - gauss_density(mid))) / n
        assert l1(16384) <= 0.6 * l1(8192)

    def test_invariance_residual_small(self):
        dens = invariant_density(1.0, 512)
        assert invariance_residual(dens, 1000) <= 5e-3

    def test_gamma_15_residual(self):
        dens = invariant_density(1.5, 512)
        assert invariance_residual(dens, 1000) <= 5e-3

    def test_gamma_below_one_residual(self):
        # [gamma, 1) carries the branch j = 0 (t > gamma); the Perron
        # vector comes from an eigensolver since power iteration cycles
        lam, vecs = np.linalg.eig(_ulam_matrix(0.5, 512).toarray().T)
        v = np.abs(np.real(vecs[:, np.argmin(np.abs(lam - 1.0))]))
        dens = InvariantDensity(0.5, np.arange(513) / 512,
                                v * 512 / np.sum(v))
        assert invariance_residual(dens, 1000) <= 1e-2

    def test_gamma_below_one_refused_before_assembly(self, monkeypatch):
        def never(*args):
            raise AssertionError("assembled the matrix")
        monkeypatch.setattr(transfer, "_ulam_matrix", never)
        with pytest.raises(UlamError, match="involution"):
            invariant_density(0.8, 4096)

    def test_density_callable_outside_support_is_zero(self):
        dens = invariant_density(1.0, 64)
        assert dens(np.array([-0.5, 1.5])).tolist() == [0.0, 0.0]
