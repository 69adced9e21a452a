import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hyperlab
from hyperlab import transfer
from hyperlab.cli import main
from hyperlab.transfer import (InvariantDensity, UlamError, build_ulam,
                               invariance_residual, invariant_density)

LOG2 = np.log(2.0)


def gauss_density(t):
    """Closed-form invariant density of U_1: 1 / ((1 + t) log 2)."""
    return 1.0 / ((1.0 + np.asarray(t)) * LOG2)


class TestBuildUlam:
    def test_rows_are_stochastic(self):
        op = build_ulam(1.0, 128)
        assert np.allclose(op.matrix.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(op.matrix >= 0.0)

    def test_gamma_above_one_rows_stochastic(self):
        op = build_ulam(1.5, 128)
        assert np.allclose(op.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_too_few_bins_rejected(self):
        with pytest.raises(UlamError):
            build_ulam(1.0, 1)

    def test_memory_budget_enforced(self):
        with pytest.raises(UlamError):
            build_ulam(1.0, 10 ** 6)

    def test_large_gamma_within_budget_still_builds(self):
        op = build_ulam(1000.0, 16)
        assert np.allclose(op.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_lost_row_fails_before_the_rest(self, monkeypatch):
        # a row 0 that loses mass fails at once; at gamma * n = 1.6e6 the
        # rows after it would take 15 s to build
        monkeypatch.setattr(transfer, "_digamma_diff",
                            lambda x, h: 0.5 * h / x)
        with pytest.raises(UlamError, match="row 0"):
            build_ulam(1e5, 16)

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
        assert np.sum(steps) == pytest.approx(1.0 / x, rel=1e-12)

    def test_huge_gamma_rejected_without_hanging(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(hyperlab.__file__)))
        res = subprocess.run(
            [sys.executable, "-m", "hyperlab.cli", "invariant-density",
             "--gamma", "1e300", "--bins", "16"],
            env=env, capture_output=True, text=True, timeout=60)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "work budget" in json.loads(res.stderr)["message"]


class TestInvariantDensity:
    def test_normalized(self):
        dens = invariant_density(build_ulam(1.0, 256))
        assert np.sum(dens.bin_masses()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(dens.values >= 0.0)

    def test_matches_gauss_density_coarsely(self):
        dens = invariant_density(build_ulam(1.0, 512))
        mid = 0.5 * (dens.edges[:-1] + dens.edges[1:])
        l1 = np.sum(np.abs(dens.values - gauss_density(mid))) / 512
        assert l1 <= 1e-2

    def test_invariance_residual_small(self):
        dens = invariant_density(build_ulam(1.0, 512))
        assert invariance_residual(dens, 1000) <= 5e-3

    def test_gamma_15_residual(self):
        dens = invariant_density(build_ulam(1.5, 512))
        assert invariance_residual(dens, 1000) <= 5e-3

    def test_gamma_below_one_residual(self):
        # [gamma, 1) carries the branch j = 0 (t > gamma); the Perron
        # vector comes from an eigensolver since power iteration cycles
        op = build_ulam(0.5, 512)
        lam, vecs = np.linalg.eig(op.matrix.T)
        v = np.abs(np.real(vecs[:, np.argmin(np.abs(lam - 1.0))]))
        dens = InvariantDensity(0.5, np.arange(513) / 512,
                                v * 512 / np.sum(v))
        assert invariance_residual(dens, 1000) <= 1e-2

    def test_density_callable_outside_support_is_zero(self):
        dens = invariant_density(build_ulam(1.0, 64))
        assert dens(np.array([-0.5, 1.5])).tolist() == [0.0, 0.0]
