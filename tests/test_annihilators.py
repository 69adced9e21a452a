import warnings

import numpy as np
import pytest

from hyperlab.annihilators import (annihilator_report, critical_annihilator,
                                   expanded_annihilator,
                                   periodization_sum1, periodization_sum2,
                                   periodized_residual,
                                   perturbed_equation_residual, piece_mass,
                                   symmetry_residual, total_mass)
from hyperlab.measures import Measure1D, MeasureError, Piece, \
    piece_from_family, pushforward_inversion
from hyperlab.transfer import invariant_density
from measure_helpers import restrict

LOG2 = np.log(2.0)


class TestCriticalAnnihilator:
    def test_density_values(self):
        nu = critical_annihilator()
        assert nu.density_at(np.array([0.5]))[0] == pytest.approx(2.0 / 3.0)
        assert nu.density_at(np.array([2.0]))[0] == pytest.approx(-1.0 / 6.0)

    def test_total_mass_zero(self):
        assert abs(total_mass(critical_annihilator())) <= 1e-14

    def test_piece_masses_are_log2(self):
        nu = critical_annihilator()
        assert abs(piece_mass(nu.pieces[0])) == pytest.approx(LOG2,
                                                             abs=1e-12)
        assert abs(piece_mass(nu.pieces[1])) == pytest.approx(LOG2,
                                                             abs=1e-12)

    def test_pointwise_inversion_symmetry(self):
        # density identity nu'(1/t) t^-2 = -nu'(t)
        nu = critical_annihilator()
        t = np.array([0.2, 0.5, 0.9, 1.5, 3.0, 10.0])
        lhs = nu.density_at(1.0 / t) / t**2
        assert np.max(np.abs(lhs + nu.density_at(t))) <= 1e-14

    def test_symmetry_residual(self):
        assert symmetry_residual(critical_annihilator(), 1.0) <= 1e-12


class TestPeriodizedResidual:
    def test_critical_annihilator_residuals(self):
        r1, r2 = periodized_residual(critical_annihilator(), 1.0, 2000)
        assert r1 <= 1e-8
        assert r2 <= 1e-8

    def test_zero_measure(self):
        assert periodized_residual(Measure1D(), 1.0, 100) == (0.0, 0.0)

    def test_gauss_measure_alone_fails_first_sum(self):
        # dt/((1+t) log 2) on [0,1): invariant under the transfer action,
        # so the second periodization reproduces the density itself; the
        # j=0 term vanishes (no mass above 1).  It does not periodize to
        # zero (first sum large).
        varpi = Measure1D(pieces=(piece_from_family(
            0.0, 1.0, "cauchy1p", {"scale": 1.0 / LOG2}, 1.0),))
        t = (np.arange(500) + 0.5) / 500
        sum2 = periodization_sum2(varpi, 1.0, t)
        rho = np.array([varpi.density_at(x) for x in t])
        assert np.max(np.abs(sum2 - rho)) <= 1e-10
        r1, _ = periodized_residual(varpi, 1.0, 500)
        assert r1 > 0.1


class TestExpandedAnnihilator:
    @pytest.fixture(scope="class")
    def nu15(self):
        dens = invariant_density(1.5, 1024)
        return expanded_annihilator(1.5, dens)

    def test_rejects_gamma_at_most_one(self):
        dens = invariant_density(1.0, 64)
        with pytest.raises(MeasureError):
            expanded_annihilator(1.0, dens)

    def test_no_mass_in_gap(self, nu15):
        t = np.linspace(1.01, 1.49, 50)
        assert np.all(nu15.density_at(t) == 0.0)

    def test_total_mass_zero(self, nu15):
        assert abs(total_mass(nu15)) <= 1e-12

    def test_symmetry_exact_by_construction(self, nu15):
        assert symmetry_residual(nu15, 1.5) <= 1e-12

    def test_periodized_residuals_track_ulam_error(self, nu15):
        r1, r2 = periodized_residual(nu15, 1.5, 1000)
        assert r1 <= 1e-2
        assert r2 <= 1e-2


class TestPeriodizationSums:
    def test_sum1_matches_brute_force(self):
        nu = critical_annihilator()
        t = np.array([0.25, 0.5, 0.75])
        u = t[:, None] + np.arange(400_000)
        brute = np.sum(nu.density_at(u), axis=1)
        assert np.max(np.abs(periodization_sum1(nu, t) - brute)) <= 1e-5

    def test_sum2_matches_brute_force(self):
        nu = critical_annihilator()
        t = np.array([0.25, 0.5, 0.75])
        u = t[:, None] + np.arange(400_000)
        brute = np.sum(nu.density_at(1.0 / u) / u**2, axis=1)
        assert np.max(np.abs(periodization_sum2(nu, 1.0, t) - brute)) <= 1e-5

    def test_critical_sums_vanish_at_zero(self):
        # at t = 0 the j = 0 argument of the second sum is infinite; it
        # counts as its limit from the right, where the image density of
        # the tail piece is finite
        t = np.array([0.0])
        nu = critical_annihilator()
        assert abs(periodization_sum1(nu, t)[0]) <= 1e-14
        assert abs(periodization_sum2(nu, 1.0, t)[0]) <= 1e-14

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_generic_image_at_zero(self, p):
        # at t = 0 the j = 0 term of the second sum is the image density
        # at x = 0, the image of t = inf: it tends to 0 under a certified
        # majorant |t|^-p with p > 2, and is unknown (NaN) otherwise; for
        # rho = (1 + t)^-2 the limit from the right is 1.029, not 0.362
        nu = Measure1D(pieces=(Piece(
            0.5, np.inf, lambda t: (1.0 + np.asarray(t, dtype=float)) ** -p,
            1.0, params={"tail_c": 1.0, "tail_p": p}),))
        s2 = periodization_sum2(nu, 1.5, np.array([0.0, 1e-9]))
        if p > 2.0:
            assert s2[0] == pytest.approx(s2[1], abs=1e-8)
        else:
            assert np.isnan(s2[0])
            assert s2[1] == pytest.approx(1.0 / 1.5 + 1.5 / 2.5**2
                                          + 1.5 / 3.5**2, abs=1e-8)

    @pytest.fixture(scope="class")
    def nu256(self):
        dens = invariant_density(1.5, 256)
        return expanded_annihilator(1.5, dens)

    @staticmethod
    def brute_sums(nu, gamma, t, n_terms=1_000_000):
        # the second sum is the first of the image under t -> gamma/t, whose
        # pieces are half-open: at t + j = gamma the image of the [0, 1)
        # piece reads its last bin, where the composition nu(gamma/u)
        # gamma/u^2 reads 0 at u = 1
        u = t[:, None] + np.arange(n_terms)[None, :]
        s1 = np.sum(nu.density_at(u), axis=1)
        # at t = 0 the j = 0 term is taken as its limit from the right
        u = np.maximum(u, 1e-100)
        s2 = np.sum(pushforward_inversion(nu, gamma).density_at(u), axis=1)
        return s1, s2

    def test_expanded_sums_match_brute_force(self, nu256):
        t = np.array([0.0, 0.25, 0.5, 0.75])
        s1, s2 = self.brute_sums(nu256, 1.5, t)
        assert np.max(np.abs(periodization_sum1(nu256, t) - s1)) <= 1e-5
        assert np.max(np.abs(periodization_sum2(nu256, 1.5, t) - s2)) <= 1e-5

    def test_restricted_pieces_match_brute_force(self, nu256):
        # both pieces cut inside their tables' images: a finite image of a
        # binned piece, and a binned piece whose image is one
        nu = Measure1D(pieces=restrict(nu256, 0.13, 0.61).pieces
                       + restrict(nu256, 2.1, 7.3).pieces)
        assert [(p.family, p.image_s) for p in nu.pieces] == [
            ("binned", None), ("binned", 1.5)]
        t = np.array([0.0, 0.25, 0.5, 0.75])
        s1, s2 = self.brute_sums(nu, 1.5, t, n_terms=100)
        assert np.max(np.abs(periodization_sum1(nu, t) - s1)) <= 1e-12
        assert np.max(np.abs(periodization_sum2(nu, 1.5, t) - s2)) <= 1e-12


class TestAnnihilatorReport:
    def test_critical_report(self):
        mass, _, r1, r2 = annihilator_report(1.0, grid_n=2000)
        assert r1 <= 1e-8
        assert r2 <= 1e-8
        assert abs(mass) <= 1e-12

    def test_expanded_requires_density(self):
        with pytest.raises(MeasureError):
            annihilator_report(1.5)


class TestPerturbedEquation:
    def test_zero_inputs_give_zero(self):
        assert perturbed_equation_residual(Measure1D(), Measure1D(),
                                           1.5) == 0.0

    def test_invariant_density_with_zero_perturbation(self):
        dens = invariant_density(1.5, 1024)
        omega1 = Measure1D(pieces=(piece_from_family(
            0.0, 1.0, "binned", {"edges": dens.edges,
                                 "values": dens.values}, 1.0),))
        res = perturbed_equation_residual(omega1, Measure1D(), 1.5)
        assert res <= 5e-3  # Ulam discretization level

    def test_antisymmetric_bump_shifts_residual(self):
        gamma = 1.5

        def bump(t):
            t = np.asarray(t)
            # rho(gamma/t) gamma/t^2 = -rho(t) holds for this profile
            return np.cos(np.pi * np.log(t) / np.log(gamma)) / t

        omega2 = Measure1D(pieces=(Piece(1.0, gamma, bump, 1.0),))
        res = perturbed_equation_residual(Measure1D(), omega2, gamma)
        t = np.linspace(1e-3, 1.0 - 1e-3, 50)
        sup = np.max(np.abs(omega2.density_at(t + 1.0)))
        assert res == pytest.approx(sup, rel=0.1)
        assert res > 0.0

    def test_asymmetric_omega2_rejected(self):
        omega2 = Measure1D(pieces=(
            Piece(1.0, 1.5, lambda t: np.ones_like(np.asarray(t)), 0.5),))
        with pytest.raises(MeasureError):
            perturbed_equation_residual(Measure1D(), omega2, 1.5)

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(MeasureError):
            perturbed_equation_residual(Measure1D(), Measure1D(), 2.5)

    def test_gamma_two_warns(self):
        # rho2(t) = ln(t/sqrt 2)/t is antisymmetric under t -> 2/t
        def rho2(t):
            t = np.asarray(t)
            return np.log(t / np.sqrt(2.0)) / t

        omega2 = Measure1D(pieces=(Piece(1.0, 2.0, rho2, 1.0),))
        with pytest.warns(UserWarning, match="gamma = 2 endpoint"):
            perturbed_equation_residual(Measure1D(), omega2, 2.0)

    def test_gamma_two_without_omega2_is_quiet(self):
        # nothing meets the translate boundary when omega2 = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert perturbed_equation_residual(Measure1D(), Measure1D(),
                                               2.0) == 0.0
