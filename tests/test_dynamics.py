import numpy as np
import pytest

from hyperlab.dynamics import (GaussMap, branch_inverse, coverage_fraction,
                               orbit, step)


class TestStep:
    def test_fixed_zero(self):
        assert step(GaussMap(1.0), 0.0) == 0.0

    def test_half_maps_to_zero(self):
        assert step(GaussMap(1.0), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_two_thirds_maps_to_half(self):
        assert step(GaussMap(1.0), 2.0 / 3.0) == pytest.approx(0.5,
                                                              abs=1e-12)

    def test_range_stays_in_unit_interval(self):
        m = GaussMap(0.7)
        for x in np.linspace(0.01, 0.99, 199):
            assert 0.0 <= step(m, x) < 1.0

    def test_domain_error(self):
        with pytest.raises(Exception):
            step(GaussMap(1.0), 1.5)


class TestOrbit:
    def test_orbit_length_and_start(self):
        m = GaussMap(1.0)
        xs = orbit(m, 0.3, 10)
        assert len(xs) == 11
        assert xs[0] == 0.3

    def test_exact_integer_image_lands_on_zero(self):
        # 1/0.5 = 2 exactly: the orbit reaches the fixed point 0 and stays
        assert orbit(GaussMap(1.0), 0.5, 3) == [0.5, 0.0, 0.0, 0.0]

    def test_orbit_matches_iterated_step(self):
        m = GaussMap(0.8)
        xs = orbit(m, 0.37, 5)
        x = 0.37
        for val in xs[1:]:
            x = step(m, x)
            assert val == pytest.approx(x, abs=1e-14)


class TestBranchInverse:
    def test_roundtrip_away_from_branch_points(self):
        m = GaussMap(0.9)
        for x in (0.11, 0.35, 0.72, 0.88):
            y = step(m, x)
            j = int(np.floor(m.gamma / x))
            assert branch_inverse(m, y, j) == pytest.approx(x, abs=1e-14)


class TestCoverage:
    def test_monotone_and_bounded(self):
        fracs = coverage_fraction(GaussMap(0.5), 10, 2000)
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] <= 1.0

    def test_gamma_half_rapid_coverage(self):
        fracs = coverage_fraction(GaussMap(0.5), 10, 10_000)
        assert fracs[-1] >= 0.99
