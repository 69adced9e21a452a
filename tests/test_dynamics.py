import numpy as np
import pytest

from hyperlab.dynamics import _apply, coverage_fraction


class TestStep:
    # U_gamma itself, applied as the coverage statistics apply it
    def test_fixed_zero(self):
        assert _apply(1.0, np.array([0.0]))[0] == 0.0

    def test_half_maps_to_zero(self):
        assert _apply(1.0, np.array([0.5]))[0] == pytest.approx(0.0,
                                                               abs=1e-12)

    def test_two_thirds_maps_to_half(self):
        assert _apply(1.0, np.array([2.0 / 3.0]))[0] == pytest.approx(
            0.5, abs=1e-12)

    def test_range_stays_in_unit_interval(self):
        y = _apply(0.7, np.linspace(0.01, 0.99, 199))
        assert np.all((0.0 <= y) & (y < 1.0))


class TestCoverage:
    def test_monotone_and_bounded(self):
        fracs = coverage_fraction(0.5, 10, 2000)
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] <= 1.0

    @pytest.mark.parametrize("gamma", [0.0, -0.5])
    def test_nonpositive_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive"):
            coverage_fraction(gamma, 1, 10)

    def test_gamma_half_rapid_coverage(self):
        fracs = coverage_fraction(0.5, 10, 10_000)
        assert fracs[-1] >= 0.99
