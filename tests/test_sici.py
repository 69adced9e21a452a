import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hyperlab.sici import exp_integral, exp_integral_parts, nielsen_spiral


def sine_integral_tail(x):
    """si(x) = Im E(x) for x > 0."""
    return exp_integral(1, x).imag


def cosine_integral(x):
    """ci(x) = -Re E(x) for x > 0."""
    return -exp_integral(1, x).real


def si_oracle(x):
    """si(x) = int_x^inf sin(y)/y dy by quadrature with explicit tail."""
    T = x + 200 * np.pi
    val, _ = quad(lambda y: np.sin(y) / y, x, T, limit=4000, epsabs=1e-14,
                  epsrel=1e-13)
    # four integration-by-parts terms for the remainder, O(24/T^5)
    s, c = np.sin(T), np.cos(T)
    val += c / T + s / T**2 - 2.0 * c / T**3 - 6.0 * s / T**4
    return val


def ci_oracle(x):
    """-ci(x) = int_x^inf cos(y)/y dy by quadrature with explicit tail."""
    T = x + 200 * np.pi
    val, _ = quad(lambda y: np.cos(y) / y, x, T, limit=4000, epsabs=1e-14,
                  epsrel=1e-13)
    s, c = np.sin(T), np.cos(T)
    val += -s / T + c / T**2 + 2.0 * s / T**3 - 6.0 * c / T**4
    return -val


def e_oracle(p, y):
    """E_p(y) = int_1^inf e^{iyu} u^{-p} du by QUADPACK's QAWF."""
    def amp(u):
        return u ** -float(p)
    kw = {"wvar": abs(y), "epsabs": 1e-13, "limlst": 200}
    re, _ = quad(amp, 1.0, np.inf, weight="cos", **kw)
    im, _ = quad(amp, 1.0, np.inf, weight="sin", **kw)
    return complex(re, np.sign(y) * im)


class TestSineIntegralTail:
    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 3.9, 4.1, 10.0, 50.0])
    def test_matches_quadrature_oracle(self, x):
        assert sine_integral_tail(x) == pytest.approx(si_oracle(x),
                                                      abs=2e-12)

    def test_decay_at_large_argument(self):
        assert abs(sine_integral_tail(1000.0)) <= 1.1e-3

    def test_small_argument_limit_is_half_pi(self):
        assert sine_integral_tail(1e-12) == pytest.approx(np.pi / 2.0,
                                                          abs=1e-9)

    def test_monotone_envelope_at_multiples_of_pi(self):
        vals = [abs(sine_integral_tail(n * np.pi)) for n in range(1, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCosineIntegral:
    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 3.9, 4.1, 10.0, 50.0])
    def test_matches_quadrature_oracle(self, x):
        assert cosine_integral(x) == pytest.approx(ci_oracle(x), abs=2e-12)

    def test_decay_at_large_argument(self):
        assert abs(cosine_integral(1000.0)) <= 1.1e-3

    def test_first_zero_location(self):
        # the standard cosine integral vanishes near x ~ 0.6165
        lo, hi = cosine_integral(0.616), cosine_integral(0.617)
        assert lo < 0.0 < hi

    def test_sign_below_first_zero(self):
        for x in (0.05, 0.2, 0.5, 0.61):
            assert cosine_integral(x) < 0.0

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(ValueError):
            cosine_integral(0.0)


class TestAsymptoticEnvelope:
    def test_combined_envelope(self):
        for x in np.geomspace(10.0, 1e4, 40):
            assert abs(cosine_integral(x)) + abs(sine_integral_tail(x)) \
                <= 2.2 / x


class TestRealParts:
    def test_conjugate_symmetry(self):
        # the real arrays (Re E, Im E), with E(-y) = conj E(y); E itself is
        # checked against the quadrature oracles above
        x = np.geomspace(1e-3, 1e5, 61)
        re, im = exp_integral_parts(np.concatenate([x, -x]))
        e = exp_integral(1, x)
        assert re.dtype == im.dtype == np.float64
        assert np.array_equal(re, np.concatenate([e.real, e.real]))
        assert np.array_equal(im, np.concatenate([e.imag, -e.imag]))

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            exp_integral_parts(np.array([1.0, 0.0]))


class TestEndIntegrals:
    # E_1, E_2 and E_3 on both sides of |y| = 60, where the recurrence from
    # E hands over to the asymptotic series, for both signs of y, and out
    # to |y| = 7.5e4, where the recurrence alone would have lost every
    # digit of E_3; each as a scalar, and as an entry of an array that
    # holds the other side of |y| = 60 too
    @pytest.mark.parametrize("y", [-7.5e4, -117.8, -60.0, -59.9, 2.0, 12.0,
                                   59.9, 60.0, 78.5, 5e4])
    def test_matches_quadrature_oracle(self, y):
        for p in (1, 2, 3):
            got = exp_integral(p, y)
            want = e_oracle(p, y)
            assert isinstance(got, complex)
            assert abs(got - want) <= 1e-10 * abs(want)
            other = 1.5 if abs(y) >= 60.0 else 61.0
            assert exp_integral(p, np.array([[y, other]]))[0, 0] == got

    def test_zero_at_infinity(self):
        # E_p(+-inf) = 0; E_2 and E_3 read their far series there, whose
        # cos and sin of inf were NaN, with numpy's RuntimeWarnings; the
        # finite entries beside them keep their bits
        finite = np.array([-75.0, 2.3, 60.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (1, 2, 3):
                for y in (np.inf, -np.inf):
                    assert exp_integral(p, y) == 0.0
                got = exp_integral(p, np.r_[np.inf, finite, -np.inf])
                assert np.all(got[[0, -1]] == 0.0)
                assert np.array_equal(got[1:-1], exp_integral(p, finite))


class TestNielsenSpiral:
    def test_converges_to_origin(self):
        ci, si = nielsen_spiral([500.0])
        assert np.hypot(ci, si)[0] <= 3e-3

    def test_min_modulus_positive_on_standard_grid(self):
        grid = np.geomspace(0.01, 100.0, 10_000)
        assert np.min(np.hypot(*nielsen_spiral(grid))) > 0.0

    def test_continuity_along_grid(self):
        grid = np.linspace(1.0, 10.0, 500)
        pts = np.column_stack(nielsen_spiral(grid))
        jumps = np.hypot(*np.diff(pts, axis=0).T)
        # |d/dx (ci, si)| <= sqrt(2)/x <= sqrt(2) on [1, 10]
        assert np.max(jumps) <= np.sqrt(2.0) * (grid[1] - grid[0]) * 1.1

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            nielsen_spiral([0.0, 1.0])
