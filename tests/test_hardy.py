import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hyperlab import fourier, hardy
from hyperlab.annihilators import critical_annihilator, expanded_annihilator
from hyperlab.fourier import QuadratureError, error_budget, ft_point, \
    pairing
from hyperlab.hardy import (hardy_defect, hilbert_hyperbola, hilbert_line,
                            inversion_j, q2_coefficients, timelike_witness)
from hyperlab.measures import (HyperbolaMeasure, Measure1D, MeasureError,
                               Piece, _pushforward_reciprocal, compress_pi2,
                               total_variation)
from hyperlab.transfer import invariant_density


def hardy_plus(conjugate=False):
    """f(t) = 1/(t + i)^2 (boundary value of a Hardy-class function) or
    its conjugate, as a two-piece measure split at 0."""
    sign = -1.0 if conjugate else 1.0

    def rho(t):
        return 1.0 / (np.asarray(t) + sign * 1j) ** 2

    return Measure1D(pieces=(
        Piece(-np.inf, 0.0, rho, 2.0, params={"tail_c": 1.0, "tail_p": 2.0}),
        Piece(0.0, np.inf, rho, 2.0, params={"tail_c": 1.0, "tail_p": 2.0})))


def cauchy_pair():
    """P_1 - P_2: a mass-zero, smooth, integrable test measure."""
    def rho(t):
        t = np.asarray(t)
        return (1.0 / (1.0 + t**2) - 2.0 / (4.0 + t**2)) / np.pi

    tp = {"tail_c": 1.0, "tail_p": 2.0}
    return Measure1D(pieces=(Piece(-np.inf, 0.0, rho, 1.0, params=tp),
                             Piece(0.0, np.inf, rho, 1.0, params=tp)))


class TestPeriodizeQ2:
    """Q2 f(x) = sum_j f(x + 2j), read through its Fourier coefficients
    c_n = (1/2) f^(pi n) (Poisson summation)."""

    def test_mass_preserved(self):
        # c_0 = (1/2) int_{-1}^{1} Q2 f = (1/2) int f, and P_1 - P_2 has mass 0
        c, _ = q2_coefficients(cauchy_pair(), 0)
        assert c[0] == pytest.approx(0.0, abs=1e-8)

    def test_coefficients_against_closed_form(self):
        # (1/2) int e^{-i pi n t} dt / (t + i)^2 = -pi^2 n e^{-pi n} for
        # n > 0 and 0 for n <= 0 (close the contour in the upper half-plane)
        c, _ = q2_coefficients(hardy_plus(), 64)
        n = np.arange(-64, 65)
        exact = np.where(n > 0, -np.pi**2 * n * np.exp(-np.pi * np.abs(n)),
                         0.0)
        assert np.max(np.abs(c - exact)) <= 1e-10

    def test_coefficients_oracle_with_honest_estimate(self):
        # the closed form at n_max = 64, past the periodization's default:
        # within 1e-13 (QAWF read 2.3e-13), and the summed estimate the
        # pairings report covers the true error
        c, err = q2_coefficients(hardy_plus(), 64)
        n = np.arange(-64, 65)
        exact = np.where(n > 0, -np.pi**2 * n * np.exp(-np.pi * np.abs(n)),
                         0.0)
        true = np.max(np.abs(c - exact))
        assert true <= 1e-13
        assert err >= true

    def test_pointwise_against_closed_form(self):
        # sum_j 1/(x + 2j + i)^2 = (pi^2/4) / sin^2(pi (x + i)/2), summed
        # from the coefficients, which decay like e^{-pi n}
        c, _ = q2_coefficients(hardy_plus(), 16)
        x = 0.3
        series = np.sum(c * np.exp(1j * np.pi * np.arange(-16, 17) * x))
        exact = (np.pi**2 / 4) / np.sin(np.pi * (x + 1j) / 2) ** 2
        assert series == pytest.approx(exact, abs=1e-10)


class TestVectorPairing:
    # axis pairs of one magnitude, the origin twice, and off-axis points
    W = np.pi * np.array([2.0, -2.0, 0.0, 0.0, 0.0, 5.0, -5.0, 3.0, -1.0,
                          0.0])
    C = np.pi * np.array([0.0, 0.0, 0.0, 2.0, -2.0, 0.0, 0.0, 0.7, 0.4,
                          0.0])

    @staticmethod
    def witness():
        f = hardy._witness_f(1j)
        return Measure1D(pieces=(Piece(-np.inf, 0.0, f, np.inf),
                                 Piece(0.0, np.inf, f, np.inf)))

    @pytest.mark.parametrize("kind", ["hardy", "critical", "expanded",
                                      "witness"])
    def test_equals_per_frequency_calls_bitwise(self, kind):
        nu = {"hardy": hardy_plus,
              "critical": critical_annihilator,
              "expanded": lambda: expanded_annihilator(
                  1.5, invariant_density(1.5, 256)),
              "witness": self.witness}[kind]()
        vals, errs = pairing(nu, self.W, self.C)
        for i in range(self.W.size):
            v, e = pairing(nu, self.W[i:i + 1], self.C[i:i + 1])
            assert v.tobytes() == vals[i:i + 1].tobytes(), i
            assert e.tobytes() == errs[i:i + 1].tobytes(), i

    def test_one_cos_sin_pair_per_magnitude(self, monkeypatch):
        # c_n and c_-n share one cos/sin pair, and the mirrored half-lines
        # pair as one integral: each density reads each |w| = pi n once, as
        # a row of one Ooura-Mori node array, where one QUADPACK pair per n
        # made 514 calls and one pair per half-line 258.  The mass row c_0
        # is the one QUADPACK call, at scalar nodes
        calls, shapes = [], []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("weight"))
            return quad(*args, **kwargs)
        monkeypatch.setattr(fourier, "quad", counting)

        def counted(rho):
            def density(t):
                shapes.append(np.shape(t))
                return rho(t)
            return density
        f = Measure1D(pieces=tuple(
            Piece(p.a, p.b, counted(p.density), p.tv_bound, params=p.params)
            for p in hardy_plus().pieces))
        hardy.q2_coefficients(f, 64)
        rows = [s for s in shapes if len(s) == 2]
        assert sum(r[0] for r in rows) == 2 * 64
        assert {r[1] for r in rows} == {fourier._OM_X.size}
        assert calls == [None]
        assert all(s == () for s in shapes if len(s) != 2)


@pytest.fixture
def integrals(monkeypatch):
    """(found, counted): found[1:] holds, per integral, the nodes its
    integrand was asked for, each with the (density, t) reads that
    densities wrapped by ``counted`` received meanwhile.  A node is one t
    of a memoized QUADPACK integral, or one node array of an Ooura-Mori
    tail (a row per |w|), at which the tail's integrands are all asked.
    found[0] holds the reads made outside every integral."""
    found, current = [[]], []
    memo, om_tail = fourier._memo, fourier._om_tail

    def scope():
        nodes = []
        found.append(nodes)

        def asked(g):
            def at(t):
                if not (nodes and nodes[-1][0] is t):
                    nodes.append((t, []))
                current.append(nodes[-1][1])
                try:
                    return g(t)
                finally:
                    current.pop()
            return at
        return asked

    def scoped(g):
        return memo(scope()(g))

    def scoped_tail(gs, a, mags):
        asked = scope()
        return om_tail(tuple(asked(g) for g in gs), a, mags)
    monkeypatch.setattr(fourier, "_memo", scoped)
    monkeypatch.setattr(hardy, "_memo", scoped)
    monkeypatch.setattr(fourier, "_om_tail", scoped_tail)

    def counted(rho):
        def density(t):
            (current[-1] if current else found[0]).append((density, t))
            return rho(t)
        return density
    return found, counted


class TestSampledOncePerNode:
    """QUADPACK reads each node of a complex integrand in a real and an
    imaginary run, and a cos/sin pair reads the same nodes twice more; an
    Ooura-Mori tail reads each |w| at all its nodes as one array.  Within
    one integral each density is evaluated once per node and read point.
    An integral that folds two mirrored pieces reads one density at t and
    the other at -t; the Hilbert transform's regular form reads the total
    density once at x - s and once at x + s, and outside every integral
    once on each side of an x at a piece end, to look for a jump."""

    @pytest.mark.parametrize("case", ["q2", "witness", "hilbert"])
    def test_density_evaluated_once_per_node(self, case, integrals,
                                             monkeypatch):
        found, counted = integrals

        def recounted(nu):
            return Measure1D(pieces=tuple(
                Piece(p.a, p.b, counted(p.density), p.tv_bound,
                      params=p.params) for p in nu.pieces))
        sides = []
        if case == "q2":
            q2_coefficients(recounted(hardy_plus()), 64)
        elif case == "witness":
            witness_f = hardy._witness_f
            monkeypatch.setattr(hardy, "_witness_f",
                                lambda z0: counted(witness_f(z0)))
            timelike_witness(1j, 1.0, 10, 10)
        else:
            grid = np.linspace(-3, 3, 7)
            hilbert_line(recounted(cauchy_pair()), grid)
            # outside every integral, the jump check reads the total density
            # at a grid point on a piece end (here 0), then just below it
            sides = [0.0, np.nextafter(0.0, -np.inf)]
        outside, *scopes = found
        assert [x for _, x in outside] == sides
        reads = [x for nodes in scopes for _, rs in nodes for _, x in rs]
        assert sum(np.size(x) for x in reads) > 1000

        def key(t):
            return t.tobytes() if np.ndim(t) else t
        folded = tails = 0
        for nodes in scopes:
            ts = [key(t) for t, _ in nodes]
            assert len(set(ts)) == len(ts)
            # each node reads each density of the integral once, keyed by
            # the density, the point it reads and the node
            keys = [(d, key(x), key(t)) for t, rs in nodes for d, x in rs]
            assert len(set(keys)) == len(keys)
            assert len({len(rs) for _, rs in nodes}) == 1
            for t, rs in nodes:
                assert len(rs) in (1, 2)
                # a tail reads whole node arrays, a row of nodes per |w|
                if np.ndim(t):
                    assert np.shape(t)[1] == fourier._OM_X.size
                    assert all(np.shape(x) == np.shape(t) for _, x in rs)
                if case == "hilbert":
                    # the node s of a grid point x reads x - s, then x + s
                    assert any([x for _, x in rs] == [c - t, c + t]
                               for c in grid)
                elif len(rs) == 2:
                    assert np.array_equal(rs[0][1], -rs[1][1])
                    folded += 1
            tails += np.ndim(nodes[0][0]) == 2
        # the q2 and witness pieces mirror each other across t = 0, and
        # their tails run under the Ooura-Mori rule
        assert (folded > 0) == (case != "hilbert")
        assert (tails > 0) == (case != "hilbert")

    def test_window_density_is_density_at(self):
        gap = Measure1D(pieces=(
            Piece(-2.0, -1.0, lambda t: 3.0 + 0.0 * np.asarray(t), 3.0),
            Piece(1.0, 3.0, lambda t: 1.0 / np.asarray(t), 2.0)))
        for f in (hardy_plus(), hardy_plus(conjugate=True), cauchy_pair(),
                  gap):
            rho = hardy._total_density(f)
            # the piece junction t = 0 (from both sides), the ends of the
            # gap's pieces, and interior points
            for t in (0.0, -0.0, -2.0, -1.0, 1.0, 3.0, -1.5, -0.3, 0.7,
                      2.5, 40.0):
                assert complex(rho(t)) == complex(f.density_at(t)), (f, t)


class TestHardyDefect:
    def test_hardy_function_has_tiny_defect(self):
        d = hardy_defect(hardy_plus(), 32)
        assert d.ratio <= 1e-6

    def test_conjugate_is_almost_entirely_negative(self):
        d = hardy_defect(hardy_plus(conjugate=True), 32)
        assert d.ratio >= 0.999

    def test_coefficient_mirror(self):
        # conjugation mirrors Fourier coefficients: c_n(conj f) = conj c_-n
        c, _ = q2_coefficients(hardy_plus(), 8)
        cc, _ = q2_coefficients(hardy_plus(conjugate=True), 8)
        assert np.allclose(cc, np.conj(c[::-1]), atol=1e-12)

    @pytest.mark.parametrize("params", [{}, {"tail_c": 1.0, "tail_p": 1.0}])
    def test_uncertified_tail_rejected(self, params):
        # 1/(1 + t) is not integrable; QUADPACK would still return a number
        f = Measure1D(pieces=(Piece(0.0, np.inf, lambda t: 1.0 / (
            1.0 + np.asarray(t)), 1.0, params=params),))
        with pytest.raises(MeasureError):
            hardy_defect(f, 4)

    def test_error_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(hardy, "pairing", lambda f, w, c: (
            np.ones(np.shape(w)), np.full(np.shape(w), 1e-3)))
        with pytest.raises(QuadratureError):
            hardy_defect(hardy_plus(), 4)

    def test_reports_achieved_error(self):
        _, err = q2_coefficients(hardy_plus(), 8)
        d = hardy_defect(hardy_plus(), 8)
        assert d.err_estimate == err
        assert 0.0 < err <= 1e-6


class TestInversionJ:
    @pytest.fixture(scope="class")
    def families(self):
        tp = {"tail_c": 1.0, "tail_p": 2.0}
        return [
            Measure1D(pieces=(Piece(1.0, 2.0, lambda t: np.ones_like(
                np.asarray(t, dtype=float)), 1.0),)),
            Measure1D(pieces=(Piece(0.5, np.inf, lambda t: np.asarray(
                t, dtype=float) ** -2.0, 2.0, params=tp),)),
            Measure1D(pieces=(Piece(-2.0, -0.5, lambda t: 1.0 / (
                1.0 + np.asarray(t) ** 2), 1.0),)),
        ]

    def test_isometry(self, families):
        for beta in (1.0, 2.5):
            for f in families:
                assert total_variation(inversion_j(f, beta)) == \
                    pytest.approx(total_variation(f), abs=1e-10)

    def test_is_reciprocal_pushforward(self, families):
        # J_beta is the image under t -> -beta/t: a real density stays real
        x = np.linspace(-4.0, 4.0, 161)
        for beta in (1.0, 1.5, 2.5):
            for f in families:
                got = inversion_j(f, beta).density_at(x)
                want = _pushforward_reciprocal(f, -beta).density_at(x)
                assert np.array_equal(got, want)
                assert np.all(got.imag == 0.0)
                assert np.any(got != 0.0)

    def test_involution(self, families):
        for f in families:
            g = inversion_j(inversion_j(f, 1.5), 1.5)
            t = np.array([-1.7, -0.9, 0.6, 1.3, 1.9])
            assert np.max(np.abs(g.density_at(t) - f.density_at(t))) <= 1e-12

    def test_atom_maps_to_atom(self):
        f = Measure1D(atoms=((2.0, 1.0 + 1.0j),))
        g = inversion_j(f, 1.0)
        assert g.atoms[0][0] == pytest.approx(-0.5)
        # J_beta is a total-variation isometry on atoms
        assert abs(g.atoms[0][1]) == pytest.approx(abs(1.0 + 1.0j),
                                                   abs=1e-14)

    def test_piece_straddling_zero_rejected(self):
        f = Measure1D(pieces=(
            Piece(-1.0, 1.0, lambda t: np.ones_like(np.asarray(t)), 2.0),))
        with pytest.raises(MeasureError):
            inversion_j(f, 1.0)


class TestHilbertLine:
    def test_cauchy_closed_form(self):
        def rho(t):
            return 1.0 / (np.pi * (1.0 + np.asarray(t) ** 2))

        tp = {"tail_c": 1.0 / np.pi, "tail_p": 2.0}
        f = Measure1D(pieces=(Piece(-np.inf, 0.0, rho, 0.5, params=tp),
                              Piece(0.0, np.inf, rho, 0.5, params=tp)))
        x = np.arange(-3.0, 3.5, 1.0)
        vals, _ = hilbert_line(f, x)
        exact = x / (np.pi * (1.0 + x**2))
        assert np.max(np.abs(vals - exact)) <= 1e-6

    @pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-320])
    def test_subnormal_x(self, x):
        # the part [0, |x|) collapses at a subnormal x, and QUADPACK
        # sampled the integrand at s = 0: a raw ZeroDivisionError
        vals, errs = hilbert_line(cauchy_pair(), [x])
        assert abs(vals[0]) <= 1e-300 and errs[0] <= 1e-300

    def test_involution_on_smooth_function(self):
        f = cauchy_pair()
        x = np.linspace(-2.0, 2.0, 9)
        h, _ = hilbert_line(f, x)
        # H[P_1 - P_2](x) closed form, applied again via its own measure
        def h_rho(t):
            t = np.asarray(t)
            return (t / (1.0 + t**2) - t / (4.0 + t**2)) / np.pi

        tp = {"tail_c": 2.0, "tail_p": 2.0}
        hf = Measure1D(pieces=(Piece(-np.inf, 0.0, h_rho, 1.0, params=tp),
                               Piece(0.0, np.inf, h_rho, 1.0, params=tp)))
        assert np.max(np.abs(hilbert_line(hf, x)[0]
                             + f.density_at(x))) <= 5e-4
        assert np.max(np.abs(h - hf.density_at(x))) <= 1e-6

    def test_nan_estimate_raises(self, monkeypatch):
        # a finite value whose estimate is NaN is refused, not reported
        monkeypatch.setattr(hardy, "_pv_point", lambda f, x: (0.1, np.nan))
        with pytest.raises(QuadratureError, match="error estimate nan"):
            hilbert_line(cauchy_pair(), [0.5])

    def test_estimate_over_budget_raises(self, monkeypatch):
        # a finite value whose estimate is over its budget is refused, as
        # for every pairing
        monkeypatch.setattr(hardy, "_pv_point", lambda f, x: (0.1, 1.0))
        with pytest.raises(QuadratureError, match="above tolerance"):
            hilbert_line(cauchy_pair(), [0.5])

    def test_narrow_piece_closed_form(self):
        # H[1_[1,2)](x) = (1/pi) log|(x - 1)/(x - 2)|: a 100-wide
        # Cauchy-weight window around x never sampled the box, and read 0
        # with estimate 0 at each x here below 1e6; 1e-12 from an end,
        # where the density jumps, the value is still read
        box = Measure1D(pieces=(Piece(1.0, 2.0, lambda t: np.ones_like(
            np.asarray(t, dtype=float)), 1.0),))
        x = np.array([-3.0, 0.5, 1.0 + 1e-12, 1.5, 1.9, 2.0 - 1e-12, 2.5,
                      40.0, 1e6])
        exact = np.log(np.abs((x - 1.0) / (x - 2.0))) / np.pi
        vals, _ = hilbert_line(box, x)
        assert vals == pytest.approx(exact, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("x", [1.0, 2.0])
    def test_density_jump_refused(self, x):
        # the principal value diverges at a box end, where it read -11.91
        # and 11.69 with estimates near 1.2e-13
        box = Measure1D(pieces=(Piece(1.0, 2.0, lambda t: np.ones_like(
            np.asarray(t, dtype=float)), 1.0),))
        with pytest.raises(MeasureError,
                           match=re.escape(f"jumps by 1 at the piece end "
                                           f"x={x}")):
            hilbert_line(box, [0.5, x])

    def test_hardy_identity_across_the_split(self):
        # H f = -i f for f = 1/(t + i)^2, the boundary value of a function
        # holomorphic in the upper half-plane; f is continuous across its
        # split at 0, so that piece end is no jump
        x = np.linspace(-3.0, 3.0, 13)
        vals, _ = hilbert_line(hardy_plus(), x)
        want = -1j * hardy_plus().density_at(x)
        assert np.all(np.abs(vals - want) <= error_budget(want))

    def test_cauchy_far_from_origin(self):
        # x/(pi (1 + x^2)) as 1/(pi (x + 1/x)); the window and its plain
        # remainder missed half the mass from x ~ 1.1e5 to 7e6, up to 74
        # times the budget, with estimates near 1e-11
        def rho(t):
            return 1.0 / (np.pi * (1.0 + np.asarray(t) ** 2))

        tp = {"tail_c": 1.0 / np.pi, "tail_p": 2.0}
        f = Measure1D(pieces=(Piece(-np.inf, 0.0, rho, 0.5, params=tp),
                              Piece(0.0, np.inf, rho, 0.5, params=tp)))
        x = np.logspace(0.0, 15.0, 31)
        exact = 1.0 / (np.pi * (x + 1.0 / x))
        vals, _ = hilbert_line(f, x)
        assert np.all(np.abs(vals - exact) <= error_budget(exact))

    def test_pi2_cauchy_pair_off_origin(self):
        # the pi2 image reads NaN at x = 0, where its limit is unknown: a
        # Cauchy-weight window around +-25 sampled it and refused a NaN
        # estimate.  At m = 2 pi, sigma = -1/t, and by intertwining
        # H[pi2](sigma) = t^2 H[pi1](t) with H[P_1 - P_2] in closed form
        nu2 = compress_pi2(HyperbolaMeasure(2.0 * np.pi, cauchy_pair()))
        sigma = np.array([25.0, -25.0])
        t = -1.0 / sigma
        exact = t**2 * (t / (1.0 + t**2) - t / (4.0 + t**2)) / np.pi
        vals, _ = hilbert_line(nu2, sigma)
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals - exact) <= error_budget(exact))
        # x = 0 is a piece end of the image, read at 0 and one ulp below
        # for a jump without a warning; t^2 H[pi1](t) -> 0 as t -> inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, _ = hilbert_line(nu2, [0.0])
        assert abs(vals[0]) <= error_budget(0.0)


class TestHilbertHyperbola:
    def test_intertwining_routes_agree(self):
        f = cauchy_pair()
        t_grid = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        agreement = hilbert_hyperbola(HyperbolaMeasure(2.0 * np.pi, f),
                                      t_grid)[2]
        assert agreement <= 1e-6

    def test_nonzero_mass_rejected(self):
        bad = Measure1D(atoms=((1.0, 1.0),))
        with pytest.raises(MeasureError):
            hilbert_hyperbola(HyperbolaMeasure(2.0 * np.pi, bad),
                              np.array([1.0]))

    def test_sign_identity_on_axis(self):
        # FT(H f)(xi1, 0) = i sgn(xi1) FT(f)(xi1, 0) for the Cauchy pair,
        # using the closed-form Hilbert transform as the lifted measure
        def h_rho(t):
            t = np.asarray(t)
            return (t / (1.0 + t**2) - t / (4.0 + t**2)) / np.pi

        tp = {"tail_c": 2.0, "tail_p": 2.0}
        hf = HyperbolaMeasure(2.0 * np.pi, Measure1D(pieces=(
            Piece(-np.inf, 0.0, h_rho, 1.0, params=tp),
            Piece(0.0, np.inf, h_rho, 1.0, params=tp))))
        for xi1 in (-2.0, -1.0, 1.0, 2.0):
            lhs = ft_point(hf, (xi1, 0.0))[0]
            # hat f(xi1) for P_1 - P_2 with the e^{i pi xi1 t} convention
            w = np.pi * abs(xi1)
            rhs = 1j * np.sign(xi1) * (np.exp(-w) - np.exp(-2.0 * w))
            assert lhs == pytest.approx(rhs, abs=1e-5)


class TestTimelikeWitness:
    def test_all_pairings_vanish(self):
        vals, _ = timelike_witness(1j, 1.0, 3, 3)
        assert len(vals) == 8
        assert max(abs(v) for v in vals) <= 1e-6

    def test_lower_half_plane_rejected(self):
        with pytest.raises(MeasureError):
            timelike_witness(-1j, 1.0, 2, 2)

    @pytest.mark.parametrize("im", [1e-3, 0.1])
    def test_small_im_rows_vanish(self, im, monkeypatch):
        # the poles lie im from t = 0 and t = 2; one mass integral of
        # f(t) + f(-t) from t = 0 meets its budget where one per half-line
        # missed it (estimate 2.8e-8 at im = 1e-3, 2.6e-8 at im = 0.1).  The
        # tails the Ooura-Mori rule misses near the poles take the rescue
        # step, QAWO up to 16 max(a, 1) and the rule from there, so no
        # Fourier-weight QUADPACK call runs to b = inf (only the mass row's
        # plain quad does); at im = 0.1 the rows read 4.2e-15 (4.2e-13 when
        # QAWF took those tails)
        ends = []

        def spy(f, a, b, **kwargs):
            if "weight" in kwargs:
                ends.append(b)
            return quad(f, a, b, **kwargs)
        monkeypatch.setattr(fourier, "quad", spy)
        vals, _ = timelike_witness(complex(0.0, im), 1.0, 10, 10)
        assert len(vals) == 22
        assert max(abs(v) for v in vals) <= (
            1e-13 if im == 0.1 else error_budget(0.0))
        assert ends and np.inf not in ends

    @pytest.mark.parametrize("beta", [0.3, 1.0])
    @pytest.mark.parametrize("im", [1e-8, 1e-6, 3e-5, 1e-4, 1e-3])
    def test_k_rows_within_budget_of_zero_or_refused(self, im, beta):
        # the k rows, w = 0 and c = pi beta k: each is within its budget of
        # the exact 0, or a QuadratureError.  The pairings alone read wrong
        # values with in-budget estimates from Im z0 = 3.2e-5 down: there
        # |value| 2.4e-5 at k = 1 (beta = 0.3, estimate 6.9e-9), and at 1e-8
        # |value| 2e-8 at k = 0 (estimate 1.7e-13)
        k = np.arange(11)
        try:
            vals, errs = hardy._witness_pairings(
                complex(0.0, im), np.zeros(k.size), -np.pi * beta * k,
                [f"k = {i}" for i in k])
        except QuadratureError:
            return
        assert im >= hardy.WITNESS_MIN_IM
        assert np.all(np.abs(vals) <= error_budget(0.0))
        assert np.all(errs <= error_budget(vals))

    def test_refused_below_smallest_im(self):
        # rows within budget at Im z0 = 5.6e-5 (beta = 1) are refused too:
        # below 1e-4 their estimates are not reliable
        with pytest.raises(QuadratureError, match="not reliable"):
            timelike_witness(complex(0.0, 5.6e-5), 1.0, 10, 10)
        assert len(timelike_witness(complex(0.0, 1e-4), 1.0, 10, 10)[0]) == 22

    def test_nonzero_row_raises(self, monkeypatch):
        # a row inside its error budget whose value is not the exact 0
        monkeypatch.setattr(hardy, "pairing", lambda nu, w, c: (
            np.ones(np.shape(w), dtype=complex), np.zeros(np.shape(w))))
        with pytest.raises(QuadratureError,
                           match="residue identity gives 0"):
            timelike_witness(1j, 1.0, 2, 2)
