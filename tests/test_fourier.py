import json
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hyperlab.annihilators import (critical_annihilator,
                                   expanded_annihilator, total_mass)
from hyperlab.fourier import (ABS_TOL, REL_TOL, QuadratureError, _diagnosed,
                              _osc, _refusal, _t_chart, _within_budget,
                              critical_measure_ft, error_budget, ft_on_cross,
                              ft_point, pairing)
from hyperlab.hardy import inversion_j
from hyperlab.measures import MAX_CROSS_POINTS, HyperbolaMeasure, \
    LatticeCross, Measure1D, Piece, piece_from_family
from hyperlab.sici import exp_integral
from hyperlab.transfer import invariant_density
from measure_helpers import restrict, run_child

M = 2.0 * np.pi


def lift(nu):
    return HyperbolaMeasure(M, nu)


def ft_oracle(nu, xi1, xi2, t_hi=2000.0):
    """Direct slow quadrature of int e^{i(pi xi1 t - pi xi2 / t)} d nu."""
    w, c = np.pi * xi1, np.pi * xi2

    def f(t):
        return nu.density_at(np.array([t]))[0] * np.exp(1j * (w * t - c / t))

    total = 0.0 + 0.0j
    for pc in nu.pieces:
        a, b = pc.a, min(pc.b, t_hi)
        re, _ = quad(lambda t: f(t).real, a, b, limit=4000)
        im, _ = quad(lambda t: f(t).imag, a, b, limit=4000)
        total += complex(re, im)
    return total


class TestFtPoint:
    def test_atom_mass_at_origin(self):
        mu = lift(Measure1D(atoms=((1.0, 1.0),)))
        assert ft_point(mu, (0.0, 0.0))[0] == pytest.approx(1.0)

    def test_atom_unit_exponential(self):
        # atom at t=1: e^{i pi (2 - (-?))} at xi=(2,0) -> e^{2 pi i} = 1
        mu = lift(Measure1D(atoms=((1.0, 1.0),)))
        assert ft_point(mu, (2.0, 0.0))[0] == pytest.approx(1.0)

    def test_density_mass_at_origin(self):
        nu = critical_annihilator()
        assert abs(ft_point(lift(nu), (0.0, 0.0))[0]) <= 1e-12

    @pytest.mark.parametrize("j", [1, 2, 3, -2])
    def test_critical_annihilator_vanishes_at_integers(self, j):
        nu = critical_annihilator()
        assert abs(ft_point(lift(nu), (2 * j, 0.0))[0]) <= 1e-10

    def test_against_direct_quadrature_oracle(self):
        nu = Measure1D(pieces=(
            Piece(0.5, 2.0, lambda t: 1.0 / (1.0 + np.asarray(t) ** 2),
                  1.0),))
        for xi in ((0.7, 0.0), (0.0, 1.3), (1.1, -0.6)):
            assert ft_point(lift(nu), xi)[0] == pytest.approx(
                ft_oracle(nu, *xi), abs=1e-8)

    @pytest.mark.parametrize("xi", [(1000.0, 0.5), (1e4, 0.2), (1e4, 0.3),
                                    (1e4, 2.0), (3.0, 0.7)])
    def test_off_axis_matches_swapped_phases(self, xi):
        # with both phases large, the image chart below t* = sqrt|c/w| and
        # the t chart above it stay within budget; J_1 (t -> -1/t) swaps the
        # two phases, so its pairing at (c, w) is the same integral,
        # computed with the charts the other way round
        nu = critical_annihilator()
        w, c = np.pi * xi[0], M**2 * xi[1] / (4.0 * np.pi)
        val = ft_point(lift(nu), xi)[0]
        swapped, err = pairing(inversion_j(nu, 1.0), c, w)
        assert err <= error_budget(swapped)
        assert abs(val - swapped) <= 1e-8

    def test_nan_result_is_over_budget(self):
        # QUADPACK returns NaN at this frequency; a NaN compares False
        # with any budget, so it must be refused by name
        val, _ = pairing(critical_annihilator(), np.pi * 1e300, 0.0)
        assert np.isnan(val)
        with pytest.raises(QuadratureError, match="non-finite"):
            ft_point(lift(critical_annihilator()), (1e300, 0.0))
        with pytest.raises(QuadratureError, match="nan above tolerance"):
            _within_budget(1.0, np.nan, ["estimate"])

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        nu1 = Measure1D(atoms=((1.0, 1.0), (2.5, -0.5j)))
        nu2 = Measure1D(atoms=((0.5, 2.0),))
        xi = tuple(rng.normal(size=2))
        combo = Measure1D(atoms=tuple((x, a * m) for x, m in nu1.atoms)
                          + tuple((x, b * m) for x, m in nu2.atoms))
        lhs = ft_point(lift(combo), xi)[0]
        rhs = (a * ft_point(lift(nu1), xi)[0]
               + b * ft_point(lift(nu2), xi)[0])
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_nonfinite_frequency_raises_cleanly(self):
        # a NaN or infinite frequency is refused before any rule runs, and
        # one so small that the Ooura-Mori tail's nodes, up to 534 / |w|,
        # pass the largest float (here on a generic density on [0, inf)) is
        # refused before the rule samples anything; in a child process, so
        # that a crash fails this test alone
        script = """
import numpy as np
from hyperlab.annihilators import critical_annihilator
from hyperlab.fourier import QuadratureError, _osc, ft_point, pairing
from hyperlab.measures import HyperbolaMeasure, Measure1D, Piece

mu = HyperbolaMeasure(2.0 * np.pi, critical_annihilator())
calls = [lambda xi=xi: ft_point(mu, xi)
         for xi in ((np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0))]
cauchy = Measure1D(pieces=(Piece(
    0.0, np.inf, lambda t: 1.0 / (np.pi * (1.0 + t * t)), 0.5,
    params={"tail_c": 1.0 / np.pi, "tail_p": 2.0}),))
calls += [lambda w=w: pairing(cauchy, w, 0.0)
          for w in (np.pi * 5e-324, np.pi * 1e-308)]
calls += [lambda a=a, b=b, w=w: _osc(np.exp, a, b, w)
          for a, b, w in ((1.0, np.inf, np.nan), (1.0, np.inf, np.inf),
                          (1.0, 2.0, -np.inf), (1.0, np.nan, 1.0))]
for call in calls:
    try:
        call()
        print("returned")
    except QuadratureError:
        print("QuadratureError")
"""
        res = run_child("-c", script, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["QuadratureError"] * 9


def test_huge_xi2_pairs_at_a_finite_c(expanded15):
    # c = m^2 xi2 / (4 pi) = pi xi2 is finite up to |xi2| ~ 5.7e307, but
    # m^2 xi2 overflowed from ~4.5e306, and the point was refused at c =
    # inf; from ~1e305 the binned axis-2 primitive's -c/t overflows at the
    # smallest edges, where E_2 read NaN: each with numpy's warnings.  The
    # transform there is of order 1/c, in closed form
    mu = HyperbolaMeasure(M, expanded15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi2 in (1e306, 1e307, -5e307):
            val, err = ft_point(mu, (0.0, xi2))
            assert err == 0.0
            assert 0.0 < abs(val) <= 10.0 / abs(xi2)


# ft-eval at xi = (0, xi2) in a child process: [exit code, stdout, stderr]
_TINY_XI2_CHILD = """
import contextlib, io, json, sys, traceback
from hyperlab.cli import main
for xi2 in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ft-eval", "--xi2", repr(xi2)])
    except Exception:
        code, err = None, io.StringIO(traceback.format_exc())
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""
TINY_XI2 = [1e-300, 1e-200, 1e-9, 1e-7, 1e-6]


@pytest.fixture(scope="module")
def tiny_xi2_results():
    res = run_child("-c", _TINY_XI2_CHILD, input=json.dumps(TINY_XI2),
                    timeout=300)
    return [json.loads(ln) for ln in res.stdout.splitlines()], res.stderr


@pytest.mark.parametrize("case", range(len(TINY_XI2)),
                         ids=[repr(x) for x in TINY_XI2])
def test_tiny_xi2_meets_oracle_or_raises(case, tiny_xi2_results):
    # on the critical measure ft(0, xi2) = -critical_measure_ft(-xi2/2);
    # a tiny xi2 either meets it within ft_point's error budget or is a
    # QuadratureError record, never a traceback or a wrong value
    results, stderr = tiny_xi2_results
    assert case < len(results), stderr
    code, out, err = results[case]
    assert "Traceback" not in err
    if code == 1:
        assert "message" in json.loads(err)
        return
    assert code == 0
    rec = json.loads(out)
    val = complex(rec["re"], rec["im"])
    oracle = -critical_measure_ft(-TINY_XI2[case] / 2.0)
    assert abs(val - oracle) <= 100.0 * (ABS_TOL + REL_TOL * abs(val)) \
        + 1e-8


@pytest.mark.parametrize("xi2", [1e-9, 1e-7, 1e-6, 1e-5, 1e-3, 0.3])
def test_small_xi2_matches_closed_form(xi2):
    # the [0, 1) piece pairs as its image on [1, inf) under t -> 1/t, where
    # the c/t phase is a linear one: cut at 16^i up to 1/|c|, then the
    # Ooura-Mori tail
    val = ft_point(lift(critical_annihilator()), (0.0, xi2))[0]
    assert val == pytest.approx(-critical_measure_ft(-xi2 / 2.0), abs=1e-11)


@pytest.mark.parametrize("xi2", [400.0, 700.0, -1000.0, 1e4, 1e5, 1e6, 1e7,
                                 1e8])
def test_large_xi2_matches_closed_form(xi2):
    # the piece on [1, inf) is paired in its family chart [0, 1), where the
    # c/t phase near t = 1 becomes a linear one under QAWO
    val = ft_point(lift(critical_annihilator()), (0.0, xi2))[0]
    assert val == pytest.approx(-critical_measure_ft(-xi2 / 2.0), abs=1e-11)


@pytest.mark.parametrize("xi1", [5e-324, 1e-308, 1e-300, 1e-9, 1e-7, 1e-6])
def test_tiny_xi1_matches_closed_form(xi1):
    # the image piece on [1, inf) is paired in its family chart [0, 1),
    # where the w t phase becomes a c/u one, and that piece as its image
    # under u -> 1/u: cut at 16^i up to 1/|w|, then the Ooura-Mori tail,
    # or below |w| = 1e-300, whose tail nodes pass the largest float, up
    # to 1e300
    val = ft_point(lift(critical_annihilator()), (xi1, 0.0))[0]
    assert val == pytest.approx(critical_measure_ft(xi1 / 2.0), abs=1e-11)


@pytest.fixture(scope="module")
def expanded15():
    return expanded_annihilator(1.5, invariant_density(1.5, 512))


class TestPairing:
    def test_density_warning_reaches_the_caller(self):
        # a density's own warning is not a QUADPACK message: the caller
        # sees it, and no refusal carries it (a recorder of the warnings
        # around each QUADPACK call once re-showed it into its own record
        # without end)
        def rho(t):
            warnings.warn("density probe", UserWarning)
            return 1.0
        nu = Measure1D(pieces=(Piece(0.5, 2.0, rho, 1.5),))
        with pytest.warns(UserWarning, match="density probe"):
            with _diagnosed():
                vals, errs = pairing(nu, [0.0, 1.0], 0.0)
                assert str(_refusal("probe")) == "probe"
        assert vals[0] == pytest.approx(1.5, abs=1e-12)
        assert vals[1] == pytest.approx((np.exp(2j) - np.exp(0.5j)) / 1j,
                                        abs=1e-12)
        assert np.all(errs <= 1e-10)

    @pytest.mark.parametrize("kind", ["critical", "expanded"])
    @pytest.mark.parametrize("first_piece_only", [False, True])
    def test_origin_pairing_is_total_mass(self, kind, first_piece_only,
                                          expanded15):
        nu = critical_annihilator() if kind == "critical" else expanded15
        if first_piece_only:
            nu = restrict(nu, 0.0, 1.0)
        val, err = pairing(nu, 0.0, 0.0)
        assert val == pytest.approx(total_mass(nu), abs=1e-12)
        assert 0.0 <= err <= ABS_TOL

    def test_restricted_table_pairs_only_its_piece(self, expanded15):
        # restrict cuts the bin table to [0.13, 0.61): the origin pairing
        # is the piece's mass, and the w = 3 pairing the sum of the bins'
        # integrals of e^{3it} clipped to the piece
        edges = expanded15.pieces[0].params["edges"]
        values = expanded15.pieces[0].params["values"]
        lo = np.clip(edges[:-1], 0.13, 0.61)
        hi = np.clip(edges[1:], 0.13, 0.61)
        nu = restrict(expanded15, 0.13, 0.61)
        mass = pairing(nu, 0.0, 0.0)[0]
        assert mass == pytest.approx(np.sum(values * (hi - lo)), abs=1e-12)
        assert mass == pytest.approx(total_mass(nu), abs=1e-12)
        brute = np.sum(values * (np.exp(3j * hi) - np.exp(3j * lo)) / 3j)
        assert pairing(nu, 3.0, 0.0)[0] == pytest.approx(brute, abs=1e-12)

    def test_on_axis_table_rows_match_per_row_closed_form(self,
                                                          expanded15):
        # 300 rows per axis span several row blocks of the closed forms,
        # whose arithmetic is that of one row at a time: equal values
        p = expanded15.pieces[0]
        edges, values = p.params["edges"], p.params["values"]
        assert edges[0] == 0.0
        f = np.arange(1.0, 301.0)
        val, err = pairing(Measure1D(pieces=(p,)), np.r_[f, 0.0 * f],
                           np.r_[0.0 * f, f])
        t = edges[1:]
        want = [np.sum(values * np.diff(np.exp(1j * x * edges) / (1j * x)))
                for x in f]
        want += [np.sum(values * np.diff(
            np.r_[0.0, t * exp_integral(2, -x / t)])) for x in f]
        assert np.array_equal(val, want)
        assert not np.any(err)

    def test_axis2_bin_near_zero_matches_image_chart_oracle(self):
        # one bin [1/4096, 2/4096) at w = 0, c = 60 pi, where |c/t| reaches
        # 7.7e5: the primitive t e^{-ic/t} - ic E(-c/t) cancelled there to
        # 2e-5 relative with an estimate of 0.  Oracle: QAWO in the chart
        # u = 1/t, the integral of e^{-icu} / u^2 over (2048, 4096]
        a, b, c = 1.0 / 4096.0, 2.0 / 4096.0, 60.0 * np.pi
        nu = Measure1D(pieces=(piece_from_family(
            a, b, "binned", {"edges": np.array([a, b]),
                             "values": np.array([1.0])}, b - a),))
        val, err = pairing(nu, 0.0, c)
        re, im = (quad(lambda u: u ** -2.0, 1.0 / b, 1.0 / a, weight=kind,
                       wvar=c, epsabs=1e-21)[0] for kind in ("cos", "sin"))
        want = complex(re, -im)
        assert abs(val - want) <= 1e-9 * abs(want)
        assert err == 0.0

    @pytest.mark.parametrize("w, c", [(np.pi, np.pi),
                                      (10.0 * np.pi, np.pi / 2.0)])
    def test_off_axis_table_pairing_matches_per_bin_quad(self, w, c,
                                                         expanded15):
        # both phases live: a restricted binned piece, and a restricted
        # image of one (density -v(s/t) s/t^2, s = 1.5), each away from
        # t = 0, against quad over each bin's part of the piece
        s = 1.5
        edges = expanded15.pieces[0].params["edges"]
        values = expanded15.pieces[0].params["values"]
        nu = Measure1D(pieces=restrict(expanded15, 0.2, 0.7).pieces
                       + restrict(expanded15, 2.1, 7.3).pieces)
        assert [(p.family, p.image_s) for p in nu.pieces] == [
            ("binned", None), ("binned", s)]

        def bins(lo, hi, vals, weight):
            total = 0.0 + 0.0j
            for a, b, v in zip(lo, hi, vals):
                if a < b:
                    total += v * quad(
                        lambda t: weight(t) * np.exp(1j * (w * t - c / t)),
                        a, b, complex_func=True, epsabs=1e-14,
                        epsrel=1e-13)[0]
            return total
        near = np.clip(edges, 0.2, 0.7)
        with np.errstate(divide="ignore"):
            far = np.clip(s / edges, 2.1, 7.3)
        want = bins(near[:-1], near[1:], values, lambda t: 1.0) \
            + bins(far[1:], far[:-1], -values, lambda t: s / t**2)
        val, err = pairing(nu, w, c)
        assert abs(val - want) <= 1e-9
        # each bin reports the estimate its QUADPACK integrals achieved
        assert 0.0 < err <= 1e-9

    def test_nonfinite_sample_at_tail_start_raises_cleanly(self):
        # A piece from t = 0 starts its tail at 1e-300, where a QUADPACK
        # rule's lower Clenshaw-Curtis node over [1e-300, b) rounds to 0.0:
        # the image of a tail_p <= 2 density (here the hardy-defect test
        # measure's) cannot be read there, and e^{-t}/sqrt(t) reads inf.
        # The Ooura-Mori rule never samples t = 0: both pairings meet their
        # closed forms (0, as J_1.5 of 1/(t + i)^2 is -1.5/(t + 1.5i)^2,
        # and sqrt(pi / (1 - i pi))) within their estimates.  With the rule
        # made to miss everywhere, the rescue step misses from 16 max(a, 1)
        # too, and both raise its QuadratureError, which carries the
        # rule's finite estimate, before QAWO samples anything.  In a child
        # process, so that a crash fails this test alone
        script = """
import numpy as np
from hyperlab import fourier
from hyperlab.cli import _hardy_test_measure
from hyperlab.fourier import QuadratureError, pairing
from hyperlab.hardy import inversion_j
from hyperlab.measures import Measure1D, Piece

root = Measure1D(pieces=(Piece(
    0.0, np.inf, lambda t: np.exp(-t) / np.sqrt(t), 2.0,
    params={"tail_c": 1.0, "tail_p": 3.0}),))
calls = [(lambda: pairing(inversion_j(_hardy_test_measure(False), 1.5),
                          np.pi * np.array([1.0, 2.0]), 0.0), 0.0),
         (lambda: pairing(root, np.pi, 0.0),
          np.sqrt(np.pi / (1 - 1j * np.pi)))]
om_tail = fourier._om_tail

def rejected(gs, a, mags):
    cos, sin, est, ok = om_tail(gs, a, mags)
    return cos, sin, est, np.zeros_like(ok)
for forced in (False, True):
    if forced:
        fourier._om_tail = rejected
    for call, want in calls:
        try:
            with np.errstate(all="ignore"):
                val, err = call()
            print("met" if np.all(np.abs(val - want) <= err) else "missed")
        except QuadratureError as exc:
            print("rescue" if str(exc).startswith("the Ooura-Mori tail at")
                  and np.isfinite(exc.error_estimate) else "QuadratureError")
"""
        res = run_child("-c", script, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["met"] * 2 + ["rescue"] * 2

    @pytest.mark.parametrize("lo", [-1.0, -0.5])
    def test_piece_straddling_zero_pairs_both_sides(self, lo):
        # a generic piece on [lo, 1) pairs as its two sides of t = 0; the
        # t chart's start at 1e-300 once dropped the side below 0, so
        # [-1, 1) read mass 1 and 0.047+0.663i at w = 3
        nu = Measure1D(pieces=(Piece(lo, 1.0, lambda t: np.ones_like(
            np.asarray(t, dtype=float)), 1.0 - lo),))
        w = np.array([0.0, 3.0, -3.0, 40.0])
        val, err = pairing(nu, w, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(w == 0.0, 1.0 - lo, (np.exp(1j * w)
                            - np.exp(1j * w * lo)) / (1j * w))
        assert np.max(np.abs(val - want)) <= 1e-12
        assert np.all(err <= 1e-9)

    def test_mixed_magnitudes_match_single_frequency_calls(self):
        # each |w| takes its own cut ladder: one ladder up to 1/min|w| =
        # 3e299 read NaN at |w| = pi 1e-9
        nu = Measure1D(pieces=(Piece(1.0, np.inf,
                                     lambda u: 1.0 / (u * (u + 1.0)), 1.0,
                                     params={"tail_c": 1.0,
                                             "tail_p": 2.0}),))
        w = np.pi * np.array([1e-300, 1e-9, -1e-9, 2.0])
        val, err = pairing(nu, w, 0.0)
        single = [pairing(nu, x, 0.0) for x in w]
        assert np.array_equal(val, [v for v, _ in single])
        assert np.array_equal(err, [e for _, e in single])
        assert np.all(np.abs(val[:3] - np.log(2.0)) <= 1e-7)

    @pytest.mark.parametrize("b", [2.0, np.inf])
    def test_repeated_and_mirrored_frequencies_match_single_calls(self, b):
        # one cos/sin pair per distinct |w| serves every entry at +-|w|, on
        # a finite cut (QAWO) and on a tail (Ooura-Mori), with a mirror
        # density that makes the two signs differ
        gs = (lambda t: 1.0 / (1.0 + t * t), lambda t: np.exp(-t))
        w = np.array([3.0, -3.0, 3.0, 5.0, -5.0])
        val, err = _osc(gs, 1.0, b, w)
        single = [_osc(gs, 1.0, b, w[i:i + 1]) for i in range(w.size)]
        assert np.array_equal(val, np.concatenate([v for v, _ in single]))
        assert np.array_equal(err, np.concatenate([e for _, e in single]))
        assert val[0] == val[2] and val[0] != val[1]

    @pytest.mark.parametrize("b", [1e4, np.inf])
    @pytest.mark.parametrize("mirrored", [False, True],
                             ids=["single", "mirrored"])
    def test_t_chart_ladders_match_single_row_calls(self, mirrored, b):
        # one t chart climbs the 16^i cut ladders of all its rows at once:
        # at c = 0 from 1, 0 to 3 cuts long as |w| falls, next to the mass
        # row w = 0, and at c = 0.01 from |c|; each row reads as its own call
        rhos = (lambda t: 1.0 / (1.0 + t * t), lambda t: np.exp(-t))
        rhos = rhos if mirrored else rhos[:1]
        w = np.array([0.0] + [1e-3, -1e-3, 0.02, 0.3, 5.0] * 2)
        c = np.repeat([0.0, 0.01], [6, 5])
        lo, hi = np.where(c == 0.0, 0.0, 1e-3), np.full(w.shape, b)
        val, err = _t_chart(rhos, lo, hi, w, c)
        single = [_t_chart(rhos, lo[i:i + 1], hi[i:i + 1], w[i:i + 1],
                           c[i:i + 1]) for i in range(w.size)]
        assert np.array_equal(val, np.concatenate([v for v, _ in single]))
        assert np.array_equal(err, np.concatenate([e for _, e in single]))
        mass = np.arctan(b) + (1.0 - np.exp(-b) if mirrored else 0.0)
        assert abs(val[0] - mass) <= err[0] + 1e-12


class TestLatticeCross:
    def test_deterministic_ordering(self):
        # axis 1 from -j_max to j_max, then axis 2: closed under xi -> -xi
        pts = LatticeCross(2.0, 3.0, 1, 2).points()
        assert pts == [(1, -1, -2.0, 0.0), (1, 0, 0.0, 0.0),
                       (1, 1, 2.0, 0.0), (2, -2, 0.0, -6.0),
                       (2, -1, 0.0, -3.0), (2, 0, 0.0, 0.0),
                       (2, 1, 0.0, 3.0), (2, 2, 0.0, 6.0)]

    @pytest.mark.parametrize("j_max, k_max", [(-1, 0), (0, -1)])
    def test_negative_index_bound_rejected(self, j_max, k_max):
        with pytest.raises(ValueError, match="nonnegative"):
            LatticeCross(2.0, 2.0, j_max, k_max)

    def test_point_budget_boundary(self):
        # 2 (j_max + k_max + 1) points: exactly the budget, then one more
        # index, which adds a point on each side of the origin
        reach = MAX_CROSS_POINTS // 2 - 1
        assert len(LatticeCross(2.0, 2.0, reach, 0).points()) \
            == MAX_CROSS_POINTS
        with pytest.raises(ValueError, match="over the budget"):
            LatticeCross(2.0, 2.0, reach, 1)

    def test_single_point_cross_gives_mass(self):
        mu = lift(Measure1D(atoms=((1.0, 3.0),)))
        cross = LatticeCross(2.0, 2.0, 0, 0)
        vals, _ = ft_on_cross(mu, cross)
        # the origin appears once per axis, same value
        assert len(vals) == 2
        assert vals[0] == pytest.approx(3.0)

    def test_zero_measure_cross_all_zero(self):
        vals, _ = ft_on_cross(lift(Measure1D()), LatticeCross(
            2.0, 2.0, 2, 2))
        assert all(v == 0.0 for v in vals)

    def test_critical_annihilator_positive_branch_pairings(self):
        nu = critical_annihilator()
        cross = LatticeCross(2.0, 2.0, 3, 3)
        vals, _ = ft_on_cross(lift(nu), cross)
        for (axis, index, _, _), v in zip(cross.points(), vals):
            assert abs(v) <= 1e-8, (axis, index)

    def test_reports_achieved_error(self):
        _, errs = ft_on_cross(lift(critical_annihilator()),
                              LatticeCross(2.0, 2.0, 3, 3))
        assert all(e >= 0.0 for e in errs)
        assert any(e != ABS_TOL for e in errs)

    def test_closed_form_rows_report_zero_error(self, expanded15):
        _, errs = ft_on_cross(lift(expanded15),
                              LatticeCross(2.0, 3.0, 2, 2))
        assert errs.tolist() == [0.0] * len(errs)


class TestCriticalMeasureFT:
    def test_vanishes_at_integers(self):
        for x in (1.0, 2.0, 5.0, -3.0):
            assert abs(critical_measure_ft(x)) <= 1e-12

    def test_nonzero_at_half(self):
        assert abs(critical_measure_ft(0.5)) > 0.05

    def test_conjugate_symmetry(self):
        for x in (0.3, 1.7, 2.2):
            assert critical_measure_ft(-x) == pytest.approx(
                np.conj(critical_measure_ft(x)), abs=1e-12)

    def test_agrees_with_ft_point_on_grid(self):
        nu = lift(critical_annihilator())
        for x in list(np.arange(0.1, 4.0, 0.1)) + [500.0, 5e4, 5e6]:
            direct = ft_point(nu, (2.0 * x, 0.0))[0]
            assert critical_measure_ft(x) == pytest.approx(direct, abs=1e-8)

