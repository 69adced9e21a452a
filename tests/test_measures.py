import numpy as np
import pytest

from hyperlab.annihilators import periodization_sum1, piece_mass

from hyperlab.measures import (HyperbolaMeasure, Measure1D, MeasureError,
                               Piece, compress_pi2,
                               piece_from_family, pushforward_inversion,
                               total_variation)
from measure_helpers import restrict


def cauchy1p_measure():
    return Measure1D(pieces=(
        piece_from_family(0.0, 1.0, "cauchy1p", {"scale": 1.0 + 0.0j},
                          np.log(2.0)),))


class TestMeasure1D:
    def test_overlapping_pieces_rejected(self):
        p1 = Piece(0.0, 2.0, lambda t: np.ones_like(t), 2.0)
        p2 = Piece(1.0, 3.0, lambda t: np.ones_like(t), 2.0)
        with pytest.raises(MeasureError):
            Measure1D(pieces=(p1, p2))

    def test_empty_piece_rejected(self):
        with pytest.raises(MeasureError):
            Piece(1.0, 1.0, lambda t: t, 0.0)

    def test_density_at_respects_support(self):
        mu = cauchy1p_measure()
        t = np.array([-0.5, 0.5, 1.5])
        vals = mu.density_at(t)
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(1.0 / 1.5)
        assert vals[2] == 0.0


class TestTotalVariation:
    def test_atoms_plus_density(self):
        mu = Measure1D(atoms=((2.0, 3.0 + 4.0j),),
                       pieces=cauchy1p_measure().pieces)
        # |3+4i| + int_0^1 dt/(1+t) = 5 + log 2
        assert total_variation(mu) == pytest.approx(5.0 + np.log(2.0),
                                                    abs=1e-10)

    def test_zero_measure(self):
        assert total_variation(Measure1D()) == 0.0


class TestRestrict:
    def test_restrict_halves_support(self):
        mu = cauchy1p_measure()
        left = restrict(mu, 0.0, 0.5)
        assert total_variation(left) == pytest.approx(np.log(1.5), abs=1e-10)

    def test_restrict_cuts_bin_tables(self):
        # a binned table to [a, b), an image's (s = 2) to [s/b, s/a)
        edges, values = np.arange(9) / 8, np.arange(1.0, 9.0)
        mu = Measure1D(pieces=(
            piece_from_family(0.0, 1.0, "binned",
                              {"edges": edges, "values": values}, 1.0),
            piece_from_family(2.0, np.inf, "binned",
                              {"edges": edges, "values": values, "s": 2.0},
                              1.0)))
        left, right = restrict(mu, 0.3, 5.0).pieces
        assert left.params["edges"].tolist() == [0.3, 0.375, 0.5, 0.625,
                                                 0.75, 0.875, 1.0]
        assert left.params["values"].tolist() == [3.0, 4.0, 5.0, 6.0, 7.0,
                                                  8.0]
        assert right.params["edges"].tolist() == [0.4, 0.5, 0.625, 0.75,
                                                  0.875, 1.0]
        assert right.params["values"].tolist() == [4.0, 5.0, 6.0, 7.0, 8.0]

    def test_table_missing_its_piece_rejected(self):
        with pytest.raises(MeasureError):
            piece_from_family(2.0, 3.0, "binned", {
                "edges": [0.0, 0.5, 1.0], "values": [1.0, 1.0]}, 1.0)

    def test_restrict_drops_outside_atoms(self):
        mu = Measure1D(atoms=((0.25, 1.0), (0.75, 1.0)))
        assert restrict(mu, 0.5, 1.0).atoms == ((0.75, 1.0),)


class TestHyperbolaMeasure:
    def test_atom_at_zero_rejected(self):
        with pytest.raises(MeasureError):
            HyperbolaMeasure(2.0 * np.pi, Measure1D(atoms=((0.0, 1.0),)))

    def test_piece_straddling_zero_rejected(self):
        bad = Measure1D(pieces=(
            Piece(-1.0, 1.0, lambda t: np.ones_like(t), 2.0),))
        with pytest.raises(MeasureError):
            HyperbolaMeasure(2.0 * np.pi, bad)

    def test_nonpositive_m_rejected(self):
        with pytest.raises(MeasureError):
            HyperbolaMeasure(0.0, Measure1D())


class TestCompressions:
    def test_pi2_atom_location(self):
        # atom at t=1 on Gamma_{2pi} sits at x2 = -m^2/(4 pi^2 t) = -1
        mu = HyperbolaMeasure(2.0 * np.pi, Measure1D(atoms=((1.0, 1.0),)))
        nu = compress_pi2(mu)
        assert nu.atoms[0][0] == pytest.approx(-1.0)

    def test_pi2_preserves_total_variation(self):
        mu = HyperbolaMeasure(2.0 * np.pi, cauchy1p_measure())
        nu = compress_pi2(mu)
        assert total_variation(nu) == pytest.approx(
            total_variation(mu.pi1), rel=1e-8)

    def test_inversion_pushforward_density(self):
        # t -> 1/t pushes dt/(1+t) on [0,1) to dt/(t(1+t)) on (1, inf)
        nu = pushforward_inversion(cauchy1p_measure(), 1.0)
        t = np.array([2.0, 3.0])
        assert np.allclose(nu.density_at(t), 1.0 / (t * (1.0 + t)))


class TestImagePieces:
    def test_pushforward_toggles_the_image(self):
        # under t -> 2/t a family piece becomes its image and back; under
        # another s the image is a dilation of the family density
        p = cauchy1p_measure().pieces[0]
        img = pushforward_inversion(Measure1D(pieces=(p,)), 2.0).pieces[0]
        assert (img.family, img.image_s, img.a, img.b) == (
            "cauchy1p", 2.0, 2.0, np.inf)
        back = pushforward_inversion(Measure1D(pieces=(img,)), 2.0).pieces[0]
        assert (back.family, back.image_s, back.a, back.b) == (
            "cauchy1p", None, 0.0, 1.0)
        dil = pushforward_inversion(Measure1D(pieces=(img,)), 3.0).pieces[0]
        assert (dil.family, dil.a, dil.b) == (None, 0.0, 1.5)
        x = np.array([0.0, 0.5, 1.2])
        assert np.allclose(dil.density(x), (2.0 / 3.0) / (1.0 + 2.0 * x / 3.0))

    def test_image_density_is_the_composition(self):
        # w(s/x) s/x^2, read at the images s/e_k of the bin edges too,
        # with the table read on (e_k, e_{k+1}]: the image bins
        # [s/e_{k+1}, s/e_k) are half-open like every piece
        edges, values = np.arange(9) / 8, np.arange(1.0, 9.0)
        img = piece_from_family(2.0, np.inf, "binned", {
            "edges": edges, "values": values, "s": 2.0}, 1.0)
        x = np.r_[2.0 / edges[1:], 2.5, 7.0, 40.0]
        k = np.searchsorted(edges, 2.0 / x, side="left") - 1
        # x = 2 reads u = 1, the table's last bin
        assert k[-4] == 7
        want = values[k] * 2.0 / x**2
        assert np.array_equal(Measure1D(pieces=(img,)).density_at(x), want)
        # an image reaching x = 0, the image of t = inf, reads 0 there
        # (0 * inf there read NaN)
        img = piece_from_family(0.0, 2.0, "binned", {
            "edges": [0.5, 1.0], "values": [1.0], "s": 1.0}, 1.0)
        assert np.array_equal(Measure1D(pieces=(img,)).density_at(
            [0.0, 0.5, 1.0, 1.5]), [0.0, 0.0, 1.0, 1.0 / 1.5**2])

    def test_nonpositive_s_rejected(self):
        with pytest.raises(MeasureError):
            piece_from_family(1.0, 2.0, "cauchy1p", {"scale": 1.0, "s": -1.0},
                              1.0)

    def test_generic_piece_with_s_is_not_an_image(self):
        # an s among a generic piece's params marks nothing: its infinite
        # tail still needs a majorant, and it has no closed-form sums
        p = Piece(1.0, np.inf, lambda t: np.asarray(t) ** -2.0, 1.0,
                  params={"s": 2.0})
        assert p.image_s is None
        with pytest.raises(MeasureError):
            p.check_integrable()
        with pytest.raises(MeasureError):
            periodization_sum1(Measure1D(pieces=(p,)), np.array([0.5]))
        with pytest.raises(MeasureError):
            piece_mass(p)


class TestTailBounds:
    def test_certified_tail_majorant(self):
        pc = Piece(0.0, np.inf, lambda t: 1.0 / (1.0 + np.asarray(t)) ** 2,
                   1.0, params={"tail_c": 1.0, "tail_p": 2.0})
        pc.check_integrable()

    def test_infinite_piece_without_majorant_rejected(self):
        pc = Piece(0.0, np.inf, lambda t: np.exp(-np.asarray(t)), 1.0)
        with pytest.raises(MeasureError):
            pc.check_integrable()

    def test_tail_beyond_finite_support_is_zero(self):
        pc = cauchy1p_measure().pieces[0]
        pc.check_integrable()
