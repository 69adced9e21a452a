"""Acceptance gate: one printed pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py``; each test prints
``[criterion N] PASS/FAIL`` with the measured quantities.
"""

import time

import numpy as np
import pytest

from hyperlab.annihilators import (annihilator_report, critical_annihilator,
                                   expanded_annihilator, piece_mass)
from hyperlab.cli import main as cli_main
from hyperlab.defect import (CandidateBasis, build_constraint_matrix,
                             cosine_similarity, cross_for_gamma,
                             defect_estimate, distorted_cross_residual,
                             sweep_gamma)
from hyperlab.dynamics import coverage_fraction
from hyperlab.fourier import critical_measure_ft, ft_on_cross, ft_point
from hyperlab.hardy import (hardy_defect, hilbert_hyperbola, hilbert_line,
                            inversion_j, timelike_witness)
from hyperlab.measures import (HyperbolaMeasure, LatticeCross, Measure1D,
                               Piece, total_variation)
from hyperlab.sici import nielsen_spiral
from hyperlab.transfer import invariant_density

LOG2 = np.log(2.0)
M = 2.0 * np.pi


def report(label, ok, detail):
    line = f"[{label}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def density_4096():
    return invariant_density(1.0, 4096)


@pytest.fixture(scope="module")
def density_15_4096():
    return invariant_density(1.5, 4096)


def test_criterion_1_invariant_density(density_4096):
    t0 = time.perf_counter()
    dens = density_4096
    mid = 0.5 * (dens.edges[:-1] + dens.edges[1:])
    closed = 1.0 / ((1.0 + mid) * LOG2)
    l1 = float(np.sum(np.abs(dens.values - closed) * np.diff(dens.edges)))
    dt = time.perf_counter() - t0
    report("criterion 1", l1 <= 1e-3 and dt <= 30.0,
           f"Ulam(4096) vs closed form: L1 = {l1:.3e} (<= 1e-3), "
           f"runtime {dt:.1f}s (<= 30s)")


def test_criterion_2_critical_annihilator():
    mass, _, r1, r2 = annihilator_report(1.0, grid_n=10_000)
    nu = critical_annihilator()
    m0 = abs(piece_mass(nu.pieces[0]))
    m1 = abs(piece_mass(nu.pieces[1]))
    ok = (r1 <= 1e-8 and r2 <= 1e-8 and abs(mass) <= 1e-12
          and abs(m0 - LOG2) <= 1e-8 and abs(m1 - LOG2) <= 1e-8)
    report("criterion 2", ok,
           f"residuals ({r1:.2e}, {r2:.2e}) <= 1e-8, "
           f"mass {abs(mass):.2e} <= 1e-12, half-masses "
           f"|{m0:.12f}, {m1:.12f} - log2| <= 1e-8")


def test_criterion_3_closed_form_transform():
    ints = max(abs(critical_measure_ft(float(x))) for x in (1, 2, 3))
    xs = 0.005 + 0.01 * np.arange(400)
    vals = np.array([critical_measure_ft(float(x)) for x in xs])
    err_est = 1e-11  # si/ci building blocks are accurate to ~1e-12
    min_abs = float(np.min(np.abs(vals)))
    spiral_min = float(np.min(np.hypot(*nielsen_spiral(
        np.geomspace(0.01, 100.0, 10_000)))))
    ok = ints <= 1e-10 and min_abs >= 1e4 * err_est and spiral_min > 0.0
    report("criterion 3", ok,
           f"nu-hat at integers {ints:.2e} <= 1e-10; min |nu-hat| over 400 "
           f"non-integer points {min_abs:.3e} >= {1e4 * err_est:.0e}; "
           f"spiral min modulus {spiral_min:.3e} > 0")


def test_criterion_4_phase_transition():
    t0 = time.perf_counter()
    basis = CandidateBasis(0.08, 12.5, 202)
    _, defects = sweep_gamma(basis, [0.6, 0.8, 1.0, 1.2, 1.5],
                             j_max=640, k_max=640, threshold=1e-2)
    defects = defects.tolist()
    b1 = basis.with_anchor(1.0)
    est = defect_estimate(build_constraint_matrix(
        b1, cross_for_gamma(1.0, 640, 640)), 1e-2)
    cos = cosine_similarity(est.nullvectors[0],
                            b1.project(critical_annihilator()))
    dt = time.perf_counter() - t0
    ok = (defects[:3] == [0, 0, 1] and defects[3] >= 1 and defects[4] >= 1
          and cos >= 0.99 and dt <= 600.0)
    report("criterion 4", ok,
           f"defects {defects} (want 0,0,1,>=1,>=1), nullvector cosine "
           f"{cos:.6f} >= 0.99, runtime {dt:.1f}s (<= 600s)")


def test_criterion_5_expanded_annihilator(density_15_4096):
    from hyperlab.annihilators import periodized_residual, symmetry_residual
    nu = expanded_annihilator(1.5, density_15_4096)
    sym = symmetry_residual(nu, 1.5)
    r1, r2 = periodized_residual(nu, 1.5, 2000)
    cross = LatticeCross(2.0, 3.0, 20, 20)
    vals, _ = ft_on_cross(HyperbolaMeasure(M, nu), cross)
    worst = max(abs(v) for v in vals)
    ok = sym <= 1e-12 and r1 <= 5e-3 and r2 <= 5e-3 and worst <= 1e-3
    report("criterion 5", ok,
           f"symmetry {sym:.2e} <= 1e-12, periodized ({r1:.2e}, {r2:.2e}) "
           f"<= 5e-3, max cross pairing {worst:.2e} <= 1e-3")


def test_criterion_6_timelike_witness():
    vals, _ = timelike_witness(1j, 1.0, 10, 10)
    worst = max(abs(v) for v in vals)
    ok = len(vals) == 22 and worst <= 1e-6
    report("criterion 6", ok,
           f"all {len(vals)} pairings of f_i vanish: max {worst:.2e} "
           f"<= 1e-6")


def _cauchy_pair():
    def rho(t):
        t = np.asarray(t)
        return (1.0 / (1.0 + t**2) - 2.0 / (4.0 + t**2)) / np.pi

    tp = {"tail_c": 1.0, "tail_p": 2.0}
    return Measure1D(pieces=(Piece(-np.inf, 0.0, rho, 1.0, params=tp),
                             Piece(0.0, np.inf, rho, 1.0, params=tp)))


def test_criterion_7_hilbert_machinery():
    def cauchy(t):
        return 1.0 / (np.pi * (1.0 + np.asarray(t) ** 2))

    tp = {"tail_c": 1.0 / np.pi, "tail_p": 2.0}
    f = Measure1D(pieces=(Piece(-np.inf, 0.0, cauchy, 0.5, params=tp),
                          Piece(0.0, np.inf, cauchy, 0.5, params=tp)))
    x = np.arange(-3.0, 3.5, 1.0)
    herr = float(np.max(np.abs(hilbert_line(f, x)[0]
                               - x / (np.pi * (1.0 + x**2)))))

    # sign identity at four axis points for the mass-zero Cauchy pair,
    # through its closed-form Hilbert transform lifted to the hyperbola
    def h_rho(t):
        t = np.asarray(t)
        return (t / (1.0 + t**2) - t / (4.0 + t**2)) / np.pi

    tp2 = {"tail_c": 2.0, "tail_p": 2.0}
    hf = HyperbolaMeasure(M, Measure1D(pieces=(
        Piece(-np.inf, 0.0, h_rho, 1.0, params=tp2),
        Piece(0.0, np.inf, h_rho, 1.0, params=tp2))))
    sign_err = 0.0
    for xi1 in (-2.0, -1.0, 1.0, 2.0):
        w = np.pi * abs(xi1)
        rhs = 1j * np.sign(xi1) * (np.exp(-w) - np.exp(-2.0 * w))
        sign_err = max(sign_err, abs(ft_point(hf, (xi1, 0.0))[0] - rhs))

    agreement = hilbert_hyperbola(
        HyperbolaMeasure(M, _cauchy_pair()),
        np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))[2]
    ok = herr <= 1e-6 and sign_err <= 1e-5 and agreement <= 1e-6
    report("criterion 7", ok,
           f"H[Cauchy] error {herr:.2e} <= 1e-6; sign identity "
           f"{sign_err:.2e} <= 1e-5; intertwining routes agree to "
           f"{agreement:.2e} <= 1e-6")


def test_criterion_8_hardy_proxies():
    def rho_p(t):
        return 1.0 / (np.asarray(t) + 1j) ** 2

    def rho_m(t):
        return 1.0 / (np.asarray(t) - 1j) ** 2

    tp = {"tail_c": 1.0, "tail_p": 2.0}

    def split(rho):
        return Measure1D(pieces=(
            Piece(-np.inf, 0.0, rho, 2.0, params=tp),
            Piece(0.0, np.inf, rho, 2.0, params=tp)))

    d_plus = hardy_defect(split(rho_p), 64)
    d_minus = hardy_defect(split(rho_m), 64)

    families = [
        Measure1D(pieces=(Piece(1.0, 2.0, lambda t: np.ones_like(
            np.asarray(t, dtype=float)), 1.0),)),
        Measure1D(pieces=(Piece(0.5, np.inf, lambda t: np.asarray(
            t, dtype=float) ** -2.0, 2.0, params=tp),)),
        Measure1D(pieces=(Piece(-2.0, -0.5, lambda t: 1.0 / (
            1.0 + np.asarray(t) ** 2), 1.0),)),
    ]
    iso_err = max(abs(total_variation(inversion_j(f, 1.5))
                      - total_variation(f)) for f in families)
    t = np.array([-1.7, -0.9, 0.6, 1.3, 1.9])
    inv_err = max(float(np.max(np.abs(
        inversion_j(inversion_j(f, 1.5), 1.5).density_at(t)
        - f.density_at(t)))) for f in families)
    ok = (d_plus.ratio <= 1e-6 and d_minus.ratio >= 0.999
          and iso_err <= 1e-10 and inv_err <= 1e-12)
    report("criterion 8", ok,
           f"hardyDefect ratio {d_plus.ratio:.2e} <= 1e-6 and conjugate "
           f"{d_minus.ratio:.6f} >= 0.999; J isometry {iso_err:.2e} <= "
           f"1e-10 on 3 families; involution {inv_err:.2e} <= 1e-12")


def test_criterion_9_coverage():
    fracs = coverage_fraction(0.5, 20, 100_000)
    report("criterion 9", fracs[-1] >= 0.99,
           f"fraction reaching [0.5, 1] within 20 even iterates: "
           f"{fracs[-1]:.5f} >= 0.99")


def test_criterion_10_determinism(tmp_path):
    configs = [
        ["ft-eval", "--measure", "critical", "--xi1", "1.3"],
        ["ft-cross", "--measure", "critical", "--jmax", "1", "--kmax", "1"],
        ["invariant-density", "--bins", "128"],
        ["annihilator-check", "--gamma", "1", "--gridn", "500"],
        ["perturbed-residual", "--gamma", "1.5", "--bins", "128",
         "--gridn", "200"],
        ["coverage", "--iterates", "3", "--gridn", "500"],
        ["sici-spiral", "--n", "50"],
        ["hardy-defect", "--nmax", "8"],
        ["hilbert-check", "--n", "3"],
        ["timelike-witness", "--jmax", "1", "--kmax", "1"],
        ["defect-sweep", "--gammas", "1.0", "--bins", "40", "--jmax", "20",
         "--kmax", "20", "--tmin", "0.3", "--tmax", "4"],
        ["distorted-cross", "--xi1", "1.0"],
    ]
    unstable = []
    for args in configs:
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        code1 = cli_main(args + ["--out", str(a)])
        code2 = cli_main(args + ["--out", str(b)])
        if code1 != 0 or code2 != 0 or a.read_bytes() != b.read_bytes():
            unstable.append(args[0])
    report("criterion 10", not unstable,
           "all 12 commands byte-identical across repeated runs"
           if not unstable else f"non-deterministic commands: {unstable}")


def test_distorted_cross_pattern():
    defects = [distorted_cross_residual(xi0).numerical_defect
               for xi0 in ((0.0, 0.0), (-1.0, 0.0), (1.0, 0.0))]
    ok = defects[0] == 0 and defects[1] == 0 and defects[2] >= 1
    report("distorted-cross", ok,
           f"defect pattern at xi0 in {{(0,0),(-1,0),(1,0)}}: {defects} "
           f"(want 0, 0, >=1)")
