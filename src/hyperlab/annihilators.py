"""Explicit annihilating measures for the one-branch lattice-cross system
and residual checks of the periodized functional equations.

Every annihilator is one antisymmetrized invariant measure,
d nu(t) = d w(t) - d w(gamma/t): w on [0, 1), and the image of -w under
t -> gamma/t on [gamma, inf).  At gamma = 1, w is the Gauss measure
dt/(1+t), and

    d nu(t) = 1_[0,1)(t) dt/(1+t)  -  1_[1,inf)(t) dt/(t(1+t))

is the defect-1 witness; for gamma > 1, w is the Ulam invariant density.
Both must satisfy the two periodized sums

    sum_{j>=0} d nu(t+j) = sum_{j>=0} d nu(gamma/(t+j)) = 0  on [0,1).

Series over j are evaluated with closed-form digamma/polygamma tails, so
the reported residuals are not limited by naive truncation.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.special import digamma

from .measures import (Measure1D, MeasureError, Piece, _image_piece,
                       _reciprocal_density, piece_from_family,
                       pushforward_inversion)
from .transfer import InvariantDensity, _bin_table_sum

LOG2 = float(np.log(2.0))


def _antisymmetrized(gamma: float, family: str, w: dict, minus_w: dict,
                     tv_bound: float) -> Measure1D:
    """nu = w - w(gamma/t): the family piece w on [0, 1), and on [gamma, inf)
    the image under t -> gamma/t of -w, w's params updated by ``minus_w``."""
    return Measure1D(pieces=(
        piece_from_family(0.0, 1.0, family, w, tv_bound),
        piece_from_family(gamma, np.inf, family,
                          dict(w, **minus_w, s=gamma), tv_bound)))


def critical_annihilator() -> Measure1D:
    """The two-piece measure dt/(1+t) on [0,1) minus dt/(t(1+t)) on [1,inf)."""
    return _antisymmetrized(1.0, "cauchy1p", {"scale": 1.0 + 0.0j},
                            {"scale": -1.0 + 0.0j}, LOG2)


def expanded_annihilator(gamma: float, density: InvariantDensity) -> Measure1D:
    """Antisymmetrized invariant measure for gamma > 1, supported on
    [0,1) u [gamma, inf); no mass on (1, gamma) by construction."""
    if gamma <= 1.0:
        raise MeasureError("expanded annihilator requires gamma > 1")
    if abs(density.gamma - gamma) > 1e-14:
        raise MeasureError("density was computed for a different gamma")
    values = np.asarray(density.values, dtype=complex)
    return _antisymmetrized(
        gamma, "binned", {"edges": np.asarray(density.edges, dtype=float),
                          "values": values}, {"values": -values}, 1.0)


def piece_mass(p: Piece) -> complex:
    if p.image_s is not None:
        # t -> s/t keeps mass: read it in the family chart
        return piece_mass(_image_piece(p, p.image_s))
    if p.family == "cauchy1p":
        return p.params["scale"] * complex(np.log1p(p.b) - np.log1p(p.a))
    if p.family == "binned":
        # the table is the piece's support
        return complex(np.sum(np.asarray(p.params["values"])
                              * np.diff(p.params["edges"])))
    raise MeasureError("mass of an unregistered piece family")


def total_mass(nu: Measure1D) -> complex:
    return complex(sum(w for _, w in nu.atoms)
                   + sum(piece_mass(p) for p in nu.pieces))


# ---------------------------------------------------------------------------
# periodized sums with certified tails

def periodization_sum1(nu: Measure1D, t: np.ndarray) -> np.ndarray:
    """sum_{j>=0} rho_nu(t + j) for t in [0, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for p in nu.pieces:
        s = p.image_s
        if s is not None and p.family == "binned":
            out += _bin_table_sum(p.params["edges"], p.params["values"], s, t)
        elif s is not None:
            # scale s/(x(x+s)) = scale (1/x - 1/(x+s)) telescopes
            def tail(end):  # the sum over the j with t + j >= end
                j = np.maximum(np.ceil(end - t), 0.0)
                return digamma(t + j + s) - digamma(t + j)
            out += p.params["scale"] * (
                tail(p.a) - (tail(p.b) if np.isfinite(p.b) else 0.0))
        elif not np.isfinite(p.b):
            raise MeasureError("periodization of an infinite piece without "
                               "a closed-form tail")
        else:
            for j in range(max(int(np.floor(p.a)), 0), int(np.ceil(p.b)) + 1):
                u = t + j
                mask = (u >= p.a) & (u < p.b)
                if np.any(mask):
                    out[mask] += p.density(u[mask])
    return out


def periodization_sum2(nu: Measure1D, gamma: float, t: np.ndarray) -> np.ndarray:
    """sum_{j>=0} rho_nu(gamma/(t+j)) * gamma/(t+j)^2 for t in [0, 1): the
    first sum of the image of nu under t -> gamma/t."""
    return periodization_sum1(pushforward_inversion(nu, gamma), t)


def periodized_residual(nu: Measure1D, gamma: float, grid_n: int):
    """Sup norms of the two periodized sums over a midpoint grid of [0, 1)."""
    t = (np.arange(grid_n) + 0.5) / grid_n
    s1 = periodization_sum1(nu, t)
    s2 = periodization_sum2(nu, gamma, t)
    return float(np.max(np.abs(s1))), float(np.max(np.abs(s2)))


def _antisymmetry(nu: Measure1D, gamma: float, t: np.ndarray) -> float:
    """Max over t of |rho_nu(t) + rho_nu(gamma/t) gamma/t^2|."""
    image = _reciprocal_density(nu.density_at, gamma, 0.0)
    return float(np.max(np.abs(nu.density_at(t) + image(t))))


def symmetry_residual(nu: Measure1D, gamma: float) -> float:
    """``_antisymmetry`` over 1000 geometric samples of [1e-3, 1e3]."""
    return _antisymmetry(nu, gamma, np.geomspace(1e-3, 1e3, 1000))


def annihilator_report(gamma: float, density: InvariantDensity | None = None,
                       grid_n: int = 10_000):
    """(total mass, symmetry residual, periodized residual of sum 1, of sum
    2 on grid_n points) of the annihilator for the given gamma."""
    if gamma == 1.0:
        nu = critical_annihilator()
    elif gamma > 1.0:
        if density is None:
            raise MeasureError("gamma > 1 requires a computed invariant "
                               "density")
        nu = expanded_annihilator(gamma, density)
    else:
        raise MeasureError("no nontrivial annihilator exists for gamma < 1")
    return (total_mass(nu), symmetry_residual(nu, gamma),
            *periodized_residual(nu, gamma, grid_n))


def perturbed_equation_residual(omega1: Measure1D, omega2: Measure1D,
                                gamma: float, grid_n: int = 2000) -> float:
    """Sup-norm residual of the perturbed invariance equation

        rho1(t) = sum_{j>=0} rho1(gamma/(t+j)) gamma/(t+j)^2 + rho2(t+1)

    on (0, 1), for omega1 supported on [0,1] and omega2 on [1, gamma] with
    the antisymmetry d omega2(gamma/t) = -d omega2(t)."""
    if not 1.0 < gamma <= 2.0:
        raise MeasureError("the perturbed equation is implemented for "
                           "gamma in (1, 2]")
    if gamma == 2.0 and (omega2.pieces or omega2.atoms):
        warnings.warn("gamma = 2 endpoint: the support of omega2 meets the "
                      "translate boundary; half-open convention applies",
                      stacklevel=2)
    for p in omega1.pieces:
        if p.a < 0.0 or p.b > 1.0 + 1e-12:
            raise MeasureError("omega1 must be supported on [0, 1]")
    for p in omega2.pieces:
        if p.a < 1.0 - 1e-12 or p.b > gamma + 1e-12:
            raise MeasureError("omega2 must be supported on [1, gamma]")
    if omega2.pieces or omega2.atoms:
        ts = np.linspace(1.0 + 1e-6, gamma - 1e-6, 500)
        scale = max(1.0, float(np.max(np.abs(omega2.density_at(ts)))))
        if _antisymmetry(omega2, gamma, ts) > 1e-10 * scale:
            raise MeasureError("omega2 violates the required antisymmetry")
    t = (np.arange(grid_n) + 0.5) / grid_n
    lhs = omega1.density_at(t)
    transfer = periodization_sum2(omega1, gamma, t)
    shift = omega2.density_at(t + 1.0)
    return float(np.max(np.abs(lhs - transfer - shift)))
