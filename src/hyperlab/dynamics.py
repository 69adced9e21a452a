"""Gauss-type interval maps U_gamma(x) = frac(gamma/x) on [0,1) and
Lebesgue-coverage estimates for the hitting sets of [gamma, 1] at even
times."""

from __future__ import annotations

import numpy as np

# orbit points a coverage estimate may follow, (iterates + 1) * grid_n: a
# bound on the problem size, not on its accuracy
WORK_BUDGET_POINTS = 10 ** 8


def _apply(gamma: float, x: np.ndarray) -> np.ndarray:
    """U_gamma on an array of points of [0, 1), with U_gamma(0) = 0."""
    nz = x > 0.0
    y = np.zeros_like(x)
    y[nz] = gamma / x[nz]
    y[nz] -= np.floor(y[nz])
    return y


def coverage_fraction(gamma: float, max_even_iterates: int, grid_n: int):
    """Fractions of a midpoint grid whose orbit under U_gamma visits
    [gamma, 1] at some even time <= 2k, for k = 0 .. max_even_iterates: a
    list of max_even_iterates + 1 floats.

    Midpoint grids keep the estimate reproducible; the fractions are
    nondecreasing in k by construction.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    if (max_even_iterates + 1) * grid_n > WORK_BUDGET_POINTS:
        raise ValueError(f"(iterates + 1) * grid_n exceeds the work "
                         f"budget {WORK_BUDGET_POINTS:.0e}")
    x = (np.arange(grid_n) + 0.5) / grid_n
    hit = (x >= gamma) & (x <= 1.0)
    fractions = [float(np.count_nonzero(hit)) / grid_n]
    for _ in range(max_even_iterates):
        # one even time = two map applications
        x = _apply(gamma, _apply(gamma, x))
        hit |= (x >= gamma) & (x <= 1.0)
        fractions.append(float(np.count_nonzero(hit)) / grid_n)
    return fractions
