"""Exponential integrals E_p, p = 1, 2, 3, the sine/cosine integral tails
that make up E = E_1, and the Nielsen (sici) spiral.

Conventions (fixed once, used everywhere in this package):

    si(x) =  integral_x^inf  sin(y)/y dy   =  pi/2 - Si(x),
    ci(x) = -integral_x^inf  cos(y)/y dy   (the standard Ci),

so that ci is negative on (0, x0) with first zero x0 ~ 0.6165.  Both are
parts of E(y) = -ci(|y|) + i sgn(y) si(|y|).  ``exp_integral_parts``,
which returns (Re E, Im E) as two real arrays, is the one reader of
``scipy.special.sici`` (which returns (Si, Ci) with Si = pi/2 - si);
``exp_integral_tail`` is E as one complex array built on it.  The spiral
and the defect bins read the two real parts, and the end integrals E_2,
E_3 of the defect basis come from E or its asymptotic series; no other
module calls sici.
"""

from __future__ import annotations

import numpy as np
from scipy.special import sici as _sici


def exp_integral_parts(y):
    """(Re E(y), Im E(y)) = (-ci(|y|), sgn(y) si(|y|)) for y != 0, as two
    real arrays, elementwise: E without a complex array, for callers that
    keep real and imaginary parts apart."""
    y = np.asarray(y, dtype=float)
    if np.any(y == 0.0):
        raise ValueError("diverges at y = 0")
    big_si, ci = _sici(np.abs(y))
    # 0.0 - ci, not -ci: at |y| = inf, where ci = 0, Re E reads +0
    return 0.0 - ci, np.sign(y) * (0.5 * np.pi - big_si)


def exp_integral_tail(y):
    """E(y) = integral_1^inf e^{i y u} du / u = -ci(|y|) + i sgn(y) si(|y|)
    for y != 0, elementwise over arrays (a complex scalar for a scalar)."""
    re, im = exp_integral_parts(y)
    out = re + 1j * im
    return complex(out) if out.ndim == 0 else out


def _e2_e3(y):
    """(E_2(y), E_3(y)) at each entry of a 1-d array y of nonzero reals,
    E_p(y) = integral_1^inf e^{i y u} u^{-p} du (E_1 = E).  The recurrence
    E_{p+1} = (e^{iy} + iy E_p) / p from E cancels by about |y| per step;
    below |y| = 60 it loses at most about 1e-11 relative.  From |y| = 60
    on, both are 20 terms of the asymptotic series -(e^{iy} / iy) sum_k
    (p)_k (iy)^{-k} (DLMF 8.20.2 at z = -iy), exact there to rounding."""
    y = np.asarray(y, dtype=float)
    ey = np.exp(1j * y)
    e2 = ey + 1j * y * exp_integral_tail(y)
    e3 = (ey + 1j * y * e2) / 2.0
    far = np.abs(y) >= 60.0
    z = 1.0 / (1j * y[far])
    for p, out in ((2, e2), (3, e3)):
        s = 1.0
        for k in range(19, -1, -1):
            s = 1.0 + (p + k) * z * s
        out[far] = -ey[far] * z * s
    return e2, e3


def nielsen_spiral(x_grid):
    """(ci(x), si(x)) along a positive, finite grid, as two arrays."""
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid <= 0) or not np.all(np.isfinite(x_grid)):
        raise ValueError("grid must be positive and finite")
    re, si = exp_integral_parts(x_grid)
    return -re, si
