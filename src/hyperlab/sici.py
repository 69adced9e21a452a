"""Exponential integrals E_p, p = 1, 2, 3, the sine/cosine integral tails
that make up E = E_1, and the Nielsen (sici) spiral.

Conventions (fixed once, used everywhere in this package):

    si(x) =  integral_x^inf  sin(y)/y dy   =  pi/2 - Si(x),
    ci(x) = -integral_x^inf  cos(y)/y dy   (the standard Ci),

so that ci is negative on (0, x0) with first zero x0 ~ 0.6165.  Both are
parts of E(y) = -ci(|y|) + i sgn(y) si(|y|).  ``exp_integral_parts``,
which returns (Re E, Im E) as two real arrays, is the one reader of
``scipy.special.sici`` (which returns (Si, Ci) with Si = pi/2 - si);
``exp_integral`` is the one E_p, built on it.  The spiral and the defect
bins read the two real parts; no other module calls sici.
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


def exp_integral(p, y):
    """E_p(y) = integral_1^inf e^{i y u} u^{-p} du for p = 1, 2, 3 and
    y != 0, elementwise over arrays (a complex scalar for a scalar).  E_1
    joins ``exp_integral_parts``.  Below |y| = 60, E_{q+1} = (e^{iy} +
    iy E_q) / q from E, which cancels by about |y| per step and loses at
    most about 1e-11 relative.  From |y| = 60 on, E_p (p >= 2) is 20 terms
    of -(e^{iy} / iy) sum_k (p)_k (iy)^{-k} (DLMF 8.20.2 at z = -iy), exact
    there to rounding, in real arithmetic: with A(1/y^2) the even terms of
    the sum and -i B(1/y^2) / y the odd ones, E_p = (e^{iy} / y) (B / y +
    i A).  For p >= 2, sici is called only below |y| = 60."""
    y = np.asarray(y, dtype=float)
    # E_1 splits no range: its parts, joined
    far = np.abs(y) >= 60.0 if p > 1 else None
    near = y if far is None else y[~far]
    re, im = exp_integral_parts(near)
    e = re + 1j * im
    if far is None:
        return complex(e) if e.ndim == 0 else e
    out = np.empty(y.shape, dtype=complex)
    ey = np.exp(1j * near)
    for q in range(1, p):
        e = (ey + 1j * near * e) / q
    out[~far] = e
    if np.any(far):
        y, k = y[far], np.arange(20)
        coef = np.cumprod(np.r_[1.0, p + k[:-1]]) * (-1.0) ** (k // 2)
        r = 1.0 / y  # squared below: y^2 overflows from |y| ~ 1e154
        a, b = (np.polyval(c[::-1], r * r) for c in (coef[0::2], coef[1::2]))
        # at y = +-inf, r = 0 zeroes the sum (E_p = 0) if its phase is finite
        phase = np.where(r == 0.0, 0.0, y)
        cos, sin = np.cos(phase), np.sin(phase)
        out.real[far] = (b * r * cos - a * sin) * r
        out.imag[far] = (a * cos + b * r * sin) * r
    return complex(out) if out.ndim == 0 else out


def nielsen_spiral(x_grid):
    """(ci(x), si(x)) along a positive, finite grid, as two arrays."""
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid <= 0) or not np.all(np.isfinite(x_grid)):
        raise ValueError("grid must be positive and finite")
    re, si = exp_integral_parts(x_grid)
    return -re, si
