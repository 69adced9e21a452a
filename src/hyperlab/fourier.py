"""Fourier transforms of hyperbola measures at planar points and on
lattice-crosses.

The planar transform convention is

    ft(mu, xi) = integral exp(i pi [xi1 t - m^2 xi2 / (4 pi^2 t)]) d(pi1 mu)(t),

so that the pairing exp(i 2 pi j t) used in the one-branch experiments is
ft at xi = (2j, 0) (after the alpha = 2, m = 2 pi rescaling).  Every
``pairing`` of a measure with e^{i(w t - c/t)}, over arrays of
frequencies, sends its oscillatory integrals through one primitive,
``_osc`` (QUADPACK's Fourier weights: QAWO on finite intervals, QAWF on
infinite tails), which shares one cos/sin pair between w and -w and
samples its integrand once per node; piecewise constant (Ulam) densities
are paired in closed form where one phase vanishes, and bin by bin
through the same charts elsewhere.

Generic pieces (family None) pair by their densities: one that straddles
t = 0 as its two sides, and two on [a, b) and [-b, -a) as one integral on
[a, b), of rho(t) at (w, c) plus its mirror rho(-t) at (-w, -c), whose
cos/sin pair per |w| covers both half-lines and both signs of w.  A piece
without a mirror pairs alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

# the cross and its budget, and the error type, live in the scipy-free
# measures module; they are read from here too
from .measures import (MAX_CROSS_POINTS, HyperbolaMeasure, LatticeCross,
                       Measure1D, Piece, QuadratureError, _image_piece)
from .sici import exp_integral_tail


# QUADPACK tolerances and subdivision limit of every pairing
ABS_TOL = 1e-10
REL_TOL = 1e-8
LIMIT = 200
# the t chart starts at t = FLOOR where a piece reaches 0
FLOOR = 1e-300


# ---------------------------------------------------------------------------
# generic oscillatory quadrature

def _groups(*keys):
    """[(key, indices)] of the entries on which the 1-d arrays ``keys``
    agree, in order of first appearance (-0.0 and 0.0 agree)."""
    out = {}
    for i, key in enumerate(zip(*(k.tolist() for k in keys))):
        out.setdefault(key, []).append(i)
    return [(key, np.array(idx)) for key, idx in out.items()]


def _memo(g):
    """g, sampled once per node: QUADPACK integrates a complex integrand's
    real and imaginary parts in two runs over the same nodes, so within
    one integral each node's value is kept for the later reads."""
    seen = {}

    def once(t):
        v = seen.get(t)
        if v is None:
            v = seen[t] = g(t)
        return v
    return once


def _cquad(f, a, b):
    v, e = quad(_memo(f), a, b, complex_func=True, limit=LIMIT,
                epsabs=ABS_TOL, epsrel=REL_TOL)
    return complex(v), e.real + e.imag


def _osc(gs, a, b, w):
    """(integral_a^b g(t) e^{i w t} dt, error estimate) at each entry of a
    1-d array w of nonzero frequencies, with QUADPACK's Fourier weights:
    QAWO on finite [a, b], QAWF for b = inf.  gs is (g,), or (g, h) with
    the mirror integrand h at -w, which adds integral_a^b h(t) e^{-i w t}
    dt: the value is C[g + h] + i sgn(w) S[g - h].  The integrands do not
    depend on w, so one cos/sin pair per distinct |w| serves both signs,
    and its error estimate counts toward each."""
    w = np.asarray(w, dtype=float)
    if not (np.all(np.isfinite(w)) and np.isfinite(a) and a < b):
        raise QuadratureError(f"oscillatory quadrature needs finite "
                              f"frequencies and limits, got w={w} on "
                              f"[{a}, {b})")
    # one memo serves every |w| of the call: the cos and sin runs, their
    # real and imaginary parts, and QAWF's guard probes; a mirror pair is
    # sampled as one
    if len(gs) == 1:
        even = odd = _memo(gs[0])
    else:
        g, h = gs

        def sum_diff(t):
            gt, ht = g(t), h(t)
            return gt + ht, gt - ht
        both = _memo(sum_diff)

        def even(t):
            return both(t)[0]

        def odd(t):
            return both(t)[1]
    val = np.empty(w.shape, dtype=complex)
    err = np.empty(w.shape)
    for (mag,), idx in _groups(np.abs(w)):
        if b == np.inf:
            # QAWF runs up to LIMIT cycles of length (2 floor|w| + 1) pi /
            # |w| from a, and crashes the interpreter on one that ends at
            # inf, or on a non-finite sample: the integrands are probed at
            # a and at the first cycle's lower Clenshaw-Curtis node, 0 for
            # a tiny a
            cycle = (2 * (mag // 1) + 1) * np.pi / mag
            if a + LIMIT * cycle == np.inf:
                raise QuadratureError(f"QAWF's cycles at |w|={mag:.3g} "
                                      f"from {a:.3g} pass the largest float")
            b1 = a + cycle
            for x in (a, 0.5 * (a + b1) - 0.5 * (b1 - a)):
                for gx in (even(x), odd(x)):
                    if not np.isfinite(gx):
                        raise QuadratureError(
                            f"the integrand reads {gx} at t={x:.3g}, where "
                            f"QAWF samples it at |w|={mag:.3g}")
        kw = {"wvar": mag, "complex_func": True, "limit": LIMIT,
              "limlst": LIMIT, "epsabs": ABS_TOL, "epsrel": REL_TOL}
        cos, e_cos = quad(even, a, b, weight="cos", **kw)
        sin, e_sin = quad(odd, a, b, weight="sin", **kw)
        e = e_cos + e_sin
        for i in idx:
            val[i] = cos + 1j * np.sign(w[i]) * sin
        err[idx] = e.real + e.imag
    return val, err


def _t_chart(rhos, lo, hi, w, c):
    """integral_lo^hi rho(t) e^{i(w t - c/t)} dt, and its error estimate,
    at each entry of the 1-d arrays lo, hi, w and c (0 where lo >= hi),
    from t = FLOOR up: the w t phase under QUADPACK's Fourier weights, one
    cos/sin pair per |w| of a (c, lo, hi), and a mass (w = c = 0) by quad.
    rhos is (rho,), or (rho, mirror) with a mirror density paired at
    (-w, -c) and added, in the same integrals."""
    val = np.zeros(w.shape, dtype=complex)
    err = np.zeros(w.shape)
    for (cv, a, b), idx in _groups(c, lo, hi):
        if a >= b:
            continue
        a = max(a, FLOOR)
        # the mirror turns the c/t phase the other way
        gs = rhos if cv == 0.0 else tuple(
            lambda t, rho=rho, cs=cs: rho(t) * np.exp(-1j * cs / t)
            for rho, cs in zip(rhos, (cv, -cv)))
        spin, mass = idx[w[idx] != 0.0], idx[w[idx] == 0.0]
        if mass.size:
            val[mass], err[mass] = _cquad(rhos[0] if len(rhos) == 1 else (
                lambda t: rhos[0](t) + rhos[1](t)), a, b)
        for (mag,), sub in _groups(np.abs(w[spin])):
            # one rule samples neither the scale t ~ |c| < 1 where the c/t
            # phase turns by a radian, nor the mass near t = 1 below a
            # first w t cycle of length 1/|w| > 1: cut at 16^i steps from
            # |c| (or 1) up to 1 (or 1/|w|, below b).  Each |w| climbs its
            # own ladder: QAWO on a smaller |w|'s cuts, far past 1/|w|,
            # reads NaN (from t ~ 3e85 at |w| = pi 1e-9)
            cuts = [a]
            cut = abs(cv) if 0.0 < abs(cv) < 1.0 else 1.0
            while cut < b and (cut < 1.0 or cut * mag < 1.0):
                if cut > a:
                    cuts.append(cut)
                cut *= 16.0
            for t0, t1 in zip(cuts, cuts[1:] + [b]):
                v, e = _osc(gs, t0, t1, w[spin[sub]])
                val[spin[sub]] += v
                err[spin[sub]] += e
    return val, err


def _piece_ft_positive(rhos, a, b, w, c):
    """integral_a^b rho(t) e^{i(w t - c/t)} dt over [a,b) in [0, inf], and
    its error estimate, at each entry of the 1-d arrays w and c; rhos is
    (rho,), or (rho, mirror) with the mirror density paired at (-w, -c)
    and added.  Where c != 0, the part [a, t*) below the crossover t* =
    sqrt|c/w| (all of [a, b) at w = 0), where the c/t phase turns faster
    than the w t one, pairs as its image under t -> 1/t: rho(1/u)/u^2 on
    (1/t*, 1/a] at w' = -c, c' = -w, above its own crossover 1/t*.  The t
    chart takes that image and the rest of [a, b).  t* and the image map
    commute with (w, c) -> (-w, -c), so a mirror takes the same steps."""
    with np.errstate(all="ignore"):
        mid = np.where(c != 0.0, np.clip(np.sqrt(np.abs(c))
                                         / np.sqrt(np.abs(w)), a, b), a)
        u_lo = np.where(c != 0.0, 1.0 / mid, np.inf)
        # from t = 0 the image reaches u = inf under QAWF, unless QAWF's
        # cycles pass the largest float (|c| < FLOOR): then it stops at
        # 1/FLOOR, the mirror of the t chart's floor
        u_hi = np.where(np.abs(c) < FLOOR, 1.0 / max(a, FLOOR),
                        1.0 / a if a > 0.0 else np.inf)
        # cut at u = 1/|c|, where the w' u phase turns by a radian: below it
        # QAWO keeps to its Gauss-Kronrod rule, which never reads u = 0
        u_cut = np.clip(1.0 / np.abs(c), u_lo, u_hi)

    def image(rho):  # u = 0 is t = inf, where rho(t) t^2 has no known limit
        return lambda u: rho(1.0 / u) / u / u if u else np.nan
    images = tuple(image(rho) for rho in rhos)
    parts = (_t_chart(images, u_lo, u_cut, -c, -w),
             _t_chart(images, u_cut, u_hi, -c, -w),
             _t_chart(rhos, mid, np.full(w.shape, float(b)), w, c))
    return sum(v for v, _ in parts), sum(e for _, e in parts)


def _binned_pairing(edges: np.ndarray, values: np.ndarray, w, c):
    """(values, error estimates) of the integral of v(t) e^{i(w t - c/t)} dt
    for a bin table on t >= 0, at each entry of the 1-d arrays w and c: in
    closed form (error 0) where one of w, c vanishes, and elsewhere through
    ``_piece_ft_positive``, one constant piece per nonzero bin."""
    val = np.zeros(w.shape, dtype=complex)
    err = np.zeros(w.shape)
    val[(w == 0.0) & (c == 0.0)] = np.sum(values * np.diff(edges))

    def closed(rows, prim):
        # rows of primitives at the edges, in blocks of 2^16 entries
        step = max(1, (1 << 16) // edges.size)
        for i in range(0, rows.size, step):
            blk = rows[i:i + step]
            val[blk] = np.sum(values * np.diff(prim(blk[:, None]), axis=1),
                              axis=1)
    closed(np.flatnonzero((c == 0.0) & (w != 0.0)),
           lambda r: np.exp(1j * w[r] * edges) / (1j * w[r]))

    def axis2(r):
        # t e^{-ic/t} - ic E(-c/t), a primitive of e^{-ic/t} that is 0 at 0
        pos = edges > 0.0
        t = edges[pos]
        prim = np.zeros((r.shape[0], edges.size), dtype=complex)
        prim[:, pos] = (t * np.exp(-1j * c[r] / t)
                        - 1j * c[r] * exp_integral_tail(-c[r] / t))
        return prim
    closed(np.flatnonzero((w == 0.0) & (c != 0.0)), axis2)
    off = np.flatnonzero((w != 0.0) & (c != 0.0))
    for a, b, v in zip(edges[:-1], edges[1:], values):
        if off.size and v != 0.0:
            v_off, e_off = _piece_ft_positive((lambda t, v=v: v,), a, b,
                                              w[off], c[off])
            val[off] += v_off
            err[off] += e_off
    return val, err


def _piece_ft(p: Piece, w, c):
    """(values, error estimates) of one family piece."""
    s = p.image_s
    if s is not None:
        # u = s/t: the family piece on [s/b, s/a) at w' = -c/s, c' = -w s
        return _piece_ft(_image_piece(p, s), -c / s, -w * s)
    if p.family == "binned":
        return _binned_pairing(p.params["edges"], p.params["values"], w, c)
    return _density_ft([p], w, c)


def _density_ft(pieces, w, c):
    """(values, error estimates) of pieces read by their densities alone.
    Each is split at t = 0 if it straddles it, and a part on [-b, -a)
    reflects to [a, b) in [0, inf] under t -> -t, which flips both
    frequencies; parts with mirrored supports then pair as one, the
    density on [a, b) at (w, c) and its mirror at (-w, -c), in the same
    integrals."""
    halves = {}
    for p in pieces:
        rho = p.density
        if p.a < 0.0:
            halves.setdefault((-min(p.b, 0.0), -p.a), [None, None])[1] = (
                lambda u, rho=rho: rho(-u))
        if p.b > 0.0:
            halves.setdefault((max(p.a, 0.0), p.b), [None, None])[0] = rho
    val = np.zeros(w.shape, dtype=complex)
    err = np.zeros(w.shape)
    for (a, b), (plus, minus) in halves.items():
        # a part alone on t < 0 pairs reflected, at (-w, -c)
        sign = -1.0 if plus is None else 1.0
        rhos = tuple(r for r in (plus, minus) if r is not None)
        v, e = _piece_ft_positive(rhos, a, b, sign * w, sign * c)
        val += v
        err += e
    return val, err


def pairing(nu: Measure1D, w, c):
    """(values, error estimates): the integral of e^{i(w t - c/t)} d nu(t)
    at each entry of the arrays w and c, broadcast together (a scalar pair
    gives 0-d arrays), with the error estimate each value's integrals
    achieved; an integral that several values share counts toward each.
    Generic pieces (family None) with mirrored supports [a, b) and
    [-b, -a) pair as one, and one that straddles t = 0 as its two sides."""
    w, c = np.broadcast_arrays(np.asarray(w, dtype=float),
                               np.asarray(c, dtype=float))
    bad = np.flatnonzero(~(np.isfinite(w) & np.isfinite(c)))
    if bad.size:
        raise QuadratureError(f"pairing needs finite frequencies, got "
                              f"w={w.flat[bad[0]]}, c={c.flat[bad[0]]}")
    shape = w.shape
    w, c = w.ravel(), c.ravel()
    total = np.zeros(w.shape, dtype=complex)
    err = np.zeros(w.shape)
    for x, wt in nu.atoms:
        c_x = np.divide(c, x, out=np.zeros(c.shape), where=c != 0.0)
        total += wt * np.exp(1j * (w * x - c_x))
    parts = [_piece_ft(p, w, c) for p in nu.pieces if p.family is not None]
    parts.append(_density_ft([p for p in nu.pieces if p.family is None],
                             w, c))
    for v, e in parts:
        total += v
        err += e
    return total.reshape(shape), err.reshape(shape)


def error_budget(value):
    """Largest achieved error estimate accepted for a pairing result of
    size |value|; above it the result raises ``QuadratureError``."""
    return 100.0 * (ABS_TOL + REL_TOL * abs(value)) + 1e-8


def _within_budget(values, errs, labels):
    """(values, errs), or ``QuadratureError`` naming the first labels[i]
    whose value is not finite or whose achieved error estimate errs[i]
    is not within the error budget of values[i] (a NaN one is not)."""
    vals, ests = np.ravel(values), np.ravel(errs)
    bad = np.flatnonzero(~(np.isfinite(vals)
                           & (ests <= error_budget(vals))))
    if bad.size:
        i = bad[0]
        if not np.isfinite(vals[i]):
            raise QuadratureError(f"{labels[i]} reads the non-finite value "
                                  f"{vals[i]}", ests[i])
        raise QuadratureError(f"{labels[i]} achieved error estimate "
                              f"{ests[i]:.3g} above tolerance", ests[i])
    return values, errs


def _checked_ft(mu: HyperbolaMeasure, xi1, xi2, labels):
    """(values, error estimates) of the ft of mu at the points (xi1[i],
    xi2[i]), each within its error budget, else ``QuadratureError``
    naming the first point over it by labels[i]."""
    w = np.pi * np.asarray(xi1, dtype=float)
    c = mu.m**2 * np.asarray(xi2, dtype=float) / (4.0 * np.pi)
    return _within_budget(*pairing(mu.pi1, w, c), labels)


def ft_point(mu: HyperbolaMeasure, xi) -> complex:
    """Fourier transform of mu at the planar point xi = (xi1, xi2)."""
    xi1, xi2 = float(xi[0]), float(xi[1])
    vals, _ = _checked_ft(mu, [xi1], [xi2], [
        f"oscillatory quadrature at xi=({xi1}, {xi2})"])
    return complex(vals[0])


@dataclass(frozen=True)
class CrossValue:
    axis: int
    index: int
    xi1: float
    xi2: float
    value: complex
    abs_err_estimate: float


def ft_on_cross(mu: HyperbolaMeasure, cross: LatticeCross):
    """One transform per cross point, deterministic ordering, each with
    the error estimate its quadrature achieved (0 where closed-form)."""
    pts = cross.points()
    vals, errs = _checked_ft(
        mu, [p[2] for p in pts], [p[3] for p in pts],
        [f"cross point axis={axis} index={idx} xi=({x1}, {x2}): "
         f"oscillatory quadrature" for axis, idx, x1, x2 in pts])
    return [CrossValue(*p, complex(v), float(e))
            for p, v, e in zip(pts, vals, errs)]


def critical_measure_ft(x: float) -> complex:
    """Fourier transform (1-e^{i 2 pi x}) * int_0^inf e^{i 2 pi x t} dt/(t+1)
    of the critical annihilator, via the si/ci decomposition (the
    substitution y = 2 pi x t gives lower limit 2 pi |x| in the tail
    integrals)."""
    x = float(x)
    if x.is_integer():
        return 0.0 + 0.0j
    e_val = np.exp(-2j * np.pi * x) * exp_integral_tail(2.0 * np.pi * x)
    return complex((1.0 - np.exp(2j * np.pi * x)) * e_val)
