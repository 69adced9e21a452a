"""Fourier transforms of hyperbola measures at planar points and on
lattice-crosses.

The planar transform convention is

    ft(mu, xi) = integral exp(i pi [xi1 t - m^2 xi2 / (4 pi^2 t)]) d(pi1 mu)(t),

so that the pairing exp(i 2 pi j t) used in the one-branch experiments is
ft at xi = (2j, 0) (after the alpha = 2, m = 2 pi rescaling).  Every
``pairing`` of a measure with e^{i(w t - c/t)}, over arrays of
frequencies, sends its oscillatory integrals through one primitive,
``_osc``: QAWO on finite cuts and Ooura-Mori on tails.  It shares one
cos/sin pair between w and -w and samples its integrand once per node: a
tail samples every |w| of a call at the Ooura-Mori nodes as one array,
and a |w| whose achieved estimate is not within the QUADPACK tolerance
takes one rescue step through the same two rules: QAWO up to
16 max(a, 1), and the Ooura-Mori rule from there.  Piecewise constant
(Ulam) densities are paired in closed form where one phase vanishes,
and bin by bin through the same charts elsewhere.  QUADPACK's
IntegrationWarnings are kept as diagnostics, which a ``QuadratureError``
carries in its message.

Generic pieces (family None) pair by their densities: one that straddles
t = 0 as its two sides, and two on [a, b) and [-b, -a) as one integral on
[a, b), of rho(t) at (w, c) plus its mirror rho(-t) at (-w, -c), whose
cos/sin pair per |w| covers both half-lines and both signs of w.  A piece
without a mirror pairs alone.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from scipy.integrate import IntegrationWarning, quad

# the cross and its budget, and the error type, live in the scipy-free
# measures module; they are read from here too
from .measures import (MAX_CROSS_POINTS, HyperbolaMeasure, LatticeCross,
                       Measure1D, Piece, QuadratureError, _image_piece)
from .sici import exp_integral_tail


# QUADPACK tolerances and subdivision limit of every pairing; a tail under
# the Ooura-Mori rule is accepted at the same tolerances
ABS_TOL = 1e-10
REL_TOL = 1e-8
LIMIT = 200
# the t chart starts at t = FLOOR where a piece reaches 0
FLOOR = 1e-300
# the Ooura-Mori rule's mesh is h = pi/M at its coarse level and pi/(2M) at
# its value's; beta of its map, and the weights below which nodes are cut
OM_M = 48
OM_BETA = 0.25
OM_TRIM = 1e-30
# entries of a table of primitives evaluated at once, and of an Ooura-Mori
# node array (a few rows, whose temporaries stay in cache)
BLOCK = 1 << 16
OM_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# generic oscillatory quadrature

# the IntegrationWarnings of the QUADPACK calls under way in a _diagnosed
# block, kept for the message of a QuadratureError
_NOTES = ContextVar("hyperlab_quadpack_notes", default=None)


@contextmanager
def _diagnosed():
    """Keep the IntegrationWarnings of the QUADPACK calls inside for the
    message of a QuadratureError raised inside (``_refusal``)."""
    token = _NOTES.set([])
    try:
        yield
    finally:
        _NOTES.reset(token)


@contextmanager
def _caught():
    """Keep the IntegrationWarnings raised inside (their first sentence)
    as diagnostics of the _diagnosed block under way, never printed raw;
    any other warning is shown as before."""
    notes = _NOTES.get()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", IntegrationWarning)
        try:
            yield
        finally:
            for w in seen:
                if not issubclass(w.category, IntegrationWarning):
                    warnings.showwarning(w.message, w.category, w.filename,
                                         w.lineno)
                elif notes is not None:
                    notes.append(" ".join(
                        str(w.message).split()).partition(".")[0] + ".")


def _refusal(message, error_estimate=np.nan):
    """A QuadratureError whose message ends with the distinct QUADPACK
    warnings kept so far in the _diagnosed block, each with its count."""
    notes = _NOTES.get()
    if notes:
        message += "; QUADPACK warned: " + "; ".join(
            f"{w} (x{notes.count(w)})" for w in dict.fromkeys(notes))
    return QuadratureError(message, error_estimate)


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
    with _caught():
        v, e = quad(_memo(f), a, b, complex_func=True, limit=LIMIT,
                    epsabs=ABS_TOL, epsrel=REL_TOL)
    return complex(v), e.real + e.imag


def _om_rule(m):
    """(x, weight) of the Ooura-Mori rule at mesh h = pi/m (Ooura and Mori,
    J. Comput. Appl. Math. 112 (1999) 229-241): under x = m phi(t) / w,

        phi(t) = t / (1 - exp(-2t - alpha (1 - e^-t) - beta (e^t - 1))),

    integral_0^inf f(x) sin(w x) dx is sum_n f(x_n / w) weight_n / w over
    the sine nodes t = n h, and the cosine integral the same sum over the
    nodes t = (n - 1/2) h, where m phi nears the zeros n pi and (n - 1/2) pi
    of the sine and the cosine double exponentially.  Returns the sine
    nodes, then the cosine nodes, with the weights above OM_TRIM.  The
    weights carry the phase m phi of the exact nodes: they are computed in
    long double, since a phase of up to m / 2 radians read off a rounded
    node would cost its term m / 2 ulp."""
    one_ld = np.longdouble(1.0)
    pi = 4.0 * np.arctan(one_ld)
    h = pi / m
    alpha = OM_BETA / np.sqrt(one_ld + m * np.log1p(one_ld * m) / (4.0 * pi))
    parts = []
    for shift in (0.0, 0.5):
        n = np.arange(-int(9.0 * m / np.pi), int(9.0 * m / np.pi) + 1)
        t = (n - one_ld * shift) * h
        with np.errstate(all="ignore"):
            u = 2.0 * t - alpha * np.expm1(-t) + OM_BETA * np.expm1(t)
            one = -np.expm1(-u)
            phi = t / one
            dphi = (one - t * np.exp(-u) * (2.0 + alpha * np.exp(-t)
                                            + OM_BETA * np.exp(t))) / one**2
            # past t > 0 the phase m phi is n pi plus m (phi - t), which
            # is computed apart so that the weights vanish with it
            trig = np.where(t > 0.0, np.where(n % 2, -1.0, 1.0)
                            * np.sin(m * t / np.expm1(u)),
                            np.sin(m * phi) if shift == 0.0
                            else np.cos(m * phi))
        # the sine node t = 0 takes phi's limits there
        at0 = t == 0.0
        phi[at0] = 1.0 / (2.0 + alpha + OM_BETA)
        dphi[at0] = 0.5 + (alpha - OM_BETA) / (2.0 * (2.0 + alpha
                                                       + OM_BETA) ** 2)
        trig[at0] = np.sin(m * phi[at0])
        weight = (pi * dphi * trig).astype(float)
        keep = np.flatnonzero(np.abs(weight) > OM_TRIM)
        keep = slice(keep[0], keep[-1] + 1)
        parts.append(((m * phi[keep]).astype(float), weight[keep]))
    return parts


# the rule at OM_M and at 2 OM_M as one node array: the sine and the cosine
# nodes of the coarse level, then of the fine one, at _OM_PARTS
_OM_X, _OM_W, _OM_PARTS = [], [], []
for _x, _wt in (p for m in (OM_M, 2 * OM_M) for p in _om_rule(m)):
    _start = sum(x.size for x in _OM_X)
    _OM_PARTS.append(slice(_start, _start + _x.size))
    _OM_X.append(_x)
    _OM_W.append(_wt)
_OM_X, _OM_W = np.concatenate(_OM_X), np.concatenate(_OM_W)
# the roundoff floor per unit of sum |terms|: 4 ulp, and the phase error
# of the weights, up to 2 OM_M / 2 radians in long double (which may be
# double)
_OM_ULPS = 4.0 * np.finfo(float).eps + OM_M * float(
    np.finfo(np.longdouble).eps)


def _om_tail(gs, a, mags):
    """C[g + h] and S[g - h] on [a, inf) at each entry of the 1-d array
    mags of frequencies |w| > 0 (gs is (g,) or (g, h), with h = 0 in the
    first case), by the Ooura-Mori rule on x = t - a:

        C[f] = cos(|w| a) Cx[f] - sin(|w| a) Sx[f]
        S[f] = sin(|w| a) Cx[f] + cos(|w| a) Sx[f]

    with Cx, Sx the cosine and sine integrals of f(a + x) over [0, inf).
    Returns (cos, sin, est, ok): the values at the fine level, the
    achieved estimate (their distance from the coarse level's plus a
    roundoff floor of a few ulp of the sum of |terms|), and whether the
    estimate is within ABS_TOL + REL_TOL (|cos| + |sin|).  Each |w| is
    sampled once at all nodes of both levels, in blocks of OM_BLOCK entries;
    a row whose terms are not finite is not ok.  QuadratureError, before
    any sample, where the nodes pass the largest float."""
    n = mags.size
    with np.errstate(over="ignore"):
        if a + _OM_X.max() / mags.min() == np.inf:
            raise _refusal(f"tail nodes at |w|={mags.min():.3g} from "
                           f"{a:.3g} pass the largest float")
    sums = np.zeros((2, 4, n), dtype=complex)
    size = np.zeros(n)
    step = max(1, OM_BLOCK // _OM_X.size)
    for i in range(0, n, step):
        r = slice(i, i + step)
        om = mags[r, None]
        t = a + _OM_X / om
        with np.errstate(all="ignore"):
            gt = [np.broadcast_to(g(t), t.shape) for g in gs]
            for k, f in enumerate([gt[0] + gt[1], gt[0] - gt[1]]
                                  if len(gt) == 2 else gt):
                terms = f * _OM_W / om
                for j, part in enumerate(_OM_PARTS):
                    sums[k, j, r] = np.sum(terms[:, part], axis=1)
                size[r] += np.sum(np.abs(terms[:, _OM_PARTS[2].start:]),
                                  axis=1)
    if len(gs) == 1:
        sums[1] = sums[0]
    cs, sn = np.cos(mags * a), np.sin(mags * a)
    # [even, odd] x [sin, cos] x [coarse, fine]
    (es_c, ec_c, es_f, ec_f), (os_c, oc_c, os_f, oc_f) = sums
    cos_c, cos_f = cs * ec_c - sn * es_c, cs * ec_f - sn * es_f
    sin_c, sin_f = sn * oc_c + cs * os_c, sn * oc_f + cs * os_f
    with np.errstate(invalid="ignore"):
        est = np.abs(cos_c - cos_f) + np.abs(sin_c - sin_f) + _OM_ULPS * size
        ok = np.isfinite(est) & (est <= ABS_TOL + REL_TOL * (
            np.abs(cos_f) + np.abs(sin_f)))
    return cos_f, sin_f, est, ok


def _osc(gs, a, b, w):
    """(integral_a^b g(t) e^{i w t} dt, error estimate) at each entry of a
    1-d array w of nonzero frequencies: QAWO on finite [a, b], and the
    Ooura-Mori rule on tails (b = inf).  A |w| whose tail misses the
    rule's tolerance (near a pole close to the axis) takes one rescue step:
    the tail splits at t = 16 max(a, 1), QAWO takes [a, t) at ABS_TOL alone
    (epsrel = 0) and the rule [t, inf); if the rule misses from t as well,
    QuadratureError carries its estimate.  gs is (g,), or (g, h) with the
    mirror integrand h at -w, which adds integral_a^b h(t) e^{-i w t} dt:
    the value is C[g + h] + i sgn(w) S[g - h].  The integrands do not
    depend on w, so one cos/sin pair per distinct |w| serves both signs,
    and its error estimate counts toward each."""
    w = np.asarray(w, dtype=float)
    if not (np.all(np.isfinite(w)) and np.isfinite(a) and a < b):
        raise QuadratureError(f"oscillatory quadrature needs finite "
                              f"frequencies and limits, got w={w} on "
                              f"[{a}, {b})")
    groups = _groups(np.abs(w))
    mags = np.array([mag for (mag,), _ in groups])
    rows, epsrel = np.arange(mags.size), REL_TOL
    cos, sin = np.zeros(mags.size, complex), np.zeros(mags.size, complex)
    est = np.zeros(mags.size)
    if b == np.inf:
        cos, sin, est, ok = _om_tail(gs, a, mags)
        rows, b, epsrel = np.flatnonzero(~ok), 16.0 * max(a, 1.0), 0.0
        if rows.size:
            cos[rows], sin[rows], est[rows], ok = _om_tail(gs, b, mags[rows])
            if not ok.all():
                k = rows[np.argmin(ok)]
                raise _refusal(f"the Ooura-Mori tail at |w|={mags[k]:.3g} "
                               f"achieved error estimate {est[k]:.3g} above "
                               f"tolerance from {a:.3g} and from {b:.3g}",
                               est[k])
    if rows.size:
        even, odd = _sum_diff(gs)
    for k in rows:
        kw = {"wvar": mags[k], "complex_func": True, "limit": LIMIT,
              "epsabs": ABS_TOL, "epsrel": epsrel}
        with _caught():
            v_cos, e_cos = quad(even, a, b, weight="cos", **kw)
            v_sin, e_sin = quad(odd, a, b, weight="sin", **kw)
        cos[k] += v_cos
        sin[k] += v_sin
        e = e_cos + e_sin
        est[k] += e.real + e.imag
    val = np.empty(w.shape, dtype=complex)
    err = np.empty(w.shape)
    for k, (_, idx) in enumerate(groups):
        for i in idx:
            val[i] = cos[k] + 1j * np.sign(w[i]) * sin[k]
        err[idx] = est[k]
    return val, err


def _sum_diff(gs):
    """(even, odd): g + h and g - h under one memo, which serves every |w|
    of a QUADPACK call: the cos and sin runs, and their real and imaginary
    parts; for gs = (g,) both are g."""
    if len(gs) == 1:
        even = _memo(gs[0])
        return even, even
    g, h = gs

    def sum_diff(t):
        gt, ht = g(t), h(t)
        return gt + ht, gt - ht
    both = _memo(sum_diff)
    return (lambda t: both(t)[0]), (lambda t: both(t)[1])


def _t_chart(rhos, lo, hi, w, c):
    """integral_lo^hi rho(t) e^{i(w t - c/t)} dt, and its error estimate,
    at each entry of the 1-d arrays lo, hi, w and c (0 where lo >= hi),
    from t = FLOOR up: the w t phase through ``_osc``, one cos/sin pair per
    |w| of a (c, lo, hi), and a mass (w = c = 0) by quad.  rhos is (rho,),
    or (rho, mirror) with a mirror density paired at (-w, -c) and added,
    in the same integrals."""
    val = np.zeros(w.shape, dtype=complex)
    err = np.zeros(w.shape)
    for (cv, a, b), idx in _groups(c, lo, hi):
        # a part below FLOOR is empty
        a = max(a, FLOOR)
        if a >= b:
            continue
        # the mirror turns the c/t phase the other way
        gs = rhos if cv == 0.0 else tuple(
            lambda t, rho=rho, cs=cs: rho(t) * np.exp(-1j * cs / t)
            for rho, cs in zip(rhos, (cv, -cv)))
        spin, mass = idx[w[idx] != 0.0], idx[w[idx] == 0.0]
        if mass.size:
            val[mass], err[mass] = _cquad(rhos[0] if len(rhos) == 1 else (
                lambda t: rhos[0](t) + rhos[1](t)), a, b)
        segments = {}
        for (mag,), sub in _groups(np.abs(w[spin])):
            # one rule samples neither the scale t ~ |c| < 1 where the c/t
            # phase turns by a radian, nor the mass near t = 1 below a
            # first w t cycle of length 1/|w| > 1: cut at 16^i steps from
            # |c| (or 1) up to 1 (or 1/|w|, below b).  Each |w| climbs its
            # own ladder: QAWO on a smaller |w|'s cuts, far past 1/|w|,
            # reads NaN (from t ~ 3e85 at |w| = pi 1e-9).  The ladders
            # share their steps, so the |w| of one step take one call
            cuts = [a]
            cut = abs(cv) if 0.0 < abs(cv) < 1.0 else 1.0
            while cut < b and (cut < 1.0 or cut * mag < 1.0):
                if cut > a:
                    cuts.append(cut)
                cut *= 16.0
            for step in zip(cuts, cuts[1:] + [b]):
                segments.setdefault(step, []).append(spin[sub])
        for (t0, t1), rows in segments.items():
            rows = np.concatenate(rows)
            v, e = _osc(gs, t0, t1, w[rows])
            val[rows] += v
            err[rows] += e
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
        # from t = 0 the image reaches u = inf, unless |c| < FLOOR, where
        # the tail's nodes would pass the largest float: then it stops at
        # 1/FLOOR, the mirror of the t chart's floor
        u_hi = np.where(np.abs(c) < FLOOR, 1.0 / max(a, FLOOR),
                        1.0 / a if a > 0.0 else np.inf)
        # cut at u = 1/|c|, where the w' u phase turns by a radian: below it
        # QAWO keeps to its Gauss-Kronrod rule, which never reads u = 0
        u_cut = np.clip(1.0 / np.abs(c), u_lo, u_hi)

    # plain arithmetic, not measures' reciprocal rule, whose asarray/where
    # would cost every QUADPACK node: u = 0 (t = inf) is never sampled here
    images = tuple(lambda u, rho=rho: rho(1.0 / u) / u / u for rho in rhos)
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
        # rows of primitives at the edges, in blocks of BLOCK entries
        step = max(1, BLOCK // edges.size)
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
            raise _refusal(f"{labels[i]} reads the non-finite value "
                           f"{vals[i]}", ests[i])
        raise _refusal(f"{labels[i]} achieved error estimate {ests[i]:.3g} "
                       f"above tolerance", ests[i])
    return values, errs


def _checked_ft(mu: HyperbolaMeasure, xi1, xi2, labels):
    """(values, error estimates) of the ft of mu at the points (xi1[i],
    xi2[i]), each within its error budget, else ``QuadratureError``
    naming the first point over it by labels[i]."""
    w = np.pi * np.asarray(xi1, dtype=float)
    c = mu.m**2 * np.asarray(xi2, dtype=float) / (4.0 * np.pi)
    with _diagnosed():
        return _within_budget(*pairing(mu.pi1, w, c), labels)


def ft_point(mu: HyperbolaMeasure, xi) -> tuple[complex, float]:
    """(value, error estimate) of the Fourier transform of mu at the planar
    point xi = (xi1, xi2): a complex and a float, the estimate the one its
    quadrature achieved (0 where closed-form)."""
    xi1, xi2 = float(xi[0]), float(xi[1])
    vals, errs = _checked_ft(mu, [xi1], [xi2], [
        f"oscillatory quadrature at xi=({xi1}, {xi2})"])
    return complex(vals[0]), float(errs[0])


def ft_on_cross(mu: HyperbolaMeasure, cross: LatticeCross):
    """(values, error estimates) of the transform at the cross points, in
    the order of ``cross.points()``: complex and float arrays, each
    estimate the one its quadrature achieved (0 where closed-form)."""
    pts = cross.points()
    return _checked_ft(
        mu, [p[2] for p in pts], [p[3] for p in pts],
        [f"cross point axis={axis} index={idx} xi=({x1}, {x2}): "
         f"oscillatory quadrature" for axis, idx, x1, x2 in pts])


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
