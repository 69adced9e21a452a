"""Complex measures on the real line and on the hyperbola x1*x2 = -m^2/(4 pi^2).

A measure is a finite list of atoms plus a finite list of density pieces on
half-open intervals [a, b).  Densities are stored as evaluable functions
together with a declared total-variation bound; family pieces (``cauchy1p``,
``binned``) let downstream code switch to closed-form evaluation, and one
with ``s`` > 0 in its params, on [a, b), is the image of the family piece
on [s/b, s/a) under t -> s/t.

Hyperbola measures are represented through their compression to the first
coordinate axis; the branch map t -> (t, -m^2/(4 pi^2 t)) recovers the
planar measure everywhere except at t = 0.

This module loads no scipy, so it also holds the names the CLI builds,
validates and catches before a command imports its layer: the
lattice-cross and the error types and budgets of the layers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# points a lattice-cross may list, each one transform or one pairing row:
# a bound on the problem size, not on its accuracy
MAX_CROSS_POINTS = 10 ** 5
# gamma * n_bins, the number of branches reaching the Ulam bins: a bound on
# the problem size the assembly accepts, not on its accuracy
WORK_BUDGET_BRANCHES = 10 ** 7


def __getattr__(name):
    # quad is scipy.integrate.quad, imported on first use (PEP 562)
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad
    globals()["quad"] = quad
    return quad


class MeasureError(ValueError):
    pass


class QuadratureError(RuntimeError):
    """Raised when an oscillatory integral misses its tolerance budget."""

    def __init__(self, message, error_estimate=np.nan):
        super().__init__(message)
        self.error_estimate = error_estimate


class UlamError(RuntimeError):
    pass


@dataclass(frozen=True)
class LatticeCross:
    """Lattice-cross (alpha Z x {0}) u ({0} x beta Z) truncated to |j| <=
    j_max and |k| <= k_max: symmetric under xi -> -xi by construction."""

    alpha: float
    beta: float
    j_max: int
    k_max: int

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("spacings must be strictly positive")
        if self.j_max < 0 or self.k_max < 0:
            raise ValueError("index bounds must be nonnegative")
        n = 2 * (self.j_max + self.k_max + 1)
        if n > MAX_CROSS_POINTS:
            raise ValueError(f"the cross has {n:.3g} points, over the "
                             f"budget {MAX_CROSS_POINTS:.0e}")

    def points(self):
        """Cross points in deterministic order: axis 1 ascending j, then
        axis 2 ascending k.  The origin appears once per axis."""
        return ([(1, j, self.alpha * j, 0.0)
                 for j in range(-self.j_max, self.j_max + 1)]
                + [(2, k, 0.0, self.beta * k)
                   for k in range(-self.k_max, self.k_max + 1)])


# ---------------------------------------------------------------------------
# density families

# plain arithmetic serves a scalar (a QUADPACK callback) and an array alike

def _cauchy1p(scale: complex) -> Callable:
    return lambda t: scale / (1.0 + t)


def _binned(edges: np.ndarray, values: np.ndarray, side="right") -> Callable:
    # v on [e_k, e_{k+1}), or on (e_k, e_{k+1}] at side "left"; 0 off it
    edges = np.asarray(edges, dtype=float)
    table = np.concatenate([[0.0], np.asarray(values), [0.0]])
    return lambda t: table[np.searchsorted(edges, t, side=side)]


def _reciprocal_density(rho: Callable, s: float, at_0: float) -> Callable:
    """x -> rho(s/x) |s|/x^2, the image of the density rho under t -> s/t
    (s != 0), reading ``at_0`` at x = 0, the image of t = inf."""
    def image(x):
        x = np.asarray(x, dtype=float)
        # near x = 0, s / x may overflow and x**2 underflow to 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = rho(s / x) * abs(s) / x**2
        return np.where(x == 0.0, at_0, out)
    return image


def density_from_family(family: str, params: dict) -> Callable:
    """The family density w, or with params["s"] the density w(s/x) s/x^2
    of its image under x = s/t, whose bins [s/e_{k+1}, s/e_k) are half-open
    like every piece: w reads u = s/x on (e_k, e_{k+1}], and x = 0 reads 0."""
    s = params.get("s")
    if family == "cauchy1p":
        w = _cauchy1p(params["scale"])
    elif family == "binned":
        w = _binned(params["edges"], params["values"],
                    "right" if s is None else "left")
    else:
        raise MeasureError(f"unknown density family {family!r}")
    return w if s is None else _reciprocal_density(w, s, 0.0)


@dataclass(frozen=True)
class Piece:
    """Density piece on the half-open interval [a, b); b may be +inf.

    A QUADPACK integral samples ``density`` once per node, and the value
    serves the real and imaginary parts and the cos and sin runs alike: so
    a density must be a pure function of t."""

    a: float
    b: float
    density: Callable
    tv_bound: float
    family: Optional[str] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.a < self.b:
            raise MeasureError(f"empty piece support [{self.a}, {self.b})")
        if self.tv_bound < 0:
            raise MeasureError("tv_bound must be nonnegative")

    @property
    def image_s(self) -> Optional[float]:
        """s when the piece is the image of a family piece under t -> s/t
        (params["s"]), else None: a generic piece is never an image."""
        return None if self.family is None else self.params.get("s")

    def check_integrable(self) -> None:
        """Raise MeasureError unless the piece is finite, the image of a
        family piece, or carries a caller-certified majorant |rho(t)| <=
        tail_c |t|^-tail_p with tail_p > 1."""
        if np.isfinite(self.a) and np.isfinite(self.b) \
                or self.image_s is not None:
            return
        if "tail_c" not in self.params:
            raise MeasureError("infinite piece without a certified tail "
                               "majorant")
        if self.params["tail_p"] <= 1.0:
            raise MeasureError("tail majorant must be integrable (p > 1)")


def _cut_table(edges, values, a: float, b: float):
    """The bins of the table (edges, values) that meet [a, b), clipped to
    it."""
    edges = np.asarray(edges, dtype=float)
    values = np.asarray(values)
    lo, hi = max(a, edges[0]), min(b, edges[-1])
    if not lo < hi:
        raise MeasureError(f"bin table on [{edges[0]}, {edges[-1]}) "
                           f"misses [{a}, {b})")
    return (np.r_[lo, edges[(edges > lo) & (edges < hi)], hi],
            values[(edges[1:] > lo) & (edges[:-1] < hi)])


def piece_from_family(a: float, b: float, family: str, params: dict,
                      tv_bound: float) -> Piece:
    """A family piece on [a, b), or with params["s"] > 0 the image of one
    under t -> s/t.  A bin table is cut to the piece (for an image, to
    [s/b, s/a) in the family chart), so the table is the piece's support."""
    params = dict(params)
    s = params.get("s")
    if s is not None and not s > 0.0:
        raise MeasureError("an image piece needs s > 0")
    if family == "binned":
        lo, hi = (a, b) if s is None else (s / b, s / a if a > 0.0 else np.inf)
        params["edges"], params["values"] = _cut_table(
            params["edges"], params["values"], lo, hi)
    return Piece(a, b, density_from_family(family, params), tv_bound,
                 family=family, params=params)


@dataclass(frozen=True)
class Measure1D:
    """Atoms plus density pieces on the line; supports must not overlap."""

    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        ivs = sorted((p.a, p.b) for p in self.pieces)
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if a2 < b1:
                raise MeasureError("piece supports overlap")

    def density_at(self, t):
        """Total density at points t (atoms ignored)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for p in self.pieces:
            mask = (t >= p.a) & (t < p.b)
            if np.any(mask):
                out[mask] += p.density(t[mask])
        return out



@dataclass(frozen=True)
class HyperbolaMeasure:
    """Measure on Gamma_m, stored through its first-axis compression."""

    m: float
    pi1: Measure1D

    def __post_init__(self):
        if self.m <= 0:
            raise MeasureError("mass parameter m must be positive")
        for x, _ in self.pi1.atoms:
            if x == 0.0:
                raise MeasureError("atom at 0 is not liftable to the hyperbola")
        for p in self.pi1.pieces:
            if p.a < 0.0 < p.b:
                raise MeasureError("piece support must not contain 0 in its "
                                   "interior")


# ---------------------------------------------------------------------------
# operations

def _image_piece(p: Piece, s: float) -> Piece:
    """Image of the piece p under t -> s/t (s != 0), composed symbolically.
    A family piece and its image under one s > 0 map to each other: so
    ``_image_piece(p, p.image_s)`` is an image's family piece."""
    if p.a < 0.0 < p.b:
        raise MeasureError("pushforward under t -> s/t needs support away "
                           "from 0")
    side = 1.0 if p.a >= 0.0 else -1.0

    def inv_end(x):
        # an end at 0 is reached from the piece's side
        return (np.inf * np.sign(s) * side if x == 0.0
                else s / x if np.isfinite(x) else 0.0)
    a_new, b_new = sorted((inv_end(p.a), inv_end(p.b)))
    s0 = p.image_s
    if p.family is not None:
        params = {k: v for k, v in p.params.items() if k != "s"}
        if s > 0.0 and p.a >= 0.0 and s0 in (None, s):
            if s0 is None:
                params["s"] = s
            return piece_from_family(a_new, b_new, p.family, params,
                                     p.tv_bound)
        if s0 is not None:
            # the dilation w(k x) |k|, k = s0/s, of an image under t -> s0/t
            # pushed by another s: finite at 0, where an image's image is NaN
            w, k = density_from_family(p.family, params), s0 / s
            return Piece(a_new, b_new, lambda x: w(
                k * np.asarray(x, dtype=float)) * abs(k), p.tv_bound)
    # at x = 0 (t = inf) a majorant |t|^-p with p > 2 gives 0, else unknown
    at_0 = 0.0 if p.params.get("tail_p", 0.0) > 2.0 else np.nan
    return Piece(a_new, b_new, _reciprocal_density(p.density, s, at_0),
                 p.tv_bound)


def _pushforward_reciprocal(nu: Measure1D, s: float) -> Measure1D:
    """Image of nu under t -> s/t (s != 0), composed symbolically."""
    if any(x == 0.0 for x, _ in nu.atoms):
        raise MeasureError("pushforward under t -> s/t needs no mass at 0")
    return Measure1D(tuple((s / x, w) for x, w in nu.atoms),
                     tuple(_image_piece(p, s) for p in nu.pieces))


def compress_pi2(mu: HyperbolaMeasure) -> Measure1D:
    """Compression to the x2-axis: pushforward of pi1 under t -> -m^2/(4 pi^2 t)."""
    return _pushforward_reciprocal(mu.pi1, -mu.m**2 / (4.0 * np.pi**2))


def pushforward_inversion(nu: Measure1D, gamma: float) -> Measure1D:
    """Image of nu under the involution t -> gamma/t."""
    if gamma <= 0:
        raise MeasureError("gamma must be positive")
    return _pushforward_reciprocal(nu, gamma)


def total_variation(nu: Measure1D) -> float:
    """Sum of |atom weights| plus integrals of |density| over the pieces.
    A piece whose integral is not finite, or whose estimate misses the
    bound, raises a QuadratureError that carries QUADPACK's warnings."""
    # fourier holds the diagnostics, imported on first call so that
    # importing this module loads no scipy
    from .fourier import _caught, _diagnosed, _refusal
    rel_tol = 1e-10
    # through the module binding, which a profiler may patch
    quad = sys.modules[__name__].quad
    tv = sum(abs(w) for _, w in nu.atoms)
    with _diagnosed():
        for p in nu.pieces:
            with _caught():
                val, err = quad(lambda t: abs(p.density(t)), p.a, p.b,
                                limit=400, epsabs=1e-13, epsrel=rel_tol)
            # a NaN estimate is not within the bound
            if not (np.isfinite(val)
                    and err <= rel_tol * max(1.0, abs(val)) + 1e-9):
                raise _refusal(f"quadrature did not converge on piece "
                               f"[{p.a}, {p.b}): value {val:g}, error "
                               f"estimate {err:g}", err)
            tv += val
    return tv

