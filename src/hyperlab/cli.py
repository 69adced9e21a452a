"""Command-line front end: configuration, experiment dispatch, and
CSV/JSON/SVG emission.

Conventions shared by every command:
  * config = defaults, overridden by an optional flat key=value file
    (--config), overridden by explicit flags, each value typed and checked
    as it is read by one table of keys (_TABLE) that --help prints; keys
    match exactly, and after --key the next token is always its value;
  * every CSV/JSON artifact embeds the fully resolved config for
    provenance;
  * floats are formatted with ``repr`` (shortest round-trip), so
    identical configs yield byte-identical artifacts;
  * failures exit nonzero after writing one JSON error record
    {schemaVersion, command, key, message} to stderr.
"""

from __future__ import annotations

import json
import sys

import numpy as np

# each runner imports the layer it calls, so that a command loads only the
# scipy it needs
from .measures import WORK_BUDGET_BRANCHES, HyperbolaMeasure, LatticeCross, \
    Measure1D, MeasureError, Piece, QuadratureError, UlamError, \
    piece_from_family

SCHEMA_VERSION = 1


class UsageError(Exception):
    command = ""  # the record's command: "" until the command is known

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class HelpRequested(Exception):
    """--help: main writes the message to stdout and returns 0."""


def _fmt(x) -> str:
    """Shortest round-trip formatting for scalars."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


# ---------------------------------------------------------------------------
# configuration

_TABLE = {}  # command -> (runner, help, {key: (type, default, help[, check])})


def _command(name, help_, **keys):
    def register(run):
        _TABLE[name] = (run, help_, keys)
        return run
    return register


def _positive_list(raw):
    try:
        return all(0 < float(g) < np.inf for g in raw.split(","))
    except ValueError:
        return False


# a key's check: (predicate on its typed value, the words that --help and
# a refusal print); a float key is also finite, by its type
_POSITIVE = (lambda v: v > 0, "positive")
_FRACTION = (lambda v: 0 < v < 1, "in (0, 1)")
_COUNT = (lambda n: n >= 1, "at least 1")
# the floors of an Ulam matrix and of a defect basis; Ulam bins need
# gamma >= 1, so more than the branch work budget can never be assembled
_ULAM_BINS = (lambda n: 2 <= n <= WORK_BUDGET_BRANCHES,
              f"from 2 to {WORK_BUDGET_BRANCHES:.0e}, the Ulam work budget")
_BASIS_BINS = (lambda n: n >= 8, "at least 8")
_FLAG = (lambda v: v in (0, 1), "0 or 1")
_MEASURE = (lambda v: v in ("critical", "expanded"), "critical or expanded")
_GAMMAS = (_positive_list, "a comma list of positive finite numbers")


def _help(command=None) -> str:
    """Usage text read off _TABLE: the commands, or one command's keys."""
    if command is None:
        command, help_ = "<command>", "commands (each takes --help):"
        rows = [(name, h) for name, (_, h, _) in _TABLE.items()]
    else:
        _, help_, keys = _TABLE[command]
        rows = [(f"--{key} {typ.__name__.upper()}", "; ".join(
            [h, *(words for _, words in check)]) + f" (default {d!r})")
            for key, (typ, d, h, *check) in keys.items()]
        rows += [("--config PATH", "flat key=value file; flags override"),
                 ("--out PATH", "artifact path (default: stdout)")]
    lines = [f"usage: hyperlab {command} [--key value ...]", "", help_, ""]
    return "\n".join(lines + [f"  {a:<20} {b}" for a, b in rows]) + "\n"


def parse_config(argv):
    """Resolved (command, config dict, out path): defaults < file < flags.
    Raises a keyed UsageError on a bad token or value (the first one read,
    flags before the file), HelpRequested on --help."""
    command, *args = argv or [""]
    if command == "--help":
        raise HelpRequested(_help())
    if command not in _TABLE:
        raise UsageError("command", f"unknown command {command!r}; see --help")
    try:
        pairs, tokens = [], iter(args)
        for tok in tokens:
            if tok == "--help":
                raise HelpRequested(_help(command))
            key, eq, raw = tok[2:].partition("=")
            if not tok.startswith("--") or not key:
                raise UsageError(tok, f"unexpected argument {tok!r}")
            raw = raw if eq else next(tokens, None)
            if raw is None:
                raise UsageError(key, f"--{key} needs a value")
            pairs.append((key, raw))
        flags = _read(command, pairs, ("config", "out"))
        cfg = {key: spec[1] for key, spec in _TABLE[command][2].items()}
        if "config" in flags:
            cfg.update(_read(command, _file_pairs(flags.pop("config")),
                             ("out",)))
        cfg.update(flags)
        out = cfg.pop("out", None)
    except UsageError as exc:
        exc.command = command
        raise
    return command, cfg, out


def _file_pairs(path):
    """(key, raw value) of each key=value line of a config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("config", str(exc)) from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            key, eq, raw = line.partition("=")
            if not eq:
                raise UsageError(f"line {lineno}",
                                 f"config line is not key=value: {line!r}")
            yield key.strip(), raw.strip()


def _read(command, pairs, paths):
    """{key: value} of flag or file pairs, each typed and checked."""
    keys, vals = _TABLE[command][2], {}
    for key, raw in pairs:
        if key not in keys and key not in paths:
            raise UsageError(key, f"unknown key for {command}: {key!r}")
        typ, _, _, *check = keys.get(key, (str, "", ""))
        try:
            vals[key] = val = typ(raw)
        except ValueError as exc:
            raise UsageError(key, f"{key} must be {typ.__name__}, got "
                                  f"{raw!r}") from exc
        for ok, words in [(np.isfinite, "finite")] * (typ is float) + check:
            if not ok(val):
                raise UsageError(key, f"{key} must be {words}, got {raw!r}")
    return vals


# ---------------------------------------------------------------------------
# emission helpers

def _config_lines(command, cfg):
    yield f"# command = {command}"
    yield f"# schemaVersion = {SCHEMA_VERSION}"
    for key in sorted(cfg):
        yield f"# {key} = {_fmt(cfg[key])}"


def _emit_csv(out, command, cfg, header, cols):
    """CSV of the columns ``cols``, one per header entry: a float ndarray
    is formatted at once, as _fmt would (repr of its floats), any other
    column value by value through _fmt."""
    lines = list(_config_lines(command, cfg))
    lines.append(",".join(header))
    cols = [map(repr, col.tolist())
            if isinstance(col, np.ndarray) and col.dtype == float
            else map(_fmt, col) for col in cols]
    lines += map(",".join, zip(*cols))
    _write_text(out, "\n".join(lines) + "\n")


def _emit_json(out, command, cfg, payload):
    record = {"schemaVersion": SCHEMA_VERSION, "command": command,
              "config": {k: cfg[k] for k in sorted(cfg)}}
    record.update(payload)
    _write_text(out, json.dumps(record, indent=2, sort_keys=False) + "\n")


def _write_text(out, text):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def emit_svg_polyline(points, title: str, path: str) -> None:
    """Standalone 480 x 480 SVG 1.1 (path/line/text only) with axis ticks
    and the polyline through ``points``; byte-stable for identical
    inputs."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise MeasureError("polyline needs at least 2 points")
    if not all(np.isfinite(x) and np.isfinite(y) for x, y in pts):
        raise MeasureError("polyline coordinates must be finite")
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad_x = (x1 - x0) or 1.0
    pad_y = (y1 - y0) or 1.0
    x0, x1 = x0 - 0.05 * pad_x, x1 + 0.05 * pad_x
    y0, y1 = y0 - 0.05 * pad_y, y1 + 0.05 * pad_y
    width = height = 480
    margin = 40

    def to_px(x, y):
        px = margin + (x - x0) / (x1 - x0) * (width - 2 * margin)
        py = height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)
        return f"{px:.2f}", f"{py:.2f}"

    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{height}">',
             f'<text x="{width // 2}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}"'
             f' y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for i in range(5):
        xt = x0 + (x1 - x0) * i / 4
        yt = y0 + (y1 - y0) * i / 4
        px, _ = to_px(xt, y0)
        _, py = to_px(x0, yt)
        parts.append(f'<line x1="{px}" y1="{height - margin}" x2="{px}" '
                     f'y2="{height - margin + 5}" stroke="black"/>')
        parts.append(f'<text x="{px}" y="{height - margin + 18}" '
                     f'text-anchor="middle" font-size="10">{xt:.3g}</text>')
        parts.append(f'<line x1="{margin - 5}" y1="{py}" x2="{margin}" '
                     f'y2="{py}" stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{py}" text-anchor="end" '
                     f'font-size="10">{yt:.3g}</text>')
    d = "M" + "L".join("{} {}".format(*to_px(x, y)) for x, y in pts)
    parts.append(f'<path d="{d}" fill="none" stroke="navy" '
                 f'stroke-width="1"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# experiment dispatch

def _named_measure(cfg) -> HyperbolaMeasure:
    from .annihilators import critical_annihilator, expanded_annihilator
    from .transfer import invariant_density
    if cfg["measure"] == "critical":
        nu = critical_annihilator()
    else:
        dens = invariant_density(cfg["gamma"], cfg["bins"])
        nu = expanded_annihilator(cfg["gamma"], dens)
    return HyperbolaMeasure(2.0 * np.pi, nu)


@_command("ft-eval", "Fourier transform of a named measure at one point",
          measure=(str, "critical", "measure name", _MEASURE),
          gamma=(float, 1.0, "gamma for the expanded measure", _POSITIVE),
          bins=(int, 512, "Ulam bins of the expanded density", _ULAM_BINS),
          xi1=(float, 0.0, "first coordinate of xi"),
          xi2=(float, 0.0, "second coordinate of xi"))
def _run_ft_eval(cfg, out):
    from .fourier import ft_point
    val, err = ft_point(_named_measure(cfg), (cfg["xi1"], cfg["xi2"]))
    _emit_json(out, "ft-eval", cfg,
               {"re": val.real, "im": val.imag, "absErrEstimate": err,
                "convention": "exp(i pi (xi1 t + xi2 x2(t)))"})


@_command("ft-cross", "Fourier transform on a lattice-cross",
          measure=(str, "critical", "measure name", _MEASURE),
          gamma=(float, 1.0, "gamma for the expanded measure", _POSITIVE),
          bins=(int, 512, "Ulam bins of the expanded density", _ULAM_BINS),
          alpha=(float, 2.0, "axis-1 spacing", _POSITIVE),
          beta=(float, 2.0, "axis-2 spacing", _POSITIVE),
          jmax=(int, 5, "axis-1 index range -jmax..jmax", _COUNT),
          kmax=(int, 5, "axis-2 index range -kmax..kmax", _COUNT))
def _run_ft_cross(cfg, out):
    from .fourier import ft_on_cross
    cross = LatticeCross(cfg["alpha"], cfg["beta"], cfg["jmax"], cfg["kmax"])
    vals, errs = ft_on_cross(_named_measure(cfg), cross)
    _emit_csv(out, "ft-cross", cfg,
              ("axis", "index", "xi1", "xi2", "re", "im", "absErrEstimate"),
              (*zip(*cross.points()), vals.real, vals.imag, errs))


@_command("invariant-density", "Ulam invariant density of U_gamma",
          gamma=(float, 1.0, "map parameter", _POSITIVE),
          bins=(int, 4096, "Ulam bins", _ULAM_BINS))
def _run_invariant_density(cfg, out):
    from .transfer import invariance_residual, invariant_density
    dens = invariant_density(cfg["gamma"], cfg["bins"])
    cfg = dict(cfg, residual=invariance_residual(dens, 2000))
    _emit_csv(out, "invariant-density", cfg,
              ("binLeft", "binRight", "density"),
              (dens.edges[:-1], dens.edges[1:], dens.values))


@_command("annihilator-check", "annihilating-measure residual report",
          gamma=(float, 1.0, "gamma (1 = critical, >1 = expanded)", _POSITIVE),
          bins=(int, 4096, "Ulam bins for gamma > 1", _ULAM_BINS),
          gridn=(int, 10000, "residual grid size", _COUNT))
def _run_annihilator_check(cfg, out):
    from .annihilators import annihilator_report
    from .transfer import invariant_density
    dens = None
    if cfg["gamma"] > 1.0:
        dens = invariant_density(cfg["gamma"], cfg["bins"])
    mass, sym, r1, r2 = annihilator_report(cfg["gamma"], dens, cfg["gridn"])
    _emit_json(out, "annihilator-check", cfg, {
        "gamma": cfg["gamma"], "totalMass": [mass.real, mass.imag],
        "symmetryResidual": sym, "periodizedResidualSum1": r1,
        "periodizedResidualSum2": r2, "gridN": cfg["gridn"]})


@_command("perturbed-residual", "perturbed invariance-equation residual",
          gamma=(float, 1.5, "gamma in (1, 2]", _POSITIVE),
          bins=(int, 1024, "Ulam bins", _ULAM_BINS),
          gridn=(int, 2000, "residual grid size", _COUNT))
def _run_perturbed_residual(cfg, out):
    from .annihilators import perturbed_equation_residual
    from .transfer import invariant_density
    gamma = cfg["gamma"]
    dens = invariant_density(gamma, cfg["bins"])
    # omega1 = the invariant measure, omega2 = 0: the unperturbed solution
    omega1 = Measure1D(pieces=(piece_from_family(
        0.0, 1.0, "binned", {"edges": dens.edges, "values": dens.values},
        1.0),))
    res = perturbed_equation_residual(omega1, Measure1D(), gamma,
                                      cfg["gridn"])
    _emit_json(out, "perturbed-residual", cfg, {"maxResidual": res})


@_command("coverage", "Gauss-map even-time coverage of [gamma, 1]",
          gamma=(float, 0.5, "map parameter", _POSITIVE),
          iterates=(int, 20, "maximum even iterate", _COUNT),
          gridn=(int, 100000, "midpoint grid size", _COUNT))
def _run_coverage(cfg, out):
    from .dynamics import coverage_fraction
    fracs = coverage_fraction(cfg["gamma"], cfg["iterates"], cfg["gridn"])
    _emit_csv(out, "coverage", cfg, ("evenTime", "fraction"),
              (range(0, 2 * len(fracs), 2), fracs))


@_command("sici-spiral", "Nielsen spiral (ci(x), si(x))",
          xmin=(float, 0.01, "grid start", _POSITIVE),
          xmax=(float, 100.0, "grid end", _POSITIVE),
          n=(int, 10000, "grid size", _COUNT),
          svg=(str, "", "optional SVG path for the spiral polyline"))
def _run_sici_spiral(cfg, out):
    from .sici import nielsen_spiral
    grid = np.geomspace(cfg["xmin"], cfg["xmax"], cfg["n"])
    ci, si = nielsen_spiral(grid)
    # the SVG first, so that a path it cannot write leaves no CSV behind
    if cfg["svg"]:
        emit_svg_polyline(zip(ci.tolist(), si.tolist()),
                          "Nielsen spiral (ci, si)", cfg["svg"])
    modulus = np.hypot(ci, si)
    cfg = dict(cfg, minModulus=float(np.min(modulus)))
    _emit_csv(out, "sici-spiral", cfg, ("x", "ci", "si", "modulus"),
              (grid, ci, si, modulus))


def _hardy_test_measure(conjugate: bool) -> Measure1D:
    sign = -1.0 if conjugate else 1.0

    def rho(t):
        # a complex power raises OverflowError past |t| ~ 1e154; the
        # product reads 0j there, and is bit-identical below it
        z = t + sign * 1j
        return 1.0 / (z * z)

    return Measure1D(pieces=(
        Piece(-np.inf, 0.0, rho, 2.0, params={"tail_c": 1.0, "tail_p": 2.0}),
        Piece(0.0, np.inf, rho, 2.0, params={"tail_c": 1.0, "tail_p": 2.0})))


@_command("hardy-defect", "Hardy-space defect of a 2-periodization",
          conjugate=(int, 0, "1 to test the conjugate family", _FLAG),
          nmax=(int, 64, "coefficient cutoff", _COUNT))
def _run_hardy_defect(cfg, out):
    from .hardy import hardy_defect
    f = _hardy_test_measure(bool(cfg["conjugate"]))
    d = hardy_defect(f, cfg["nmax"])
    _emit_json(out, "hardy-defect", cfg, {
        "negMass": d.neg_mass, "nonposMass": d.nonpos_mass,
        "totalMass": d.total_mass, "ratio": d.ratio,
        "nonposRatio": d.nonpos_ratio, "errEstimate": d.err_estimate})


@_command("hilbert-check", "Hilbert transform of the Cauchy density",
          xmax=(float, 3.0, "check grid endpoint", _POSITIVE),
          n=(int, 7, "check grid size", _COUNT))
def _run_hilbert_check(cfg, out):
    from .hardy import hilbert_line

    def cauchy(t):
        return 1.0 / (np.pi * (1.0 + t * t))

    f = Measure1D(pieces=(
        Piece(-np.inf, 0.0, cauchy, 0.5,
              params={"tail_c": 1.0 / np.pi, "tail_p": 2.0}),
        Piece(0.0, np.inf, cauchy, 0.5,
              params={"tail_c": 1.0 / np.pi, "tail_p": 2.0})))
    grid = np.linspace(-cfg["xmax"], cfg["xmax"], cfg["n"])
    vals = hilbert_line(f, grid)[0]
    exact = grid / (np.pi * (1.0 + grid**2))
    err = np.abs(vals - exact)
    cfg = dict(cfg, maxError=float(np.max(err)))
    _emit_csv(out, "hilbert-check", cfg, ("x", "re", "im", "absError"),
              (grid, vals.real, vals.imag, err))


@_command("timelike-witness", "residue-identity pairings of f_{z0}",
          im=(float, 1.0, "imaginary part of z0", _POSITIVE),
          beta=(float, 1.0, "axis-2 spacing", _POSITIVE),
          jmax=(int, 10, "largest j", _COUNT),
          kmax=(int, 10, "largest k", _COUNT))
def _run_timelike_witness(cfg, out):
    from .hardy import timelike_witness
    vals, errs = timelike_witness(complex(0.0, cfg["im"]), cfg["beta"],
                                  cfg["jmax"], cfg["kmax"])
    j, k = range(cfg["jmax"] + 1), range(cfg["kmax"] + 1)
    # hypot is what abs() of a Python complex computes, to the last bit
    _emit_csv(out, "timelike-witness", cfg,
              ("kind", "index", "re", "im", "abs", "errEstimate"),
              (["j"] * len(j) + ["k"] * len(k), [*j, *k],
               vals.real, vals.imag, np.hypot(vals.real, vals.imag), errs))


@_command("defect-sweep", "singular-value defect sweep over gamma",
          gammas=(str, "0.6,0.8,1.0,1.2,1.5", "gamma grid", _GAMMAS),
          tmin=(float, 0.08, "basis band start", _POSITIVE),
          tmax=(float, 12.5, "basis band end", _POSITIVE),
          bins=(int, 202, "basis bins", _BASIS_BINS),
          jmax=(int, 640, "axis-1 truncation", _COUNT),
          kmax=(int, 640, "axis-2 truncation", _COUNT),
          threshold=(float, 1e-2, "relative singular-value cutoff", _FRACTION))
def _run_defect_sweep(cfg, out):
    from .defect import CandidateBasis, sweep_gamma
    basis = CandidateBasis(cfg["tmin"], cfg["tmax"], cfg["bins"])
    gammas = [float(s) for s in cfg["gammas"].split(",")]
    tails, defects = sweep_gamma(basis, gammas, cfg["jmax"], cfg["kmax"],
                                 cfg["threshold"])
    _emit_csv(out, "defect-sweep", cfg,
              ("gamma", "defect", "s1", "s2", "s3", "s4", "s5", "s6"),
              (gammas, defects, *tails.T))


@_command("distorted-cross", "spectral-window test for a shifted half-cross",
          xi1=(float, 0.0, "axis-1 shift of the distorted cross"),
          xi2=(float, 0.0, "axis-2 shift (must be 0)"),
          threshold=(float, 1e-3, "relative singular-value cutoff", _FRACTION))
def _run_distorted_cross(cfg, out):
    from .defect import distorted_cross_residual
    est = distorted_cross_residual((cfg["xi1"], cfg["xi2"]),
                                   threshold=cfg["threshold"])
    sv = est.singular_values
    _emit_json(out, "distorted-cross", cfg, {
        "numericalDefect": est.numerical_defect,
        "sigmaMax": float(sv[0]), "sigmaMin": float(np.min(sv)),
        "singularTail": [float(s) for s in np.sort(sv)[:6]]})


COMMANDS = tuple(_TABLE)


def _error_record(command, key, message):
    return json.dumps({"schemaVersion": SCHEMA_VERSION, "command": command,
                       "key": key, "message": message}) + "\n"


def run_experiment(command, cfg, out) -> int:
    try:
        _TABLE[command][0](cfg, out)
        return 0
    except (MeasureError, UlamError, QuadratureError, ValueError,
            MemoryError, OverflowError, OSError) as exc:
        sys.stderr.write(_error_record(command, "", str(exc)))
        return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, cfg, out = parse_config(argv)
    except HelpRequested as exc:
        sys.stdout.write(str(exc))
        return 0
    except UsageError as exc:
        sys.stderr.write(_error_record(exc.command, exc.key, str(exc)))
        return 2
    return run_experiment(command, cfg, out)


if __name__ == "__main__":
    sys.exit(main())
