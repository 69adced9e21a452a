"""The benchmark's workloads: the operations of one pass and their oracles.

Every operation returns ``(artifact, checks)``.  The artifact is the text
a CLI command wrote (or the repr of a library result); passes compare it
byte for byte.  Each check is ``(label, error, threshold)``, met when
``error <= threshold``, or ``(label, None, ok)`` for a pattern check.
Thresholds are the acceptance gate's (tests/test_acceptance.py) unless a
comment names another source.  An operation fails when its command exits
nonzero, it raises, or it misses a check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import numpy as np
from scipy.special import sici

from hyperlab import annihilators, cli, defect, fourier, hardy, measures
from hyperlab.measures import Measure1D, Piece

LOG2 = math.log(2.0)

# ft-eval points: one log-uniform draw per decade of xi1 in [1e-2, 1e7)
FT_EVAL_DECADES = range(-2, 7)


class CommandFailed(RuntimeError):
    pass


def run_cli(*argv: str) -> str:
    """hyperlab.cli.main in-process; the artifact is what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        lines = err.getvalue().strip().splitlines() or [""]
        raise CommandFailed(f"exit {code}: {lines[-1]}")
    return out.getvalue()


def read_csv(text: str):
    """(config, header, rows) of a CLI CSV artifact."""
    cfg, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            cfg[key] = val
        else:
            body.append(line.split(","))
    return cfg, body[0], body[1:]


def numeric(rows) -> np.ndarray:
    return np.array([[float(v) for v in r] for r in rows])


def worst_pairing(text: str) -> float:
    """Largest |value| in an ft-cross artifact."""
    vals = numeric(read_csv(text)[2])
    return float(np.max(np.hypot(vals[:, 4], vals[:, 5])))


def check(label, error, threshold):
    return (label, float(error), threshold)


def pattern(label, ok):
    return (label, None, bool(ok))


# ---------------------------------------------------------------------------
# sweep: the gamma = 1 phase transition (defect layer)

def defect_sweep():
    text = run_cli("defect-sweep")
    defects = [int(r[1]) for r in read_csv(text)[2]]
    ok = defects[:3] == [0, 0, 1] and min(defects[3:]) >= 1
    return text, [pattern(f"criterion 4 defects {defects}", ok)]


def nullvector_cosine():
    b1 = defect.CandidateBasis(0.08, 12.5, 202).with_anchor(1.0)
    est = defect.defect_estimate(defect.build_constraint_matrix(
        b1, defect.cross_for_gamma(1.0, 640, 640)), 1e-2)
    cos = defect.cosine_similarity(
        est.nullvectors[0], b1.project(annihilators.critical_annihilator()))
    return repr(cos), [check("criterion 4 null-vector cosine", 1.0 - cos,
                             1e-2)]


def distorted_cross(xi1: str, want_defect: bool):
    text = run_cli("distorted-cross", "--xi1", xi1)
    d = json.loads(text)["numericalDefect"]
    return text, [pattern(f"distorted-cross xi1={xi1} defect {d}",
                          (d >= 1) if want_defect else (d == 0))]


# ---------------------------------------------------------------------------
# ulam: transfer operator and periodization sums

def invariant_density():
    text = run_cli("invariant-density", "--gamma", "1", "--bins", "8192")
    left, right, dens = numeric(read_csv(text)[2]).T
    closed = 1.0 / ((1.0 + 0.5 * (left + right)) * LOG2)
    l1 = float(np.sum(np.abs(dens - closed) * (right - left)))
    return text, [check("criterion 1 Ulam L1 vs closed form", l1, 1e-3)]


def annihilator_check():
    text = run_cli("annihilator-check", "--gamma", "1.5")
    rep = json.loads(text)
    return text, [
        check("criterion 5 periodized sum 1", rep["periodizedResidualSum1"],
              5e-3),
        check("criterion 5 periodized sum 2", rep["periodizedResidualSum2"],
              5e-3),
        check("criterion 5 symmetry", rep["symmetryResidual"], 1e-12)]


def expanded_cross():
    text = run_cli("ft-cross", "--measure", "expanded", "--gamma", "1.5",
                   "--bins", "4096", "--alpha", "2", "--beta", "3",
                   "--jmax", "20", "--kmax", "20")
    return text, [check("criterion 5 max cross pairing", worst_pairing(text),
                        1e-3)]


def perturbed_residual():
    text = run_cli("perturbed-residual")
    # tests/test_annihilators.py: the Ulam discretization level
    return text, [check("perturbed residual", json.loads(text)["maxResidual"],
                        5e-3)]


def coverage():
    text = run_cli("coverage")
    last = float(read_csv(text)[2][-1][1])
    return text, [check("criterion 9 coverage shortfall", 1.0 - last, 0.01)]


# ---------------------------------------------------------------------------
# quadrature: Hardy periodization, QUADPACK pairings, scalar si/ci

def hardy_defect(conjugate: bool):
    text = run_cli("hardy-defect", "--conjugate", "1" if conjugate else "0")
    ratio = json.loads(text)["ratio"]
    if conjugate:
        return text, [check("criterion 8 conjugate ratio shortfall",
                            1.0 - ratio, 1e-3)]
    return text, [check("criterion 8 Hardy defect ratio", ratio, 1e-6)]


def hilbert_check():
    text = run_cli("hilbert-check")
    err = float(read_csv(text)[0]["maxError"])
    return text, [check("criterion 7 H[Cauchy] error", err, 1e-6)]


def timelike_witness():
    text = run_cli("timelike-witness")
    rows = read_csv(text)[2]
    worst = max(float(r[4]) for r in rows)
    return text, [pattern(f"criterion 6 {len(rows)} pairings", len(rows) == 22),
                  check("criterion 6 max pairing", worst, 1e-6)]


def sici_spiral():
    text = run_cli("sici-spiral")
    cfg, _, rows = read_csv(text)
    x, ci, si, _ = numeric(rows).T
    ref_si, ref_ci = sici(x)
    err = max(float(np.max(np.abs(ci - ref_ci))),
              float(np.max(np.abs(si - (0.5 * np.pi - ref_si)))))
    # independent oracle; criterion 3 budgets si/ci errors at 1e-11
    return text, [pattern("criterion 3 spiral min modulus > 0",
                          float(cfg["minModulus"]) > 0.0),
                  check("si/ci vs scipy.special.sici", err, 1e-11)]


def critical_cross():
    text = run_cli("ft-cross", "--measure", "critical", "--jmax", "20",
                   "--kmax", "20")
    # tests/test_fourier.py: critical pairings on the cross vanish
    return text, [check("critical cross pairing", worst_pairing(text), 1e-8)]


def _j_family(kind: str) -> Measure1D:
    tp = {"tail_c": 1.0, "tail_p": 2.0}
    if kind == "box":
        return Measure1D(pieces=(Piece(1.0, 2.0, lambda t: np.ones_like(
            np.asarray(t, dtype=float)), 1.0),))
    if kind == "power":
        return Measure1D(pieces=(Piece(0.5, np.inf, lambda t: np.asarray(
            t, dtype=float) ** -2.0, 2.0, params=tp),))
    return Measure1D(pieces=(Piece(-2.0, -0.5, lambda t: 1.0 / (
        1.0 + np.asarray(t) ** 2), 1.0),))


def j_isometry(kind: str):
    f = _j_family(kind)
    jf = hardy.inversion_j(f, 1.5)
    iso = abs(measures.total_variation(jf) - measures.total_variation(f))
    t = np.array([-1.7, -0.9, 0.6, 1.3, 1.9])
    inv = float(np.max(np.abs(hardy.inversion_j(jf, 1.5).density_at(t)
                              - f.density_at(t))))
    return repr((iso, inv)), [check(f"criterion 8 J isometry ({kind})", iso,
                                    1e-10),
                              check(f"criterion 8 involution ({kind})", inv,
                                    1e-12)]


def ft_eval(xi1: float):
    text = run_cli("ft-eval", "--measure", "critical", "--xi1", repr(xi1))
    rec = json.loads(text)
    err = abs(complex(rec["re"], rec["im"])
              - fourier.critical_measure_ft(0.5 * xi1))
    # tests/test_fourier.py: ft_point agrees with the closed form to 1e-8
    return text, [check(f"ft-eval xi1={xi1!r} vs closed form", err, 1e-8)]


def ft_eval_points(seed: int) -> list:
    """The only seed-dependent inputs: xi1 log-uniform within each decade
    of [1e-2, 1e7), so every seed reaches past 1e6."""
    rng = random.Random(seed)
    return [10.0 ** (d + rng.random()) for d in FT_EVAL_DECADES]


# ---------------------------------------------------------------------------

def operations(workload: str, seed: int) -> list:
    """[(label, callable)] for one pass of the workload."""
    if workload == "sweep":
        return [("defect-sweep", defect_sweep),
                ("nullvector-cosine", nullvector_cosine),
                ("distorted-cross 0", lambda: distorted_cross("0", False)),
                ("distorted-cross -1", lambda: distorted_cross("-1", False)),
                ("distorted-cross 1", lambda: distorted_cross("1", True))]
    if workload == "ulam":
        return [("invariant-density", invariant_density),
                ("annihilator-check", annihilator_check),
                ("ft-cross expanded", expanded_cross),
                ("perturbed-residual", perturbed_residual),
                ("coverage", coverage)]
    if workload == "quadrature":
        ops = [("hardy-defect", lambda: hardy_defect(False)),
               ("hardy-defect conjugate", lambda: hardy_defect(True)),
               ("hilbert-check", hilbert_check),
               ("timelike-witness", timelike_witness),
               ("sici-spiral", sici_spiral),
               ("ft-cross critical", critical_cross)]
        ops += [(f"j-isometry {k}", lambda k=k: j_isometry(k))
                for k in ("box", "power", "cauchy")]
        ops += [(f"ft-eval {x!r}", lambda x=x: ft_eval(x))
                for x in ft_eval_points(seed)]
        return ops
    raise ValueError(f"unknown workload {workload!r}")
