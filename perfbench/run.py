"""hyperlab benchmark.

    python3 perfbench/run.py --workload {sweep,ulam,quadrature} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; hyperlab is imported from ``src/``.  The
workload's operations run in passes, in-process and single-threaded,
while another pass still fits in ``--seconds`` (at least MIN_PASSES); the
set-up time is sampled in fresh interpreters between passes.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics, after checking that both kinds of pass wrote
byte-identical artifacts.  Details go to ``perfbench/out/``.  See
``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# One BLAS thread (nproc is 2 on the reference machine): a second thread
# makes dense kernels spin against neighbouring load and spread the timings.
BLAS_THREADS = 1
MIN_PASSES = 3
# set-up samples are taken between passes, so that their median spans the
# whole run rather than one moment of it; at least SETUP_MIN per run
SETUP_PER_PASS = 3
SETUP_MIN = 11
# margins are log10(threshold / max(error, TINY)); a NaN error, or a run
# with no oracle check left, scores the floor
TINY = 1e-300
MARGIN_FLOOR = -300.0

# time from process start until hyperlab.cli is imported and usable
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import hyperlab.cli; print('ready', flush=True)")


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def measure_setup(samples: int) -> list:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.read(6)
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up child exited {proc.returncode}")
    return times


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpus": os.cpu_count(),
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_reported": openblas_threads(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "platform": platform.platform()}


def run_op(label, fn, run_id, tracer=None) -> dict:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            artifact, checks = fn()
        else:
            artifact, checks = tracer.call(f"bench.{label}", run_id, fn)
    except Exception as exc:  # noqa: BLE001 - any raise fails the operation
        return {"op": label, "ok": False, "s": time.perf_counter() - t0,
                "error": "".join(traceback.format_exception_only(exc)).strip(),
                "digest": None, "checks": []}
    seconds = time.perf_counter() - t0
    ok, evaluated = True, []
    for name, error, threshold in checks:
        if error is None:
            met, margin = threshold, None
        elif math.isnan(error):
            met, margin = False, MARGIN_FLOOR
        else:
            met = error <= threshold
            margin = math.log10(threshold / max(error, TINY))
        ok = ok and met
        evaluated.append({"check": name, "error": error, "met": met,
                          "margin_dex": margin})
    return {"op": label, "ok": ok, "s": seconds, "error": None,
            "digest": hashlib.sha256(artifact.encode()).hexdigest(),
            "checks": evaluated}


def run_pass(ops, number, tracer=None):
    t0 = time.perf_counter()
    outcomes = [run_op(label, fn, f"{number}/{i}", tracer)
                for i, (label, fn) in enumerate(ops)]
    return time.perf_counter() - t0, outcomes


def consistent(passes) -> bool:
    """Every pass gave every operation the same outcome and artifact."""
    first = passes[0][1]
    return all((a["ok"], a["digest"]) == (b["ok"], b["digest"])
               for _, outcomes in passes[1:] for a, b in zip(first, outcomes))


def fits(deadline, durations) -> bool:
    """Whether one more step of median duration ends by the deadline."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def failures(ops, passes) -> int:
    """Operations that failed in any pass (counted once each)."""
    return sum(not all(p[1][i]["ok"] for p in passes)
               for i in range(len(ops)))


def measure(ops, deadline):
    """End-to-end metrics of untraced passes, with set-up samples taken
    before each pass."""
    passes, setup, steps = [], [], []
    while len(passes) < MIN_PASSES or fits(deadline, steps):
        t0 = time.perf_counter()
        setup += measure_setup(SETUP_PER_PASS)
        passes.append(run_pass(ops, len(passes)))
        steps.append(time.perf_counter() - t0)
    setup += measure_setup(SETUP_MIN - len(setup))
    failed = failures(ops, passes)
    margins = [c["margin_dex"] for _, outcomes in passes for o in outcomes
               for c in o["checks"] if c["margin_dex"] is not None]
    metrics = {
        "wall_s": statistics.median(p[0] for p in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(ops) - failed) / len(ops),
        "oracle_margin_dex": min(margins, default=MARGIN_FLOOR),
        "setup_s": statistics.median(setup),
    }
    return consistent(passes), failed, metrics, passes, setup


def measure_traced(ops, deadline, tracer):
    """Per-layer metrics: untraced and traced passes alternate."""
    plain, traced, layers = [], [], []
    while (len(traced) < MIN_PASSES - 1
           or fits(deadline, [a[0] + b[0] for a, b in zip(plain, traced)])):
        plain.append(run_pass(ops, 2 * len(traced)))
        first = len(tracer.spans)
        tracer.counts.clear()
        with tracer.installed():
            traced.append(run_pass(ops, 2 * len(traced) + 1, tracer))
        layers.append(tracer.layer_metrics(first))
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(p[0] for p in traced)
                                   - statistics.median(p[0] for p in plain))
    # self-test: traced and untraced passes wrote byte-identical artifacts
    passes = plain + traced
    return consistent(passes), failures(ops, passes), metrics, passes, []


END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_ratio", "ratio"), ("oracle_margin_dex", "dex"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "ulam", "quadrature"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hyperlab" / "cli.py").is_file():
        sys.stderr.write(f"hyperlab sources not found under {SRC}; run from "
                         "the root of a hyperlab checkout\n")
        return 2
    deadline = time.perf_counter() + args.seconds
    pin_threads()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    ops = workloads.operations(args.workload, args.seed)
    t0 = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer()
        correct, failed, values, passes, setup = measure_traced(
            ops, deadline, tracer)
        units = {k: tracing.unit(k) for k in values}
    else:
        correct, failed, values, passes, setup = measure(ops, deadline)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "setup_samples_s": setup,
              "pass_walls_s": [p[0] for p in passes], "metrics": metrics,
              "operations": [p[1] for p in passes]}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl", t0)

    print("machine " + json.dumps(record["machine"]))
    for i, (label, _) in enumerate(ops):
        runs = [p[1][i] for p in passes]
        note = next((r["error"] for r in runs if r["error"]), "") or \
            " ".join(c["check"] for r in runs[:1] for c in r["checks"]
                     if not c["met"])
        print(f"op {label:<28} ok={all(r['ok'] for r in runs)!s:<5} "
              f"median {statistics.median(r['s'] for r in runs):.4f} s  "
              f"{note}")
    print(f"passes {len(passes)}; operations {len(ops)}, failed {failed}; "
          f"artifacts consistent across passes: {correct}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
