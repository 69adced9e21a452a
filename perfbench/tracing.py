"""Span tracer for the benchmark's traced run.

Nothing under ``src/`` is edited.  While a traced pass runs, every public
module-level function of every ``hyperlab`` module is replaced, in each
module namespace that binds it (so ``from .x import f`` bindings in other
modules are covered too), by a wrapper that records a span

    [name, start, end, parent span index, run id]

in memory.  ``scipy.integrate.quad`` as bound in the modules that call it
is replaced by a counter charged to the layer of the innermost open span.
The originals are restored when the pass ends.  The observers that read
work counts off returned objects run in ``trace.observe`` spans, so their
time is charged to the tracer, not to the calling layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

from hyperlab.cli import COMMANDS

LAYERS = ("cli", "defect", "transfer", "annihilators", "fourier", "hardy",
          "sici", "dynamics", "measures", "bench")

# functions whose self time is reported as <name>.s
SELF_TIMED = ("defect.build_constraint_matrix", "defect.defect_estimate",
              "transfer.build_ulam", "transfer.invariant_density",
              "transfer.invariance_residual",
              "annihilators.periodization_sum1",
              "annihilators.periodization_sum2",
              "fourier.ft_point", "fourier.critical_measure_ft",
              "hardy.periodize_q2", "hardy.fourier_coeffs_periodic",
              "hardy.hilbert_line", "hardy.timelike_witness",
              "sici.nielsen_spiral", "measures.total_variation",
              "dynamics.coverage_fraction")

# functions whose call count is reported as <name>.calls
CALL_COUNTED = ("defect.build_constraint_matrix", "fourier.ft_point")

SICI_SCALAR = ("sici.sine_integral_tail", "sici.cosine_integral",
               "sici.exp_integral_tail")

QUAD_HOSTS = ("fourier", "hardy", "measures")

# span name of the observers below; its time is trace.observe_s
OBSERVE = "trace.observe"

# work counters filled by the observers below; quad counts per layer
WORK = ("defect.matrix_elems", "defect.svd_gflop", "transfer.matrix_mb",
        "transfer.matrix_nnz") + tuple(f"{m}.quad_calls" for m in QUAD_HOSTS)


def _count_elems(counts, args, kwargs, result):
    counts["defect.matrix_elems"] += result.entries.size


def _count_svd(counts, args, kwargs, result):
    # complex thin SVD with singular vectors: 4x the real R-SVD count
    # 6 m n^2 + 20 n^3 (Golub & Van Loan, table 5.4.1); computed, not timed
    m, n = (args[0] if args else kwargs["mat"]).entries.shape
    counts["defect.svd_gflop"] += 4.0 * (6.0 * m * n * n + 20.0 * n**3) / 1e9


def _count_ulam(counts, args, kwargs, result):
    mb = result.matrix.nbytes / 2**20
    if mb >= counts["transfer.matrix_mb"]:
        counts["transfer.matrix_mb"] = mb
        counts["transfer.matrix_nnz"] = int(np.count_nonzero(result.matrix))


OBSERVERS = {"defect.build_constraint_matrix": _count_elems,
             "defect.defect_estimate": _count_svd,
             "transfer.build_ulam": _count_ulam}


class Tracer:
    """In-memory spans plus per-layer work counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run_id = ""
        self._stack = []

    def _wrap(self, fn, name, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, clock(), 0.0,
                    stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                start = clock()
                observe(self.counts, args, kwargs, result)
                spans.append([OBSERVE, start, clock(),
                              stack[-1] if stack else -1, self.run_id])
            return result
        return traced

    def _count_quad(self, quad):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            layer = spans[stack[-1]][0].split(".", 1)[0] if stack else "bench"
            counts[layer + ".quad_calls"] += 1
            return quad(*args, **kwargs)
        return counted

    def call(self, name, run_id, fn):
        """Run ``fn()`` as a root span of the given run id."""
        self.run_id = run_id
        return self._wrap(fn, name)()

    @contextlib.contextmanager
    def installed(self):
        """Swap every hyperlab binding of a public function for its
        traced wrapper, and quad for its counter; restore on exit."""
        mods = [m for n, m in list(sys.modules.items())
                if n.startswith("hyperlab.") and m is not None]
        wrappers = {}
        for mod in mods:
            layer = mod.__name__.split(".")[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    if name == "cli.main":
                        name = _cli_span_name
                    wrappers[obj] = self._wrap(obj, name, OBSERVERS.get(name))
        restore = []
        for mod in mods + [sys.modules["hyperlab"]]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
            if mod.__name__.split(".")[-1] in QUAD_HOSTS:
                restore.append((mod, "quad", mod.quad))
                mod.quad = self._count_quad(mod.quad)
        try:
            yield self
        finally:
            for mod, attr, obj in restore:
                setattr(mod, attr, obj)

    def layer_metrics(self, first: int) -> dict:
        """Per-layer metrics of the spans from index ``first`` on, with
        the work counters gathered since they were last cleared."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        observed = [0.0] * len(spans)
        # a child is appended after its parent, so walking backwards sums
        # each span's observer time before it is passed up
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent, _ = spans[i]
            if name == OBSERVE:
                observed[i] = end - start
            if parent >= first:
                child[parent - first] += end - start
                observed[parent - first] += observed[i]
        own, total, calls = Counter(), Counter(), Counter()
        for (name, start, end, _, _), inner, obs in zip(spans, child,
                                                         observed):
            own[name] += end - start - inner
            total[name] += end - start - obs
            calls[name] += 1
        out = {f"{layer}.self_s": sum(v for k, v in own.items()
                                      if k.split(".", 1)[0] == layer)
               for layer in LAYERS}
        # cli.<command>.s: inclusive time of hyperlab.cli.main for the
        # command, less the observers run inside it
        out.update({f"cli.{c}.s": total[f"cli.{c}"] for c in COMMANDS})
        out.update({f"{f}.s": own[f] for f in SELF_TIMED})
        out.update({f"{f}.calls": calls[f] for f in CALL_COUNTED})
        out["sici.scalar_calls"] = sum(calls[f] for f in SICI_SCALAR)
        out.update({k: self.counts[k] for k in WORK})
        out["trace.observe_s"] = own[OBSERVE]
        out["trace.spans"] = len(spans)
        return out

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "run": run_id}) + "\n")


def _cli_span_name(args) -> str:
    argv = args[0] if args and args[0] else [""]
    return f"cli.{argv[0]}"


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_gflop"):
        return "GFLOP"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"
