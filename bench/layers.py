"""Per-layer metrics: which public functions are traced, what is counted at
each boundary, and how spans turn into the metrics BENCHMARK.json lists.

The layers are the modules of ``src/privsvm``.  ``data`` and ``serialize``
do no work on any workload and are not traced.
"""

from __future__ import annotations

from privsvm import (cli, equivalence, experiments, kernels, kkt, schemes,
                     smooth, svmplus, weightlearn, wsvm)
from spans import Tracer, span_times


def _gram(counts, result, error):
    if result is not None:
        counts["kernels.gram.entries"] += result.shape[0] * (
            result.shape[1] if result.ndim > 1 else 1)


def _solver(prefix):
    def count(counts, result, error):
        if error is not None:
            counts[prefix + ".failed"] += 1
        else:
            counts[prefix + ".iters"] += result.n_iter
    return count


def _primal(counts, result, error):
    if result is not None:
        counts["smooth.solve_primal.iters"] += result.n_iter
        counts["smooth.solve_primal.bfgs"] += result.method == "bfgs"


def _learn(counts, result, error):
    if result is not None:
        counts["weightlearn.learn_weights.outer_evals"] += len(result.history)
        counts["weightlearn.learn_weights.outer_iters"] += result.n_outer_iter


def _kkt(counts, result, error):
    if result is None or not result.passed:
        counts["kkt.check.failed"] += 1


def _experiment(counts, result, error):
    if result is not None:
        counts["experiments.resample_events"] += result.resample_events


TARGETS = (
    (kernels, "gram", "kernels.gram", _gram),
    (wsvm, "solve_wsvm", "wsvm.solve_wsvm", _solver("wsvm.solve_wsvm")),
    (wsvm, "predict", "wsvm.predict", None),
    (svmplus, "solve_svmplus", "svmplus.solve_svmplus",
     _solver("svmplus.solve_svmplus")),
    (smooth, "solve_primal", "smooth.solve_primal", _primal),
    (weightlearn, "learn_weights", "weightlearn.learn_weights", _learn),
    (weightlearn, "implicit_gradient", "weightlearn.implicit_gradient", None),
    (kkt, "check_wsvm_kkt", "kkt.check", _kkt),
    (kkt, "check_svmplus_kkt", "kkt.check", _kkt),
    (equivalence, "equivalence_report", "equivalence", None),
    (equivalence, "weights_from_svmplus", "equivalence", None),
    (schemes, "nadaraya_watson", "schemes.nadaraya_watson", None),
    (schemes, "probability_weights", "schemes.probability_weights", None),
    (experiments, "run_experiment", "experiments.run_experiment",
     _experiment),
    (cli, "main", "cli.main", None),
)

# Metrics ending in .calls, .s or .self_s read the span of that name;
# the others read the counter of that name.
PER_LAYER = (
    "kernels.gram.calls", "kernels.gram.s", "kernels.gram.entries",
    "wsvm.solve_wsvm.calls", "wsvm.solve_wsvm.s", "wsvm.solve_wsvm.self_s",
    "wsvm.solve_wsvm.iters", "wsvm.solve_wsvm.failed",
    "wsvm.predict.calls", "wsvm.predict.s",
    "svmplus.solve_svmplus.calls", "svmplus.solve_svmplus.s",
    "svmplus.solve_svmplus.self_s", "svmplus.solve_svmplus.iters",
    "svmplus.solve_svmplus.failed",
    "smooth.solve_primal.calls", "smooth.solve_primal.s",
    "smooth.solve_primal.self_s", "smooth.solve_primal.iters",
    "smooth.solve_primal.bfgs", "smooth.bfgs_frac",
    "weightlearn.learn_weights.calls", "weightlearn.learn_weights.s",
    "weightlearn.learn_weights.self_s",
    "weightlearn.learn_weights.outer_evals",
    "weightlearn.learn_weights.outer_iters",
    "weightlearn.implicit_gradient.calls", "weightlearn.implicit_gradient.s",
    "kkt.check.calls", "kkt.check.s", "kkt.check.failed",
    "equivalence.calls", "equivalence.s",
    "schemes.nadaraya_watson.s", "schemes.probability_weights.calls",
    "experiments.run_experiment.s", "experiments.run_experiment.self_s",
    "experiments.resample_events",
    "cli.main.self_s",
    "trace.overhead_s",
)
SPAN_FIELDS = ("calls", "s", "self_s")


def unit(name: str) -> str:
    field = name.rpartition(".")[2]
    if field in ("s", "self_s", "overhead_s"):
        return "s"
    return "ratio" if field.endswith("_frac") else "count"


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.install(TARGETS)
    return tracer


def per_layer(tracer: Tracer, overhead_s: float) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    a = tracer.arrays()
    spans = span_times(tracer.names, a["name_id"], a["start"], a["end"],
                       a["parent"])
    primal = spans.get("smooth.solve_primal", {}).get("calls", 0)
    derived = {
        "smooth.bfgs_frac": (tracer.counts["smooth.solve_primal.bfgs"]
                             / primal if primal else 0.0),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif field in SPAN_FIELDS:
            value = spans.get(span, {}).get(field, 0)
        else:
            value = tracer.counts.get(name, 0)
        if unit(name) == "count":
            value = int(value)
        out[name] = (value, unit(name))
    return out
