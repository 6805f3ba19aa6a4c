"""privsvm benchmark: one command for every workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The amount of work is fixed by ``--seconds`` and the workload's nominal
task cost, so two runs at one seed do identical work and every count
repeats.  Each task is a closed loop in this single process, with BLAS
pinned to one thread.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
tasks untraced and then traced (half the work each) and prints the
per-layer metrics.  Human-readable lines come first, the JSON result is the
last line of standard output.  Spans and a result record are written to
``bench/out/``.
"""

from __future__ import annotations

import os

# BLAS reads these once, when numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def import_seconds() -> float:
    """Median wall time of importing privsvm in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import privsvm"], cwd=ROOT,
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def execute(workload, inputs, tracer=None) -> dict:
    """Run every task once; returns timings, operation counts and errors."""
    times, errors, problems = [], [], []
    attempted = failed = 0
    t_run = time.perf_counter()
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        out = workload.run(inp)
        times.append(time.perf_counter() - t0)
        attempted += out.attempted
        failed += out.failed
        errors.extend(out.errors)
        problems.extend(f"task {i}: {p}" for p in out.problems)
    return {
        "run_s": time.perf_counter() - t_run,
        "task_s": times,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "problems": problems,
    }


def environment(args, n_tasks) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tasks": n_tasks,
        "toy": bool(args.toy),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "privsvm", "__init__.py")):
        print(f"error: no privsvm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import layers
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(
        OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(args, workload, workdir, layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, workdir, layers) -> int:
    import_s = import_seconds()
    # a traced run measures the same tasks twice, untraced and traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.prepare(args.seed, seconds, args.toy, workdir)
        gen_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(gen_times)
    n_tasks = len(inputs)

    result = execute(workload, inputs)
    env = environment(args, n_tasks)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "task_s": result["task_s"],
              "problems": result["problems"]}

    if args.trace:
        tracer = layers.make_tracer()
        try:
            traced = execute(workload, inputs, tracer)
        finally:
            tracer.uninstall()
        spans_path = os.path.join(OUT_DIR, f"spans-{tag}.npz")
        tracer.write(spans_path)
        metrics = layers.per_layer(tracer,
                                   traced["run_s"] - result["run_s"])
        for key in ("attempted", "failed"):
            if traced[key] != result[key]:
                result["problems"].append(
                    f"traced run {key} {traced[key]} != {result[key]}")
        record["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        errors = result["errors"]
        test_error = statistics.fmean(errors) if errors else float("nan")
        attempted = max(result["attempted"], 1)
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (result["run_s"], "s"),
            "task_s_p50": (statistics.median(result["task_s"]), "s"),
            "ok_frac": (1.0 - result["failed"] / attempted, "ratio"),
            "test_accuracy": (1.0 - test_error, "ratio"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
        # derived views kept for reading, not part of the JSON result
        record["fail_frac"] = result["failed"] / attempted
        record["test_error"] = test_error

    correct = (result["failed"] == 0 and not result["problems"]
               and all(math.isfinite(v) for v, _ in metrics.values()))

    print(f"workload {args.workload}  seed {args.seed}  tasks {n_tasks}  "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        extra = f"  (n={n_tasks} tasks)" if name == "task_s_p50" else ""
        print(f"{name:36s} {value:.6g} {unit}{extra}")
    if not args.trace:
        print(f"{'fail_frac':36s} {record['fail_frac']:.6g} ratio  "
              f"({result['failed']}/{result['attempted']} operations)")
        print(f"{'test_error':36s} {record['test_error']:.6g} ratio")

    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
