"""The benchmark's workloads.

Each workload turns a seed and a time budget into task inputs (``prepare``,
timed as set-up) and runs one task on one input (``run``, timed).  A task
returns how many operations it attempted, how many failed (raised, or
produced output that failed a check) and the test misclassification rates
it produced.  Every check below runs on every operation; a failed check is
counted, never skipped.

Why each workload exists:

* ``wlearn`` -- weight learning on the W mixture with the projected-gradient
  outer loop; ``smooth.solve_primal`` and ``weightlearn`` do almost all the
  work.
* ``wlearn-log`` -- the same with the default log-space outer loop, where
  the inner solver falls back to BFGS.  Its cost varies too much between
  seeds for a listed workload, so it is runnable here but not listed.
* ``study`` -- the experiment protocol through the in-process CLI; hundreds
  of tiny SVM+ and WSVM fits per task, so per-call overhead dominates.
* ``wsvm-large`` -- weighted fits at n = 3000; the only workload where Gram
  construction and memory matter, and it never touches ``svmplus`` or
  ``smooth``.
* ``privgrid`` -- SVM+ fits on the paper's outlier blobs, each replayed as a
  weighted SVM; SVM+ iteration counts dominate.  About one fit in six
  raises at the iteration budget or fails its KKT certificate, so it is
  runnable here but not listed in BENCHMARK.json, whose workloads must not
  fail.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import privsvm
from privsvm import cli, experiments

SOLVE_TOL = 1e-8      # solver tolerance, and the KKT tolerance it is checked at
REPLAY_RKHS_TOL = 1e-4  # replay distance bound of acceptance test 03


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def _error(y, f) -> float:
    return float(np.mean(y * f <= 0))


def task_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds derived from one."""
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(n)]


def _count(seconds: float, task_s: float) -> int:
    """Tasks whose nominal cost fills ``seconds``."""
    return max(1, round(seconds / task_s))


def _errors_ok(values) -> bool:
    return all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


# ---------------------------------------------------------------------------
# wlearn

WLEARN_DELTAS = (0.1, 1.0)
WLEARN_MAX_OUTER = 40
# Seconds per draw.  Log mode, the default outer loop, is where the inner
# solver falls back to BFGS; its draws cost 1-15 s and a run's total varied
# by a factor of three between seeds, so it is the unlisted ``wlearn-log``.
# Projected-mode draws vary by about 13% and make the listed ``wlearn``.
WLEARN_TASK_S = {"projected": 0.34, "log": 3.5}


@dataclass
class WlearnInput:
    train: object
    val: object
    test: object
    mode: str
    max_outer: int


def _wlearn_prepare(mode):
    def prepare(seed, seconds, toy, workdir):
        n_train, n_val, n_test = (40, 60, 100) if toy else (60, 600, 1000)
        out = []
        for seed_i in task_seeds(seed, _count(seconds, WLEARN_TASK_S[mode])):
            s1, s2, s3 = task_seeds(seed_i, 3)
            out.append(WlearnInput(
                train=experiments.generate_w_mixture(n_train, seed=s1).data,
                val=experiments.generate_w_mixture(n_val, seed=s2).data,
                test=experiments.generate_w_mixture(n_test, seed=s3).data,
                mode=mode, max_outer=3 if toy else WLEARN_MAX_OUTER))
        return out
    return prepare


def wlearn_run(inp: WlearnInput) -> Outcome:
    """One draw of the wshape study: weights learned in the input's
    outer-loop mode against the uniform-weight baseline, with an RBF kernel
    at the median distance."""
    out = Outcome(attempted=1)
    try:
        spec = privsvm.KernelSpec(privsvm.GAUSSIAN_RBF, float(np.median(
            experiments.bandwidth_grid(inp.train.X, (0.5,)))))
        res = privsvm.learn_weights(
            inp.train, inp.val, spec, privsvm.WeightLearningConfig(
                deltas=WLEARN_DELTAS, mode=inp.mode,
                max_outer_iter=inp.max_outer))
        base = privsvm.solve_wsvm(inp.train, spec, np.ones(inp.train.n),
                                  tol=SOLVE_TOL)
        report = privsvm.check_wsvm_kkt(base, tol=SOLVE_TOL)
        errs = [_error(inp.test.y, privsvm.predict(base, inp.test)),
                _error(inp.test.y, res.model.predict(inp.test.X))]
    except Exception as exc:  # a raising operation is a counted failure
        out.fail(f"raised {type(exc).__name__}: {exc}")
        return out
    w = np.asarray(res.weights)
    if not (w.shape == (inp.train.n,) and np.all(np.isfinite(w))
            and np.all(w > 0)):
        out.fail(f"{inp.mode} mode: learned weights not finite and positive")
    elif not report.passed:
        out.fail(f"baseline KKT {report.max_violation:.2e}")
    elif not _errors_ok(errs):
        out.fail("test error outside [0, 1]")
    else:
        out.errors.extend(errs)
    return out


# ---------------------------------------------------------------------------
# study

STUDY_TASK_S = 0.4
STUDY_METHODS = "svm,wsvm-prob,svmplus,wsvm-from-svmplus"
STUDY_TOY_METHODS = "svm,svmplus"
# The protocol's default grids (11 costs x 11 couplings) make one
# repetition cost 2-15 s; this grid keeps it near 0.4 s, so a run averages
# over many draws.  C stops at 4: at C = 16, subsets holding a planted
# outlier (RBF bandwidth near 100) give SVM+ fits of ~94,000 iterations and
# 13 s, which put 30 s tails into single tasks.
STUDY_GRID = ("--c-grid", "0.25,1,4", "--gamma-grid", "0.25,4")
STUDY_TOY_GRID = ("--c-grid", "1", "--gamma-grid", "1")


@dataclass
class StudyInput:
    argv: list
    out_path: str
    methods: list


def study_prepare(seed, seconds, toy, workdir):
    methods = STUDY_TOY_METHODS if toy else STUDY_METHODS
    out = []
    for i, seed_i in enumerate(task_seeds(seed, _count(seconds,
                                                       STUDY_TASK_S))):
        path = os.path.join(workdir, f"study-{i}.csv")
        argv = ["experiment", "--source", "blobs", "--methods", methods,
                "--kernel", "gaussian-rbf", "--subset-sizes", "40",
                "--repetitions", "1", "--seed", str(seed_i), "--out", path,
                *(STUDY_TOY_GRID if toy else STUDY_GRID)]
        out.append(StudyInput(argv=argv, out_path=path,
                              methods=sorted(methods.split(","))))
    return out


def study_run(inp: StudyInput) -> Outcome:
    """One repetition of the experiment protocol via ``privsvm.cli.main``;
    the CSV it writes must parse and hold one finite error per method."""
    out = Outcome(attempted=1)
    if os.path.exists(inp.out_path):  # a traced pass reruns the same task
        os.remove(inp.out_path)
    try:
        rc = cli.main(inp.argv)
        with open(inp.out_path) as fh:
            table = experiments.parse_results(fh.read())
    except Exception as exc:  # a raising operation is a counted failure
        out.fail(f"raised {type(exc).__name__}: {exc}")
        return out
    errs = [row.mean_error for row in table.rows]
    if rc != 0:
        out.fail(f"exit code {rc}")
    elif sorted(row.method for row in table.rows) != inp.methods:
        out.fail("CSV rows do not match the requested methods")
    elif not _errors_ok(errs):
        out.fail("CSV error outside [0, 1]")
    else:
        out.errors.extend(errs)
    return out


# ---------------------------------------------------------------------------
# wsvm-large

LARGE_TASK_S = 4.1
LARGE_KERNELS = ((privsvm.LINEAR, None), (privsvm.GAUSSIAN_RBF, 0.5),
                 (privsvm.GAUSSIAN_RBF, 2.0))
# At C = 100 the linear fit fails its KKT certificate at 1e-8 on about one
# draw in forty (the solver's stop test and the report use different units),
# and a listed workload must not fail.
LARGE_COSTS = (1.0, 10.0)


@dataclass
class LargeInput:
    data: object
    test: object


def large_prepare(seed, seconds, toy, workdir):
    n, n_test = (200, 100) if toy else (3000, 1000)
    out = []
    for seed_i in task_seeds(seed, _count(seconds, LARGE_TASK_S)):
        s1, s2 = task_seeds(seed_i, 2)
        out.append(LargeInput(
            data=experiments.generate_w_mixture(n, seed=s1).data,
            test=experiments.generate_w_mixture(n_test, seed=s2).data))
    return out


def large_run(inp: LargeInput) -> Outcome:
    """Nadaraya-Watson confidence weights, then six weighted fits, each
    certified by its KKT report, analysed for representability and
    evaluated on the test sample."""
    out = Outcome()
    try:
        eta = privsvm.nadaraya_watson(inp.data, bandwidth=0.5)
        w = privsvm.probability_weights(eta, inp.data.y, tau=1.0)
    except Exception as exc:
        out.attempted = out.failed = len(LARGE_KERNELS) * len(LARGE_COSTS)
        out.problems.append(f"weights raised {type(exc).__name__}: {exc}")
        return out
    for kind, bw in LARGE_KERNELS:
        for C in LARGE_COSTS:
            out.attempted += 1
            tag = f"{kind} {bw} C={C}"
            try:
                model = privsvm.solve_wsvm(
                    inp.data, privsvm.KernelSpec(kind, bw), C * w,
                    tol=SOLVE_TOL)
                report = privsvm.check_wsvm_kkt(model, tol=SOLVE_TOL)
                equiv = privsvm.equivalence_report(model)
                f = privsvm.predict(model, inp.test)
            except Exception as exc:
                out.fail(f"raised {type(exc).__name__} ({tag})")
                continue
            if not report.passed:
                out.fail(f"KKT {report.max_violation:.2e} ({tag})")
            elif not math.isfinite(equiv.rho_unnormalized):
                out.fail(f"non-finite rho ({tag})")
            elif not np.all(np.isfinite(f)):
                out.fail(f"non-finite decision values ({tag})")
            else:
                out.errors.append(_error(inp.test.y, f))
    return out


# ---------------------------------------------------------------------------
# privgrid

GRID_TASK_S = 8.0
GRID_KERNELS = ((privsvm.LINEAR, None), (privsvm.GAUSSIAN_RBF, 1.0))
GRID_COSTS = (0.25, 1.0, 4.0)
GRID_GAMMAS = (0.25, 1.0, 4.0)
# at the default budget of 10^6 one linear fit can run for minutes
GRID_MAX_ITER = 20000


@dataclass
class GridInput:
    sample: object
    test: object
    costs: tuple
    gammas: tuple


def grid_prepare(seed, seconds, toy, workdir):
    per_class, n_test = (8, 100) if toy else (50, 1000)
    out = []
    for seed_i in task_seeds(seed, _count(seconds, GRID_TASK_S)):
        s1, s2 = task_seeds(seed_i, 2)
        out.append(GridInput(
            sample=experiments.generate_blobs_with_outliers(
                n_per_class=per_class, outlier_count=2,
                outlier_distance=100.0, seed=s1),
            test=experiments.generate_blobs_with_outliers(
                n_per_class=n_test // 2, outlier_count=0, seed=s2).data,
            costs=GRID_COSTS[:1] if toy else GRID_COSTS,
            gammas=GRID_GAMMAS[:1] if toy else GRID_GAMMAS))
    return out


def grid_run(inp: GridInput) -> Outcome:
    """SVM+ over the (kernel, C, gamma) grid; each fit is replayed as a
    weighted SVM with the SVM+ offset, and both fits are certified."""
    out = Outcome()
    data, priv = inp.sample.data, inp.sample.priv
    priv_spec = privsvm.KernelSpec(privsvm.LINEAR)
    for kind, bw in GRID_KERNELS:
        spec = privsvm.KernelSpec(kind, bw)
        for C in inp.costs:
            for gamma in inp.gammas:
                out.attempted += 1
                tag = f"{kind} C={C} gamma={gamma}"
                try:
                    plus = privsvm.solve_svmplus(
                        data, priv, spec, priv_spec, C, gamma,
                        tol=SOLVE_TOL, max_iter=GRID_MAX_ITER)
                    plus_kkt = privsvm.check_svmplus_kkt(plus, tol=SOLVE_TOL)
                    c = privsvm.weights_from_svmplus(plus)
                    replay = privsvm.solve_wsvm(data, spec, c, tol=SOLVE_TOL,
                                                b_override=plus.b)
                    replay_kkt = privsvm.check_wsvm_kkt(replay, tol=SOLVE_TOL)
                    privsvm.equivalence_report(replay)
                    d = data.y * (plus.alpha - replay.alpha)
                    dist = math.sqrt(max(float(d @ plus.gram_train @ d), 0.0))
                    f = plus.predict(inp.test.X)
                except Exception as exc:
                    out.fail(f"raised {type(exc).__name__} ({tag})")
                    continue
                if not plus_kkt.passed:
                    out.fail(f"SVM+ KKT {plus_kkt.max_violation:.2e} ({tag})")
                elif not replay_kkt.passed:
                    out.fail(f"replay KKT {replay_kkt.max_violation:.2e} "
                             f"({tag})")
                elif not dist <= REPLAY_RKHS_TOL:
                    out.fail(f"replay RKHS distance {dist:.2e} ({tag})")
                elif not np.all(np.isfinite(f)):
                    out.fail(f"non-finite decision values ({tag})")
                else:
                    out.errors.append(_error(inp.test.y, f))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object  # (seed, seconds, toy, workdir) -> list of task inputs
    run: object      # task input -> Outcome


WORKLOADS = {
    w.name: w for w in (
        Workload("wlearn", _wlearn_prepare("projected"), wlearn_run),
        Workload("wlearn-log", _wlearn_prepare("log"), wlearn_run),
        Workload("study", study_prepare, study_run),
        Workload("wsvm-large", large_prepare, large_run),
        Workload("privgrid", grid_prepare, grid_run),
    )
}
