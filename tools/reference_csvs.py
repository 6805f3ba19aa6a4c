"""Write the reference outputs of privsvm: 19 CLI CSVs, the digests of
four fits above 256 points and of one projected-mode weight learning.

    PYTHONPATH=src python tools/reference_csvs.py OUTDIR
    PYTHONPATH=src python tools/reference_csvs.py --update

Each CSV comes from one CLI command, run in process with BLAS pinned to
one thread (as tests/conftest.py and bench/run.py pin it), and is written
under a fixed name.  The CLI's grids never fit more than 256 points, so
``digests.json`` adds the hex digests of alpha, f0, b, n_iter and a
700-point prediction of three n = 3000 weighted fits (shaped like the
``wsvm-large`` benchmark's) and one n = 600 SVM+ fit, whose kernel rows
come from row sources.  It also holds the learned weights, alpha, b,
history and outer step count of one ``learn_weights`` run in projected
mode, shaped like a ``wlearn`` benchmark task: the CSVs reach weight
learning only in log mode.  ``environment.txt`` names the Python, numpy and
BLAS build and the CPU that wrote them: the bits depend on them.

The committed copies live in ``tests/golden``, and the tier-1 test
``tests/test_golden.py`` writes every output in process and compares it
byte for byte.  ``--update`` rewrites the committed copies; a change that
moves a reference output on purpose runs it and lists each moved row in
CHANGES.md.  The script uses whichever ``privsvm`` the import path gives,
and names it on stderr.
"""

import hashlib
import json
import os
import platform
import sys

# BLAS reads these once, when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import privsvm  # noqa: E402
from privsvm.cli import main  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "golden")
GRIDS = ["--c-grid", "0.25,1,4", "--gamma-grid", "0.25,4"]
FOUR = "svm,wsvm-prob,svmplus,wsvm-from-svmplus"


def commands() -> dict[str, list[str]]:
    """File name -> CLI arguments, without --out."""
    runs = {}
    for seed in (11, 12, 13, 21):
        # blobs with an RBF kernel; the subset size is fixed at 40, the
        # default of ExperimentConfig
        runs[f"blobs-rbf-seed{seed}.csv"] = [
            "experiment", "--methods", FOUR, "--kernel", "gaussian-rbf",
            "--subset-sizes", "40", "--repetitions", "2", "--seed",
            str(seed), *GRIDS]
        runs[f"wmixture-linear-seed{seed}.csv"] = [
            "experiment", "--source", "wmixture", "--methods",
            "svmplus,wsvm-from-svmplus", "--subset-sizes", "20",
            "--repetitions", "2", "--seed", str(seed), *GRIDS]
        # the methods of the RBF fixed-validation runs are fixed here as
        # the four of the degenerate seed 8 command below
        runs[f"wmixture-rbf-fixed-validation-seed{seed}.csv"] = [
            "experiment", "--source", "wmixture", "--kernel", "gaussian-rbf",
            "--methods", "wsvm-from-svmplus,svmplus,wsvm-prob,svm",
            "--split", "fixed-validation", "--subset-sizes", "10,30",
            "--repetitions", "2", "--seed", str(seed), *GRIDS]
    runs["figure3-reps5.csv"] = ["figure3", "--reps", "5"]
    runs["wshape-reps3.csv"] = ["wshape", "--reps", "3"]
    # its first n = 30 repetition is won by a zero classifier (ROADMAP
    # item 5), so its svmplus rows move with the rounding of the SVM+
    # iterates; the wsvm-from-svmplus rows, built from the SVM+ winner
    # without a solve, equal them
    runs["wmixture-linear-fixed-validation-seed8.csv"] = [
        "experiment", "--source", "wmixture", "--kernel", "linear",
        "--methods", "wsvm-from-svmplus,svmplus,wsvm-prob,svm",
        "--split", "fixed-validation", "--subset-sizes", "10,30",
        "--repetitions", "3", "--seed", "8", *GRIDS]
    # 700 test points: the predictions go through two whole blocks of 256
    # points and a partial third (kernels.expand)
    runs["wmixture-linear-fixed-validation-seed8-ntest700.csv"] = [
        *runs["wmixture-linear-fixed-validation-seed8.csv"],
        "--n-test", "700"]
    runs["blobs-rbf-seed11-ntest700.csv"] = [
        *runs["blobs-rbf-seed11.csv"], "--n-test", "700"]
    # the blobs arm of the fixed-validation pool
    runs["blobs-rbf-fixed-validation-seed11.csv"] = [
        "experiment", "--source", "blobs", "--kernel", "gaussian-rbf",
        "--split", "fixed-validation", "--methods", FOUR,
        "--subset-sizes", "10,30", "--repetitions", "2", "--seed", "11",
        *GRIDS]
    runs["wmixture-learned-seed5.csv"] = [
        "experiment", "--source", "wmixture", "--methods", "svm,wsvm-learned",
        "--subset-sizes", "20", "--repetitions", "2", "--seed", "5"]
    return runs


def _hex(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float)).hexdigest()


def _fit_digest(model, f) -> dict:
    return {"alpha": _hex(model.alpha), "f0": _hex(model.f0),
            "b": float(model.b).hex(), "n_iter": model.n_iter,
            "predict": _hex(f)}


def digests() -> dict[str, dict]:
    """Fit name -> digests of three n = 3000 weighted fits, on the
    Nadaraya-Watson probability weights of ``wsvm-large`` at C = 1, and
    of one n = 600 RBF SVM+ fit with the exact posterior as its
    privileged feature; each predicts 700 test points."""
    train = privsvm.generate_w_mixture(3000, seed=26).data
    test = privsvm.generate_w_mixture(700, seed=27).data
    eta = privsvm.nadaraya_watson(train, bandwidth=0.5)
    c = privsvm.probability_weights(eta, train.y, tau=1.0)
    out = {}
    for name, spec in (("wsvm-linear", privsvm.KernelSpec(privsvm.LINEAR)),
                       ("wsvm-rbf0.5", privsvm.KernelSpec(
                           privsvm.GAUSSIAN_RBF, 0.5)),
                       ("wsvm-rbf2", privsvm.KernelSpec(
                           privsvm.GAUSSIAN_RBF, 2.0))):
        model = privsvm.solve_wsvm(train, spec, c)
        out[name] = _fit_digest(model, model.predict(test))
    sample = privsvm.generate_w_mixture(600, seed=28)
    model = privsvm.solve_svmplus(
        sample.data, privsvm.PrivilegedSet(sample.eta[:, None]),
        privsvm.KernelSpec(privsvm.GAUSSIAN_RBF, 1.0),
        privsvm.KernelSpec(privsvm.GAUSSIAN_RBF, 0.5), 1.0, 3.0)
    out["svmplus-rbf"] = _fit_digest(model, model.predict(test))
    out["learn-projected"] = _learn_digest()
    return out


def _learn_digest() -> dict:
    """Projected-gradient weight learning on a W-mixture draw of 60
    training and 600 validation points, RBF kernel at the median distance,
    delta in {0.1, 1} and at most 40 outer steps."""
    train = privsvm.generate_w_mixture(60, seed=29).data
    val = privsvm.generate_w_mixture(600, seed=30).data
    spec = privsvm.KernelSpec(privsvm.GAUSSIAN_RBF, float(np.median(
        privsvm.bandwidth_grid(train.X, (0.5,)))))
    res = privsvm.learn_weights(train, val, spec, privsvm.WeightLearningConfig(
        deltas=(0.1, 1.0), mode="projected", max_outer_iter=40))
    return {"weights": _hex(res.weights), "alpha": _hex(res.model.alpha),
            "b": float(res.model.b).hex(), "history": _hex(res.history),
            "n_outer_iter": res.n_outer_iter}


def _cpu() -> str:
    """The CPU model: a DYNAMIC_ARCH OpenBLAS picks its kernels by it."""
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def environment() -> str:
    """The Python, numpy and BLAS build, and the CPU, in one line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas['name']} {blas['version']} "
            f"({blas.get('openblas configuration', '')}) cpu={_cpu()}")


def run(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    print(f"privsvm from {os.path.dirname(privsvm.__file__)}", file=sys.stderr)
    failed = 0
    for name, argv in commands().items():
        status = main(argv + ["--out", os.path.join(outdir, name)])
        print(f"{name}: exit {status}", file=sys.stderr)
        failed += status != 0
    with open(os.path.join(outdir, "digests.json"), "w") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(outdir, "environment.txt"), "w") as fh:
        fh.write(environment() + "\n")
    return int(failed > 0)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(GOLDEN if sys.argv[1] == "--update" else sys.argv[1]))
