"""Write the reference CSVs of the privsvm CLI into one directory.

    PYTHONPATH=src python tools/reference_csvs.py OUTDIR

Each CSV comes from one CLI command, run in process with BLAS pinned to
one thread (as tests/conftest.py and bench/run.py pin it), and is written
under a fixed name.  A change is checked against its parent by running the
script once per side, each with its own ``src`` on PYTHONPATH, and then
``diff -r`` on the two directories.  The script uses whichever ``privsvm``
the import path gives, and names it on stderr.
"""

import os
import sys

# BLAS reads these once, when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import privsvm  # noqa: E402
from privsvm.cli import main  # noqa: E402

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
    # item 5), so its rows move with the rounding of the SVM+ iterates
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
    runs["wmixture-learned-seed5.csv"] = [
        "experiment", "--source", "wmixture", "--methods", "svm,wsvm-learned",
        "--subset-sizes", "20", "--repetitions", "2", "--seed", "5"]
    return runs


def run(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    print(f"privsvm from {os.path.dirname(privsvm.__file__)}", file=sys.stderr)
    failed = 0
    for name, argv in commands().items():
        status = main(argv + ["--out", os.path.join(outdir, name)])
        print(f"{name}: exit {status}", file=sys.stderr)
        failed += status != 0
    return int(failed > 0)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1]))
