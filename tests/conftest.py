import os

# BLAS reads these once, when numpy loads: the suite runs on one BLAS
# thread, as bench/run.py does, whatever the shell exports.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from privsvm import (Dataset, PrivilegedSet, KernelSpec, LINEAR,  # noqa: E402
                     GAUSSIAN_RBF, wsvm)


def random_dataset(rng, n, d=2, x_scale=1.0):
    """Random two-class dataset with at least one point per class."""
    X = rng.normal(0.0, x_scale, size=(n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if np.all(y == y[0]):
        y[int(rng.integers(n))] *= -1.0
    return Dataset(X, y)


def save_sparse(path, X, labels=None) -> None:
    """Write features (and optional labels, else +1) in the sparse format."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if labels is None:
        labels = np.ones(X.shape[0])
    with open(path, "w") as fh:
        for row, label in zip(X, labels):
            items = [f"{int(label):+d}"]
            items += [f"{j + 1}:{v:.17g}" for j, v in enumerate(row) if v != 0.0]
            fh.write(" ".join(items) + "\n")


def random_privileged(rng, n, d=2):
    return PrivilegedSet(rng.normal(0.0, 1.0, size=(n, d)))


def random_kernel(rng):
    if rng.random() < 0.5:
        return KernelSpec(LINEAR)
    return KernelSpec(GAUSSIAN_RBF, float(rng.uniform(0.5, 2.0)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def wsvm_q(monkeypatch):
    """The Q that every ``solve_wsvm`` hands to the QP core, in call order;
    the rows it reads back for f0 come from the same object."""
    seen = []
    solve_qp = wsvm.solve_qp
    monkeypatch.setattr(wsvm, "solve_qp",
                        lambda H, *a: seen.append(H) or solve_qp(H, *a))
    return seen
