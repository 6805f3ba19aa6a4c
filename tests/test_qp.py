"""The QP core's working set: classes, cross moves and move order.

The classes and the cross move v are derived in closed form; they must be
what ``np.unique(A.T, axis=0)`` and ``scipy.linalg.null_space`` give, sign
included, because the order of the +-v moves decides ties.  The pinned
iteration counts fail on any change of move order or tie-breaking.
"""

import numpy as np
import pytest
from scipy.linalg import null_space

from privsvm import GAUSSIAN_RBF, LINEAR, KernelSpec, solve_svmplus, solve_wsvm
from privsvm.qp import _classes

from conftest import random_dataset, random_privileged


def _reference_classes(A):
    cols, cls = np.unique(A.T, axis=0, return_inverse=True)
    null = null_space(cols.T)
    moves = []
    if null.shape[1] == 1:
        v = np.rint(null[:, 0] / np.min(np.abs(null[:, 0])))
        moves = [(v.tolist(), (v > 0).tolist()),
                 ((-v).tolist(), (v < 0).tolist())]
    return cls.ravel(), len(cols), moves


def _wsvm_rows(y):
    return y[None, :]


def _svmplus_rows(y):
    n = y.size
    return np.vstack([np.r_[y, np.zeros(n)], np.ones(2 * n)])


@pytest.mark.parametrize("rows", [_wsvm_rows, _svmplus_rows])
@pytest.mark.parametrize("labels", [
    [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0],
    [-1.0, 1.0, 1.0],
    [1.0, 1.0, 1.0, 1.0],
    [-1.0, -1.0],
    [1.0],
])
def test_classes_match_unique_and_null_space(rows, labels):
    A = rows(np.array(labels))
    cls, n_cls, moves = _classes(A)
    ref_cls, ref_n, ref_moves = _reference_classes(A)
    np.testing.assert_array_equal(cls, ref_cls)
    assert n_cls == ref_n
    assert moves == ref_moves


def test_cross_move_signs():
    y = np.array([1.0, -1.0, 1.0])
    assert _classes(_wsvm_rows(y))[2][0][0] == [1.0, 1.0]
    # over the classes (a-, b, a+)
    assert _classes(_svmplus_rows(y))[2][0][0] == [1.0, -2.0, 1.0]


def _kernel(rng, linear):
    if linear:
        return KernelSpec(LINEAR)
    return KernelSpec(GAUSSIAN_RBF, float(rng.uniform(0.5, 2.0)))


def _fits():
    """n_iter of 40 weighted-SVM and 40 SVM+ fits on seeded random data."""
    rng = np.random.default_rng(2013)
    wsvm, plus = [], []
    for i in range(40):
        n = int(rng.integers(8, 41))
        data = random_dataset(rng, n)
        spec = _kernel(rng, i % 2 == 0)
        C = (0.25, 1.0, 4.0)[i % 3]
        c = np.full(n, C) if i % 4 < 2 else C * rng.uniform(0.5, 2.0, n)
        wsvm.append(solve_wsvm(data, spec, c).n_iter)
        priv = random_privileged(rng, n)
        priv_spec = _kernel(rng, i % 5 < 2)
        gamma = (0.25, 4.0)[i % 2]
        model = solve_svmplus(data, priv, spec, priv_spec, C, gamma)
        plus.append(model.n_iter)
    return wsvm, plus


# any change of move order or tie-breaking moves some of these counts
WSVM_ITERS = [
    23, 26, 256, 26, 26, 64, 18, 64, 115, 12, 64, 5, 22, 64, 35, 38, 40,
    64, 53, 64, 96, 32, 64, 128, 11, 29, 64, 9, 64, 65, 52, 64, 63, 128,
    35, 64, 15, 64, 64, 36,
]
SVMPLUS_ITERS = [
    64, 128, 768, 128, 128, 64, 64, 64, 256, 128, 128, 64, 64, 64, 128,
    256, 128, 64, 192, 128, 128, 64, 320, 64, 64, 64, 192, 64, 320, 128,
    64, 128, 192, 128, 64, 192, 64, 64, 128, 192,
]


def test_iteration_counts_pinned():
    wsvm, plus = _fits()
    assert wsvm == WSVM_ITERS
    assert plus == SVMPLUS_ITERS
