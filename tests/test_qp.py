"""The QP core's working set (classes, cross moves, move order) and its
face step.

The classes and the cross move v are derived in closed form; they must be
what ``np.unique(A.T, axis=0)`` and ``scipy.linalg.null_space`` give, sign
included, because the order of the +-v moves decides ties.  The pinned
iteration counts fail on any change of move order, tie-breaking or
face-step schedule.  The core reads H only through ``take``: SVM+'s row
view has the bits of the dense block H, and both duals fit the same on an
H with nothing but ``take``.  The face step is also checked on its own: on
rank-deficient faces it keeps A z, the box and G = H z + p and does not
raise the objective, and on a 600-variable face A z moves by rounding
only; on a strictly convex face it lands on the equality-constrained
minimiser, and pins variables without a second factorisation.
"""

import numpy as np
import pytest
from scipy.linalg import null_space

from privsvm import (GAUSSIAN_RBF, LINEAR, KernelSpec,
                     generate_blobs_with_outliers, gram, solve_svmplus,
                     solve_wsvm, svmplus, wsvm)
from privsvm.qp import ConvergenceError, _classes, _face_step, solve_qp

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


# any change of move order, tie-breaking or face-step schedule moves some
# of these counts
WSVM_ITERS = [
    16, 16, 80, 23, 18, 16, 16, 32, 71, 12, 48, 5, 16, 16, 32, 31, 16, 32,
    32, 32, 48, 16, 47, 64, 11, 16, 16, 9, 64, 32, 48, 32, 32, 48, 32, 32,
    15, 32, 32, 29,
]
SVMPLUS_ITERS = [
    16, 48, 192, 64, 64, 32, 16, 48, 96, 80, 32, 16, 16, 48, 48, 128, 16,
    32, 80, 48, 32, 32, 96, 64, 32, 32, 48, 16, 128, 48, 16, 64, 48, 64,
    64, 64, 16, 48, 16, 96,
]


def test_iteration_counts_pinned():
    """Exact n_iter of seeded fits, with a face step every FACE_EVERY = 16
    iterations; most counts are multiples of 16, solves that stopped right
    after a face step.  SVM+ starts from z0 = (0, nC e_1)."""
    wsvm, plus = _fits()
    assert wsvm == WSVM_ITERS
    assert plus == SVMPLUS_ITERS


def test_no_polish_on_the_last_iteration():
    # this weighted SVM's gap (n = 5, c up to 935) first meets tol at
    # iteration 13, where gap x max c is above tol, so a polish follows
    # and the solve stops at 14.  Allowed 14 iterations, it has none left
    # to polish with: it returns at 13, within tol, rather than raise a
    # ConvergenceError at a residual within tol
    rng = np.random.default_rng(23)
    data = random_dataset(rng, int(rng.integers(5, 30)))
    c = 10.0 ** rng.uniform(0.0, 4.0, data.n)
    lin = KernelSpec(LINEAR)
    assert solve_wsvm(data, lin, c).n_iter == 14
    assert solve_wsvm(data, lin, c, max_iter=14).n_iter == 13
    with pytest.raises(ConvergenceError):
        solve_wsvm(data, lin, c, max_iter=13)


def _wsvm_problem(rng, K, y):
    """A weighted-SVM dual at a random box point: some variables at 0,
    some at their weight, the rest free."""
    n = y.size
    hi = rng.uniform(0.5, 2.0, n)
    z = rng.uniform(0.0, 1.0, n) * hi
    u = rng.random(n)
    z[u < 0.15] = 0.0
    z[u > 0.85] = hi[u > 0.85]
    return K * np.outer(y, y), -np.ones(n), _wsvm_rows(y), hi, z


def _svmplus_parts(rng, K, y, Kt):
    """An SVM+ dual over z = (a, b) with C = 1, set up as ``solve_svmplus``
    sets it up: Q, Kt, g, p, A and hi, and a random nonnegative point with
    some variables at zero."""
    n = y.size
    gamma, C = float(rng.choice([0.25, 1.0, 4.0])), 1.0
    shift = (Kt / gamma) @ np.full(n, C)
    z = rng.uniform(0.0, 2.0 * C, 2 * n)
    z[rng.random(2 * n) < 0.2] = 0.0
    return (K * np.outer(y, y), Kt, gamma, np.r_[-1.0 - shift, -shift],
            _svmplus_rows(y), np.full(2 * n, np.inf), z)


def _dense_h(Q, Kt, gamma):
    """The 2n x 2n H of the block formula, from the matrix Kt/g."""
    Ktg = Kt / gamma
    return np.block([[Q + Ktg, Ktg], [Ktg, Ktg]])


def _svmplus_problem(rng, K, y, Kt):
    """The same dual with the dense 2n x 2n H of the block formula."""
    Q, Kt, gamma, *rest = _svmplus_parts(rng, K, y, Kt)
    return (_dense_h(Q, Kt, gamma), *rest)


class _TakeOnly:
    """An H that the QP core can read only through ``take``: it has no
    ``__matmul__``, no ``copy`` and no indexing."""

    __slots__ = ("_H",)

    def __init__(self, H):
        self._H = H

    def take(self, rows, axis=0):
        return self._H.take(rows, axis)


def test_row_view_matches_dense_h_bitwise():
    # solve_svmplus hands the core a row view over Q and Kt that divides
    # each row by g as it forms it, not the dense 2n x 2n H built from the
    # matrix Kt/g; from its start z0 = (0, nC e_1) both give the same rows
    # and iterates bit for bit
    rng = np.random.default_rng(29)
    for trial in range(30):
        n = int(rng.integers(3, 60))
        X = _linear_points(rng, n, 2)
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        y[:2] = (-1.0, 1.0)
        T = _linear_points(rng, n, 1 + trial % 2)
        spec = _kernel(rng, trial % 2 == 0)
        priv_spec = _kernel(rng, trial % 3 == 0)
        Q, Kt, gamma, p, A, hi, _ = _svmplus_parts(
            rng, gram(spec, X), y, gram(priv_spec, T))
        H = _dense_h(Q, Kt, gamma)
        rows = svmplus._HRows(Q, Kt, gamma)
        np.testing.assert_array_equal(rows.take(np.arange(2 * n), 0), H)
        z0 = np.zeros(2 * n)
        z0[n] = n  # nC, with C = 1
        z, it = solve_qp(rows, p, A, hi, z0, 1e-8, 10**5)
        z_dense, it_dense = solve_qp(H, p, A, hi, z0, 1e-8, 10**5)
        np.testing.assert_array_equal(z, z_dense)
        assert it == it_dense, trial


@pytest.mark.parametrize("n", [40, 300])
def test_both_duals_read_h_only_through_take(monkeypatch, n):
    # fits whose QP sees an H with nothing but take have the bits of the
    # fits on the H each dual builds, on either side of the 256-point
    # block where the row sources stop holding their matrices whole
    rng = np.random.default_rng(n)
    data, priv = random_dataset(rng, n), random_privileged(rng, n)
    spec = KernelSpec(GAUSSIAN_RBF, 1.0)
    c = rng.uniform(0.5, 2.0, n)
    plain = (solve_wsvm(data, spec, c),
             solve_svmplus(data, priv, spec, spec, 1.0, 4.0))
    for module in (wsvm, svmplus):
        monkeypatch.setattr(module, "solve_qp",
                            lambda H, *a: solve_qp(_TakeOnly(H), *a))
    wrapped = (solve_wsvm(data, spec, c),
               solve_svmplus(data, priv, spec, spec, 1.0, 4.0))
    for got, want in zip(wrapped, plain):
        np.testing.assert_array_equal(got.alpha, want.alpha)
        np.testing.assert_array_equal(got.beta, want.beta)
        assert got.n_iter == want.n_iter


def _linear_points(rng, n, d):
    """n points in d dimensions, a third of them duplicates of others."""
    X = rng.normal(size=(n, d))
    dup = rng.choice(n, n // 3, replace=False)
    X[dup] = X[rng.integers(0, n, dup.size)]
    return X


def test_face_step_on_rank_deficient_faces():
    # linear kernels in 1-2 dimensions with duplicate rows: the face
    # Hessians have large null spaces, so the step rides null directions
    rng = np.random.default_rng(19)
    moved = 0
    for trial in range(40):
        n = int(rng.integers(6, 41))
        X = _linear_points(rng, n, 1 + trial % 2)
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if trial % 4 < 2:
            H, p, A, hi, z = _wsvm_problem(rng, X @ X.T, y)
        else:
            T = _linear_points(rng, n, 1)
            H, p, A, hi, z = _svmplus_problem(rng, X @ X.T, y, T @ T.T)
        z0 = z.copy()
        G = H @ z + p
        moved += _face_step(z, G, H, A, hi)
        scale = np.abs(A) @ np.abs(z0)
        assert np.all(np.abs(A @ z - A @ z0) <= 1e-12 * scale)
        assert np.all(z >= 0.0) and np.all(z <= hi)
        # the objective may not increase beyond the rounding of its terms
        obj0 = 0.5 * z0 @ H @ z0 + p @ z0
        obj = 0.5 * z @ H @ z + p @ z
        size = 0.5 * np.abs(z0) @ np.abs(H) @ np.abs(z0) + np.abs(p) @ z0
        assert obj <= obj0 + 1e-12 * size, trial
        # G is updated once per face step, and must still be H z + p
        ref = H @ z + p
        assert np.max(np.abs(G - ref)) <= 1e-10 * np.max(
            np.abs(H) @ z + np.abs(p)), trial
    assert moved >= 35


def test_face_step_keeps_the_equality_rows_on_a_large_face():
    # a 600-variable SVM+ face with a rank-one privileged Gram: about 300
    # null directions, hundreds of pins, and bases downdated at each one;
    # their rounding must not carry A z away from A z0
    rng = np.random.default_rng(3)
    n = 300
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
    t = rng.normal(size=(n, 1))
    H, p, A, hi, z = _svmplus_problem(
        rng, gram(KernelSpec(GAUSSIAN_RBF, 1.0), X), y, t @ t.T)
    z0 = z.copy()
    G = H @ z + p
    assert _face_step(z, G, H, A, hi)
    assert np.all(np.abs(A @ z - A @ z0) <= 1e-14 * (np.abs(A) @ z0))


@pytest.mark.parametrize("plus", [False, True])
def test_face_step_lands_on_the_face_minimiser(monkeypatch, plus):
    # an RBF kernel on distinct points makes the face strictly convex; with
    # every variable free and the minimiser inside the box, one face step
    # is one full Newton step onto the equality-constrained minimiser
    rng = np.random.default_rng(7 + plus)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda M: calls.append(len(M)) or eigh(M))
    rbf = KernelSpec(GAUSSIAN_RBF, 0.7)
    for _ in range(10):
        n = int(rng.integers(5, 25))
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        y[:2] = (-1.0, 1.0)
        K = gram(rbf, X)
        if plus:
            H, _, A, hi, _ = _svmplus_problem(
                rng, K, y, gram(rbf, rng.normal(size=(n, 2))))
        else:
            H, _, A, hi, _ = _wsvm_problem(rng, K, y)
            hi = np.full(n, 10.0)
        m = y.size * (2 if plus else 1)
        target = rng.uniform(1.0, 3.0, m)
        p = -(H @ target) - A.T @ rng.normal(size=A.shape[0])
        # a start inside the box on the target's equality level set
        d = rng.normal(size=m)
        d -= A.T @ np.linalg.solve(A @ A.T, A @ d)
        z = target + 0.5 * d / np.max(np.abs(d))
        r = A.shape[0]
        kkt = np.block([[H, A.T], [A, np.zeros((r, r))]])
        expect = np.linalg.solve(kkt, np.r_[-p, A @ z])[:m]
        G = H @ z + p
        assert _face_step(z, G, H, A, hi)
        assert np.max(np.abs(z - expect)) <= 1e-10 * np.max(np.abs(expect))
        # with the minimiser outside the box the step pins variables, each
        # taken out of the one factorisation, and it ends stationary on its
        # last face: G is in the row space of A
        p = p + H @ rng.uniform(-4.0, 0.0, m)
        G = H @ z + p
        calls.clear()
        _face_step(z, G, H, A, hi)
        assert len(calls) == 1
        F = np.flatnonzero((z > 0) & (z < hi))
        AF = A[:, F]
        res = G[F] - AF.T @ np.linalg.lstsq(AF.T, G[F], rcond=None)[0]
        assert np.max(np.abs(res), initial=0.0) <= 1e-9 * np.max(np.abs(G))


@pytest.mark.parametrize("C, parent", [(0.25, 13), (1.0, 13), (4.0, 10)])
def test_null_rides_need_no_refactorisation(monkeypatch, C, parent):
    # the n = 102 linear SVM+ fits of
    # test_svmplus::test_rank_deficient_linear_fits_converge at gamma = 1:
    # the SVD face step made `parent` factorisations per fit, and an eigh
    # per pin would make over a hundred; taking each pinned variable out of
    # the bases by a Householder downdate keeps the count below the SVD's
    sample = generate_blobs_with_outliers(n_per_class=50, outlier_count=2,
                                          outlier_distance=100, seed=0)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda M: calls.append(len(M)) or eigh(M))
    lin = KernelSpec(LINEAR)
    solve_svmplus(sample.data, sample.priv, lin, lin, C, 1.0, max_iter=2000)
    assert 0 < len(calls) <= parent
