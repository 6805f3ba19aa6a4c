import numpy as np
import pytest

from privsvm import (
    Dataset,
    GAUSSIAN_RBF,
    KernelSpec,
    LINEAR,
    check_wsvm_kkt,
    gram,
    solve_wsvm,
)
from privsvm.experiments import generate_w_mixture
from privsvm.kernels import _KernelRows
from privsvm.qp import solve_qp
from privsvm.wsvm import DEFAULT_MAX_ITER, DEFAULT_TOL, check_weights

from conftest import random_dataset, random_kernel
from reference import reference_wsvm_dual

TWO_POINTS = Dataset([[0.0], [1.0]], [-1.0, 1.0])


def test_separable_two_points_exact():
    model = solve_wsvm(TWO_POINTS, KernelSpec(LINEAR), [10.0, 10.0])
    np.testing.assert_allclose(model.alpha, [2.0, 2.0], atol=1e-8)
    assert model.b == pytest.approx(-1.0, abs=1e-8)
    assert model.objective_dual == pytest.approx(2.0, abs=1e-8)
    np.testing.assert_allclose(model.xi, 0.0, atol=1e-8)
    lo, hi = model.b_interval
    assert lo == pytest.approx(-1.0, abs=1e-8)
    assert hi == pytest.approx(-1.0, abs=1e-8)


def test_bounded_two_points_offset_interval():
    # both duals pinned at c = 0.3: every b in [-1, 0.7] is optimal and the
    # midpoint convention picks -0.15
    model = solve_wsvm(TWO_POINTS, KernelSpec(LINEAR), [0.3, 0.3])
    np.testing.assert_allclose(model.alpha, [0.3, 0.3], atol=1e-12)
    lo, hi = model.b_interval
    assert (lo, hi) == pytest.approx((-1.0, 0.7), abs=1e-12)
    assert model.b == pytest.approx(-0.15, abs=1e-12)


def test_single_class_interval_is_half_line():
    data = Dataset([[0.0], [1.0]], [1.0, 1.0])
    model = solve_wsvm(data, KernelSpec(LINEAR), [1.0, 1.0])
    np.testing.assert_array_equal(model.alpha, 0.0)
    lo, hi = model.b_interval
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == np.inf
    assert model.b == pytest.approx(1.0, abs=1e-12)


def test_b_override():
    model = solve_wsvm(TWO_POINTS, KernelSpec(LINEAR), [0.3, 0.3],
                       b_override=0.5)
    assert model.b == 0.5
    # the stored interval still reflects the optimum, not the override
    assert model.b_interval == pytest.approx((-1.0, 0.7), abs=1e-12)


def test_dual_feasibility_invariants(rng):
    for _ in range(20):
        n = int(rng.integers(3, 12))
        data = random_dataset(rng, n)
        c = rng.uniform(0.0, 3.0, n)
        c[int(rng.integers(n))] = 1.0  # keep at least one positive weight
        model = solve_wsvm(data, random_kernel(rng), c)
        assert np.all(model.alpha >= -1e-12)
        assert np.all(model.alpha <= c + 1e-12)
        assert abs(model.alpha @ data.y) <= 1e-8
        np.testing.assert_allclose(model.beta, c - model.alpha, atol=1e-12)
        assert model.objective_primal >= model.objective_dual - 1e-8


def test_kkt_residuals_on_random_instances(rng):
    for _ in range(15):
        n = int(rng.integers(3, 15))
        data = random_dataset(rng, n)
        c = rng.uniform(0.05, 4.0, n)
        model = solve_wsvm(data, random_kernel(rng), c, tol=1e-10)
        report = check_wsvm_kkt(model, tol=1e-6)
        assert report.passed, report.to_text()


def test_matches_projected_gradient_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        data = random_dataset(rng, n)
        spec = random_kernel(rng)
        c = rng.uniform(0.1, 4.0, n)
        model = solve_wsvm(data, spec, c)
        _, obj_ref = reference_wsvm_dual(gram(spec, data), data.y, c)
        # the model stores the maximized dual; the oracle minimizes its
        # negation
        assert -model.objective_dual == pytest.approx(obj_ref, abs=1e-6)


@pytest.mark.parametrize("n", [40, 300])
def test_fit_is_the_qp_on_its_row_source(n):
    # solve_wsvm hands the QP core the row source of Q = YKY, whole or a
    # row at a time, and reads f0 and the dual objective off Q a; a fresh
    # source asked for the same rows gives the same iterates bit for bit
    rng = np.random.default_rng(n)
    data = random_dataset(rng, n)
    c = rng.uniform(0.05, 4.0, n)
    for spec in (KernelSpec(LINEAR), KernelSpec(GAUSSIAN_RBF, 1.0)):
        model = solve_wsvm(data, spec, c)
        Q = _KernelRows(spec, data, data.y)
        alpha, n_iter = solve_qp(Q, -np.ones(n), data.y[None, :], c,
                                 np.zeros(n), DEFAULT_TOL, DEFAULT_MAX_ITER)
        np.testing.assert_array_equal(model.alpha, alpha)
        assert model.n_iter == n_iter
        f0 = data.y * Q.dot(alpha)
        np.testing.assert_array_equal(model.decision_train, f0 + model.b)
        assert model.objective_dual == (float(np.sum(alpha))
                                        - 0.5 * float((data.y * alpha) @ f0))


@pytest.mark.parametrize("n", [40, 300])
@pytest.mark.parametrize("spec", [KernelSpec(LINEAR),
                                  KernelSpec(GAUSSIAN_RBF, 1.0)],
                         ids=["linear", "rbf"])
def test_decision_train_bitwise_gram_product(n, spec, wsvm_q):
    # the model keeps f0 = y o Q a, the product of the row source the QP
    # read, on either side of the 256-row block where it stops holding Q
    # whole
    data = generate_w_mixture(n, seed=n).data
    c = np.random.default_rng(n).uniform(0.1, 4.0, n)
    model = solve_wsvm(data, spec, c)
    Q, = wsvm_q
    f0 = data.y * Q.dot(model.alpha)
    np.testing.assert_array_equal(model.decision_train, f0 + model.b)


@pytest.mark.parametrize("spec", [KernelSpec(LINEAR),
                                  KernelSpec(GAUSSIAN_RBF, 1.0)],
                         ids=["linear", "rbf"])
def test_row_cache_beyond_one_block(spec, monkeypatch, wsvm_q):
    # above 256 points Q is computed a row at a time, on first use: the
    # fit must certify, reach the optimum of the dense problem, compute
    # fewer than half of Q's rows, and each with the bits of
    # y_i y o gram(spec, X[fill], X), the squared norms recomputed
    n = 600
    data = generate_w_mixture(n, seed=6).data
    c = 10.0 ** np.random.default_rng(6).uniform(-1.0, 1.0, n)
    Q = (data.y[:, None] * data.y[None, :]) * gram(spec, data)
    alpha, _ = solve_qp(Q, -np.ones(n), data.y[None, :], c, np.zeros(n),
                        DEFAULT_TOL, DEFAULT_MAX_ITER)
    dense = float(np.sum(alpha)) - 0.5 * float(alpha @ Q @ alpha)
    fills = []
    fill = _KernelRows._fill
    monkeypatch.setattr(_KernelRows, "_fill", lambda self, rows: (
        fills.append(rows), fill(self, rows)))
    model = solve_wsvm(data, spec, c)
    report = check_wsvm_kkt(model, tol=1e-8)
    assert report.passed, report.to_text()
    assert model.objective_dual == pytest.approx(dense, rel=1e-10)
    assert 0 < sum(len(rows) for rows in fills) < n / 2
    # a one-row fill is a matrix-vector product, whose last bits differ
    # from the dense Q's; a row listed twice keeps its last computation
    expected = {}
    for rows in fills:
        K = gram(spec, data.X[rows], data.X)
        expected.update(zip(rows.tolist(),
                            np.outer(data.y[rows], data.y) * K))
    source, = wsvm_q
    done = list(source.rows)
    assert sorted(done) == sorted(expected)
    np.testing.assert_array_equal(source.take(done, 0),
                                  [expected[i] for i in done])


def test_offset_interval_minimizes_weighted_hinge(rng):
    for _ in range(10):
        n = int(rng.integers(3, 10))
        data = random_dataset(rng, n)
        c = rng.uniform(0.0, 2.0, n)
        c[0] = 1.0
        model = solve_wsvm(data, KernelSpec(LINEAR), c)
        f0 = model.gram_train @ (data.y * model.alpha)

        def loss(b):
            return float(c @ np.maximum(0.0, 1.0 - data.y * (f0 + b)))

        lo, hi = model.b_interval
        inside = loss(np.clip(model.b, lo, hi))
        for probe in np.linspace(-5, 5, 41):
            assert loss(probe) >= inside - 1e-9


def test_input_validation():
    with pytest.raises(ValueError, match="tol"):
        solve_wsvm(TWO_POINTS, KernelSpec(LINEAR), [1.0, 1.0], tol=0.0)
    with pytest.raises(ValueError, match="expected 2"):
        check_weights([1.0], 2)
    with pytest.raises(ValueError, match="nonnegative"):
        check_weights([1.0, -1.0], 2)
    with pytest.raises(ValueError, match="all be zero"):
        check_weights([0.0, 0.0], 2)
    assert check_weights([0.0, 0.0], 2, allow_all_zero=True).sum() == 0.0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("c, tol, b_override, match", [
    ([1.0, 1.0], NAN, None, "tol"), ([1.0, 1.0], INF, None, "tol"),
    ([1.0, 1.0], -1.0, None, "tol"),
    ([NAN, 1.0], 1e-8, None, "finite"), ([1.0, INF], 1e-8, None, "finite"),
    ([1.0, 1.0], 1e-8, NAN, "b_override"),
    ([1.0, 1.0], 1e-8, INF, "b_override"),
    ([1.0, 1.0], 1e-8, -INF, "b_override"),
])
def test_non_finite_hyperparameters_rejected(c, tol, b_override, match):
    with pytest.raises(ValueError, match=match):
        solve_wsvm(TWO_POINTS, KernelSpec(LINEAR), c, tol=tol,
                   b_override=b_override)
