import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsvm import (
    ConvergenceError,
    Dataset,
    GAUSSIAN_RBF,
    KernelSpec,
    LINEAR,
    smooth_hinge,
    solve_primal,
)

from conftest import random_dataset, random_kernel


def test_values_at_transition_points():
    for delta in (0.05, 0.3, 1.0):
        v, d1, d2 = smooth_hinge(np.array([1.0 - 2 * delta, 1.0]), delta)
        assert v[0] == pytest.approx(delta, abs=1e-15)
        assert d1[0] == pytest.approx(-1.0, abs=1e-15)
        assert v[1] == 0.0 and d1[1] == 0.0 and d2[1] == 0.0


def test_linear_tail_and_flat_head():
    delta = 0.2
    t = np.array([-3.0, 0.0, 2.0, 10.0])
    v, d1, d2 = smooth_hinge(t, delta)
    np.testing.assert_allclose(v[:2], 1.0 - t[:2] - delta, atol=1e-15)
    np.testing.assert_array_equal(d1[:2], -1.0)
    np.testing.assert_array_equal(v[2:], 0.0)
    np.testing.assert_array_equal(d2, 0.0)


def test_envelope_below_hinge():
    delta = 0.37
    t = np.linspace(-4, 4, 5000)
    v, _, _ = smooth_hinge(t, delta)
    hinge = np.maximum(0.0, 1.0 - t)
    gap = hinge - v
    assert np.all(gap >= -1e-15)
    assert np.all(gap <= delta + 1e-15)


def test_curvature_bound_and_sign():
    delta = 0.11
    t = np.linspace(1 - 2 * delta, 1, 2001)
    _, _, d2 = smooth_hinge(t, delta)
    assert np.all(d2 >= -1e-15)
    assert np.max(d2) <= 3.0 / (4.0 * delta) + 1e-12
    # the maximum curvature is attained mid-band
    assert np.max(d2) == pytest.approx(3.0 / (4.0 * delta), rel=1e-5)


def test_delta_validation():
    with pytest.raises(ValueError, match="delta"):
        smooth_hinge(0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.01, max_value=1.0))
def test_derivatives_match_finite_differences(t, delta):
    eps = 1e-6
    vm, d1m, _ = smooth_hinge(t - eps, delta)
    vp, d1p, _ = smooth_hinge(t + eps, delta)
    v, d1, d2 = smooth_hinge(t, delta)
    assert (vp - vm) / (2 * eps) == pytest.approx(float(d1), abs=1e-6)
    assert (d1p - d1m) / (2 * eps) == pytest.approx(float(d2), abs=1e-4)


def _stationarity_residual(model):
    y = model.data.y
    K = model.gram_train
    t = y * model.decision_train
    _, d1, _ = smooth_hinge(t, model.delta)
    g = model.c * y * d1
    grad_a = K @ (model.alpha + g)
    grad_b = float(np.sum(g))
    return max(float(np.max(np.abs(grad_a))), abs(grad_b))


def test_primal_reaches_stationarity(rng):
    for _ in range(10):
        n = int(rng.integers(4, 12))
        data = random_dataset(rng, n)
        c = rng.uniform(0.2, 3.0, n)
        delta = float(rng.choice([0.1, 0.5, 1.0]))
        model = solve_primal(data, random_kernel(rng), c, delta)
        assert _stationarity_residual(model) <= 1e-6
        # the offset gradient must vanish on its own
        t = data.y * model.decision_train
        _, d1, _ = smooth_hinge(t, delta)
        assert abs(float(np.sum(c * data.y * d1))) <= 1e-6


def test_primal_objective_is_local_minimum(rng):
    data = random_dataset(rng, 8)
    c = rng.uniform(0.5, 2.0, 8)
    model = solve_primal(data, KernelSpec(LINEAR), c, 0.5)
    K = model.gram_train

    def obj(a, b):
        v, _, _ = smooth_hinge(data.y * (K @ a + b), 0.5)
        return 0.5 * float(a @ K @ a) + float(c @ v)

    base = obj(model.alpha, model.b)
    assert base == pytest.approx(model.objective, abs=1e-9)
    for _ in range(30):
        da = rng.normal(0, 1e-3, 8)
        db = float(rng.normal(0, 1e-3))
        assert obj(model.alpha + da, model.b + db) >= base - 1e-9


def test_all_zero_weights_allowed(rng):
    data = random_dataset(rng, 5)
    model = solve_primal(data, KernelSpec(LINEAR), np.zeros(5), 0.5)
    np.testing.assert_allclose(model.alpha, 0.0, atol=1e-12)
    assert model.objective == pytest.approx(0.0, abs=1e-12)


def test_predict_matches_training_decision(rng):
    data = random_dataset(rng, 6)
    model = solve_primal(data, random_kernel(rng), np.ones(6), 1.0)
    np.testing.assert_allclose(model.predict(data.X), model.decision_train,
                               atol=1e-10)


def _hard_instance(rng):
    """Rank-deficient kernels, duplicate rows, zero weights and weight
    ratios up to 1e9."""
    n = int(rng.integers(4, 151))
    X = rng.normal(size=(n, int(rng.integers(1, 3))))
    if rng.random() < 0.3:
        k = max(1, n // 3)
        X[rng.integers(0, n, k)] = X[rng.integers(0, n, k)]
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    y[0] = -y[1]
    c = 10.0 ** rng.uniform(-4.5, 4.5, n)
    if rng.random() < 0.3:
        c[rng.random(n) < 0.2] = 0.0
    spec = (KernelSpec(LINEAR) if rng.random() < 0.5
            else KernelSpec(GAUSSIAN_RBF, float(rng.uniform(0.5, 2.0))))
    return Dataset(X, y), spec, c, float(rng.choice([0.01, 0.1, 1.0]))


def test_primal_certifies_or_raises():
    rng = np.random.default_rng(2024)
    certified = 0
    for _ in range(100):
        data, spec, c, delta = _hard_instance(rng)
        try:
            model = solve_primal(data, spec, c, delta)
        except ConvergenceError:
            continue
        _, d1, _ = smooth_hinge(data.y * model.decision_train, delta)
        g = c * data.y * d1
        resid = max(float(np.max(np.abs(model.alpha + g))),
                    abs(float(np.sum(g))))
        assert resid <= 1e-10 * (1.0 + np.max(c))
        certified += 1
    assert certified >= 90


def test_primal_budget_raises(rng):
    data = random_dataset(rng, 20)
    c = rng.uniform(0.5, 2.0, 20)
    assert solve_primal(data, KernelSpec(LINEAR), c, 0.1).n_iter > 1
    with pytest.raises(ConvergenceError):
        solve_primal(data, KernelSpec(LINEAR), c, 0.1, max_iter=1)
