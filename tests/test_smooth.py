import numpy as np
import pytest
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from privsvm import (
    ConvergenceError,
    Dataset,
    GAUSSIAN_RBF,
    KernelSpec,
    LINEAR,
    smooth_hinge,
    solve_primal,
)
from privsvm import smooth
from privsvm.kernels import gram
from privsvm.smooth import _newton_step

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
    # the solver checks delta once, at entry; an infinite one used to get
    # as far as an empty minimum in the offset shift
    data = Dataset([[0.0], [1.0]], [-1.0, 1.0])
    for delta in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="delta"):
            smooth_hinge(0.0, delta)
        with pytest.raises(ValueError, match="delta"):
            solve_primal(data, KernelSpec(LINEAR), np.ones(2), delta)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.01, max_value=1.0))
@example(1.0, 0.01)
@example(0.98, 0.01)
def test_derivatives_match_finite_differences(t, delta):
    # d2 has kinks at both breakpoints, where the central difference of d1
    # is off by 3 eps / (8 delta^2)
    eps = 1e-8
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


def _full_newton_step(K, v, r1, r2):
    n = v.size
    J = np.empty((n + 1, n + 1))
    J[:n, :n] = np.eye(n) + v[:, None] * K
    J[:n, n] = v
    J[n, :n] = v @ K
    J[n, n] = float(np.sum(v))
    step = np.linalg.solve(J, -np.r_[r1, r2])
    return step[:n], float(step[n])


@pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("kernel", [LINEAR, GAUSSIAN_RBF])
def test_band_newton_step_matches_full_solve(kernel, delta):
    rng = np.random.default_rng(int(1000 * delta) + len(kernel))
    for n in (4, 9, 40, 150):
        data = random_dataset(rng, n)
        spec = (KernelSpec(LINEAR) if kernel == LINEAR
                else KernelSpec(GAUSSIAN_RBF, float(rng.uniform(0.5, 2.0))))
        K = gram(spec, data)
        c = rng.uniform(0.5, 2.0, n)
        for m in (1, int(rng.integers(2, n)), n):
            # m margins strictly inside the band 1 - 2 delta < t < 1, the
            # rest on the flat or the linear piece
            inside = rng.permutation(n) < m
            t = np.where(rng.random(n) < 0.5, 1.0 + rng.uniform(0, 1, n),
                         1.0 - 2.0 * delta - rng.uniform(0, 1, n))
            t[inside] = 1.0 - 2.0 * delta * rng.uniform(0.01, 0.99, m)
            _, d1, d2 = smooth_hinge(t, delta)
            u, v = data.y * d1, c * d2
            assert np.array_equal(v > 0, inside)
            r1 = rng.normal(size=n) + u * c
            r2 = float(u @ c)
            step_a, step_b = _newton_step(K, v, np.flatnonzero(v > 0),
                                          r1, r2)
            full_a, full_b = _full_newton_step(K, v, r1, r2)
            np.testing.assert_array_equal(step_a[~inside], -r1[~inside])
            full = np.r_[full_a, full_b]
            err = np.max(np.abs(np.r_[step_a, step_b] - full))
            assert err <= 1e-10 * np.max(np.abs(full)), (n, m, err)


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


def test_solved_model_carries_its_slopes():
    # the (u, v) a solve stops on are those of smooth_hinge at the
    # model's decision values, bit for bit, cold and warm
    rng = np.random.default_rng(2025)
    carried = 0
    for _ in range(40):
        data, spec, c, delta = _hard_instance(rng)
        try:
            cold = solve_primal(data, spec, c, delta)
            warm = solve_primal(data, spec, c * rng.uniform(0.5, 2.0, data.n),
                                delta, warm=cold)
        except ConvergenceError:
            continue
        for model in (cold, warm):
            _, d1, d2 = smooth_hinge(data.y * model.decision_train, delta)
            u, v = model._uv
            assert np.array_equal(u, data.y * d1)
            assert np.array_equal(v, model.c * d2)
            carried += 1
    assert carried >= 70


def test_primal_budget_raises(rng, monkeypatch):
    data = random_dataset(rng, 20)
    c = rng.uniform(0.5, 2.0, 20)
    assert solve_primal(data, KernelSpec(LINEAR), c, 0.1).n_iter > 1
    monkeypatch.setattr(smooth, "PRIMAL_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        solve_primal(data, KernelSpec(LINEAR), c, 0.1)


def test_warm_start_from_own_solution_takes_no_step(rng):
    data = random_dataset(rng, 12)
    c = rng.uniform(0.5, 2.0, 12)
    spec = random_kernel(rng)
    cold = solve_primal(data, spec, c, 0.1)
    again = solve_primal(data, spec, c, 0.1, warm=cold)
    assert again.n_iter == 0
    np.testing.assert_array_equal(again.alpha, cold.alpha)
    assert again.b == cold.b
    assert again.gram_train is cold.gram_train


def test_warm_start_certifies_and_matches_cold_solve():
    rng = np.random.default_rng(2024)
    certified = compared = 0
    for _ in range(100):
        data, spec, c, delta = _hard_instance(rng)
        c_new = c * rng.uniform(0.5, 2.0, data.n)
        try:
            start = solve_primal(data, spec, c, delta)
            warm = solve_primal(data, spec, c_new, delta, warm=start)
        except ConvergenceError:
            continue
        f = warm.decision_train
        _, d1, _ = smooth_hinge(data.y * f, delta)
        g = c_new * data.y * d1
        resid = max(float(np.max(np.abs(warm.alpha + g))),
                    abs(float(np.sum(g))))
        assert resid <= 1e-10 * (1.0 + np.max(c_new))
        certified += 1
        try:
            f_cold = solve_primal(data, spec, c_new, delta).decision_train
        except ConvergenceError:
            continue
        scale = 1.0 + max(np.max(np.abs(f)), np.max(np.abs(f_cold)))
        assert np.max(np.abs(f - f_cold)) <= 1e-6 * scale
        compared += 1
    assert certified >= 80 and compared >= 80


def _certifies(model):
    # the stop test of solve_primal, at the model's own weights
    _, d1, _ = smooth_hinge(model.data.y * model.decision_train, model.delta)
    g = model.c * model.data.y * d1
    resid = max(float(np.max(np.abs(model.alpha + g))),
                abs(float(np.sum(g))))
    return resid <= 1e-10 * (1.0 + np.max(model.c))


def test_warm_start_state_keeps_every_bit():
    # a warm solve that starts from the state its warm model kept, and the
    # same solve from a copy without it, agree bit for bit; at the warm
    # model's own weights the objective is the start's
    rng = np.random.default_rng(2026)
    compared = 0
    for _ in range(100):
        data, spec, c, delta = _hard_instance(rng)
        c_new = c * rng.uniform(0.5, 2.0, data.n)
        try:
            start = solve_primal(data, spec, c, delta)
            assert start._state is not None
            cleared = replace(start, _state=None)
            pairs = [(solve_primal(data, spec, w, delta, warm=start),
                      solve_primal(data, spec, w, delta, warm=cleared))
                     for w in (c_new, c)]
        except ConvergenceError:
            continue
        for kept, fresh in pairs:
            assert np.array_equal(kept.alpha, fresh.alpha)
            assert np.array_equal(kept.f0, fresh.f0)
            assert kept.b == fresh.b
            assert kept.objective == fresh.objective
            assert kept.n_iter == fresh.n_iter
        assert pairs[1][0].n_iter == 0
        compared += 1
    assert compared >= 80


class _Unreadable(tuple):
    def __getitem__(self, key):
        raise AssertionError("the warm model's state was read")


def test_warm_start_state_needs_same_delta_and_labels(rng):
    data = random_dataset(rng, 30)
    spec = random_kernel(rng)
    c = rng.uniform(0.5, 2.0, 30)
    start = solve_primal(data, spec, c, 0.1)
    warm = replace(start, _state=_Unreadable())
    # at the same delta on the same labels the state is read
    with pytest.raises(AssertionError, match="read"):
        solve_primal(data, spec, c * 1.5, 0.1, warm=warm)
    # at another delta, or on the same inputs with flipped labels, it is
    # not, and the solve certifies as a cold one would
    flipped = Dataset(data.X, -data.y)
    for target, delta in ((data, 1.0), (flipped, 0.1)):
        model = solve_primal(target, spec, c * 1.5, delta, warm=warm)
        assert model.data is target and model.delta == delta
        assert _certifies(model)


def test_warm_model_must_match_spec_and_inputs(rng):
    data = random_dataset(rng, 8)
    c = np.ones(8)
    model = solve_primal(data, KernelSpec(LINEAR), c, 0.5)
    with pytest.raises(ValueError, match="spec"):
        solve_primal(data, KernelSpec(GAUSSIAN_RBF, 1.0), c, 0.5,
                     warm=model)
    with pytest.raises(ValueError, match="inputs"):
        solve_primal(Dataset(data.X + 1.0, data.y), KernelSpec(LINEAR), c,
                     0.5, warm=model)
    with pytest.raises(ValueError, match="inputs"):
        solve_primal(Dataset(data.X[:7], data.y[:7]), KernelSpec(LINEAR),
                     c[:7], 0.5, warm=model)
    # equal inputs in another array are the same inputs
    same = Dataset(data.X.copy(), data.y)
    assert solve_primal(same, KernelSpec(LINEAR), c, 0.5,
                        warm=model).n_iter == 0
