import numpy as np
import pytest

from privsvm import (
    Dataset,
    GAUSSIAN_RBF,
    KernelSpec,
    LINEAR,
    PrimalModel,
    WeightLearningConfig,
    implicit_gradient,
    learn_weights,
    solve_primal,
)
from privsvm import smooth, weightlearn
from privsvm.experiments import (bandwidth_grid, generate_blobs_with_outliers,
                                 generate_w_mixture)
from privsvm.kernels import gram
from privsvm.weightlearn import DEFAULT_DELTAS, WEIGHT_SPREAD, _adjoint_gradient

from conftest import random_dataset, random_kernel


def test_implicit_gradient_matches_finite_differences(rng):
    n = 8
    data = random_dataset(rng, n)
    c = rng.uniform(0.5, 2.0, n)
    delta = 0.5
    spec = KernelSpec(LINEAR)
    model = solve_primal(data, spec, c, delta)
    work = implicit_gradient(model)
    g = rng.normal(size=n)
    g_b = float(rng.normal())
    dc = rng.normal(size=n)
    imp = float((work.d_alpha @ dc) @ g + g_b * (work.d_b @ dc))
    eps = 1e-4
    mp = solve_primal(data, spec, c + eps * dc, delta)
    mm = solve_primal(data, spec, c - eps * dc, delta)
    fd = float((g @ (mp.alpha - mm.alpha) + g_b * (mp.b - mm.b)) / (2 * eps))
    assert imp == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_kink_free_fallback_is_exact_diag():
    # decision values keep every margin strictly beyond the smoothed band,
    # so the curvature term vanishes identically
    data = Dataset([[2.0], [-2.0]], [1.0, -1.0])
    model = PrimalModel(
        data=data, spec=KernelSpec(LINEAR), c=np.ones(2), delta=0.5,
        alpha=np.array([0.5, -0.5]), b=0.0, objective=0.0)
    work = implicit_gradient(model)
    assert work.kink_free
    np.testing.assert_array_equal(work.d_alpha, np.diag(work.u))
    np.testing.assert_array_equal(work.d_b, np.zeros(2))
    np.testing.assert_array_equal(work.u, 0.0)


def _gradient_pair(model, rng):
    g_alpha = rng.normal(size=model.data.n)
    g_b = float(rng.normal())
    work = implicit_gradient(model)
    return (_adjoint_gradient(model, g_alpha, g_b),
            work.d_alpha.T @ g_alpha + g_b * work.d_b, work)


def test_adjoint_gradient_matches_implicit_gradient(rng):
    for delta in DEFAULT_DELTAS:
        for n in (5, 20, 60):
            data = random_dataset(rng, n)
            model = solve_primal(data, random_kernel(rng), rng.uniform(
                0.5, 2.0, n), delta)
            adjoint, full, work = _gradient_pair(model, rng)
            assert not work.kink_free
            err = np.max(np.abs(adjoint - full))
            assert err <= 1e-12 * np.max(np.abs(full)), (delta, n, err)
    # the v = 0 side: every margin beyond the band, on the flat piece
    # only, then with one on the linear piece too
    for X, y, alpha in (([[2.0], [-2.0]], [1.0, -1.0], [0.5, -0.5]),
                        ([[2.0], [-2.0], [3.0]], [1.0, -1.0, -1.0],
                         [0.5, -0.5, 0.0])):
        model = PrimalModel(
            data=Dataset(X, y), spec=KernelSpec(LINEAR), c=np.ones(len(y)),
            delta=0.5, alpha=np.array(alpha), b=0.0, objective=0.0)
        adjoint, full, work = _gradient_pair(model, rng)
        assert work.kink_free
        np.testing.assert_array_equal(adjoint, full)
    assert np.any(work.u != 0)


def test_adjoint_gradient_same_on_hand_built_model(rng):
    # a solved model carries the slopes its solve stopped on; a hand-built
    # copy computes them on first use, to the same bits
    for delta in DEFAULT_DELTAS:
        data = random_dataset(rng, 30)
        solved = solve_primal(data, random_kernel(rng),
                              rng.uniform(0.5, 2.0, 30), delta)
        copy = PrimalModel(data=data, spec=solved.spec, c=solved.c,
                           delta=delta, alpha=solved.alpha, b=solved.b,
                           objective=solved.objective)
        assert copy._uv is None
        g_alpha, g_b = rng.normal(size=30), float(rng.normal())
        assert np.array_equal(_adjoint_gradient(solved, g_alpha, g_b),
                              _adjoint_gradient(copy, g_alpha, g_b))


def test_projected_learning_solves_only_on_the_band(monkeypatch):
    # every linear solve of weight learning, Newton steps and gradients
    # alike, has one right-hand side and at most one row more than the
    # training margins inside the curvature band of the iterate it is for;
    # the primal solve takes the curvature once per accepted iterate, and
    # nothing else in weight learning takes it
    band = []
    shapes = []
    curvature, solve = smooth._loss_curvature, np.linalg.solve

    def tracking_curvature(*args):
        out = curvature(*args)
        band.append(int(np.count_nonzero(out > 0)))
        return out

    def recording_solve(a, b):
        shapes.append((a.shape[0], b.shape, band[-1]))
        return solve(a, b)

    monkeypatch.setattr(smooth, "_loss_curvature", tracking_curvature)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    n = 60
    train = generate_w_mixture(n, seed=3).data
    val = generate_w_mixture(200, seed=4).data
    spec = KernelSpec(GAUSSIAN_RBF, float(np.median(
        bandwidth_grid(train.X, (0.5,)))))
    config = WeightLearningConfig(deltas=(0.1, 1.0), mode="projected",
                                  max_outer_iter=10)
    learn_weights(train, val, spec, config)
    assert len(shapes) > 20
    for rows, rhs, in_band in shapes:
        assert rhs == (rows,)
        assert rows <= 1 + in_band
    assert min(rows for rows, _, _ in shapes) < n // 2


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        WeightLearningConfig(mode="newton")
    with pytest.raises(ValueError, match="delta"):
        WeightLearningConfig(deltas=(0.001,))
    with pytest.raises(ValueError, match="delta"):
        WeightLearningConfig(deltas=())
    with pytest.raises(ValueError, match="max_outer_iter"):
        WeightLearningConfig(max_outer_iter=-3)
    WeightLearningConfig(max_outer_iter=0)


def _outlier_setup(seed=5):
    sample = generate_blobs_with_outliers(n_per_class=8, outlier_count=2,
                                          seed=seed)
    val = generate_blobs_with_outliers(n_per_class=20, outlier_count=0,
                                       seed=seed + 1).data
    return sample, val


def test_learned_weights_suppress_planted_outliers():
    sample, val = _outlier_setup()
    config = WeightLearningConfig(deltas=(1.0,), max_outer_iter=40)
    result = learn_weights(sample.data, val, KernelSpec(LINEAR), config)
    inlier = np.median(result.weights[~sample.outlier_mask])
    outlier = np.max(result.weights[sample.outlier_mask])
    assert outlier < 1e-2 * inlier
    assert result.val_error == 0.0
    assert result.delta == 1.0
    # the weights and delta are read off the winning model
    assert result.weights is result.model.c
    assert result.delta == result.model.delta
    assert len(result.history) > 0


def test_best_iterate_is_kept():
    sample, val = _outlier_setup(seed=11)
    config = WeightLearningConfig(deltas=(1.0,), max_outer_iter=25)
    result = learn_weights(sample.data, val, KernelSpec(LINEAR), config)
    best_seen = min(result.history)  # lexicographic (loss, error) per record
    recorded = [(loss, err) for loss, err in result.history]
    assert (result.val_error, result.val_loss) <= min(
        (err, loss) for loss, err in recorded)
    assert best_seen[0] >= result.val_loss or result.val_error < best_seen[1]


def test_projected_mode_decreases_validation_loss():
    sample, val = _outlier_setup(seed=21)
    config = WeightLearningConfig(deltas=(1.0,), mode="projected",
                                  max_outer_iter=15)
    result = learn_weights(sample.data, val, KernelSpec(LINEAR), config)
    losses = [loss for loss, _ in result.history]
    assert losses[-1] <= losses[0] + 1e-12
    assert np.all(result.weights >= 0.0)


def _stub_projected_run(monkeypatch, loss_of, grad_of, max_outer_iter=1):
    """Run the projected loop on two weights whose validation loss and
    gradient at c are loss_of(c) and grad_of(c), with no inner solve;
    return the weights it tried, in order."""
    tried = []

    def val_loss(c, train, val, spec, delta, K_val, warm):
        assert len(tried) < 100, "the step never ran out"
        tried.append(c.copy())
        return loss_of(c), 0.0, c, None  # c stands in for the model

    monkeypatch.setattr(weightlearn, "_val_loss", val_loss)
    monkeypatch.setattr(weightlearn, "_val_grad",
                        lambda model, K_val, slopes: grad_of(model))
    data = Dataset([[0.0], [1.0]], [1.0, -1.0])
    config = WeightLearningConfig(mode="projected",
                                  max_outer_iter=max_outer_iter)
    weightlearn._learn_one_delta(data, data, KernelSpec(LINEAR), 1.0,
                                 config, None)
    return tried


# the loss along the first step, as a function of its length s, and the
# length of the retried step: the minimiser 1 / (2 kappa) of 1 - s +
# kappa s^2 inside [0.1, 0.5], then either clamp; a trial loss a hair
# below the start is still rejected and puts the minimiser just past 0.5
@pytest.mark.parametrize("phi, retried", [
    (lambda s: 1.0 - s + 1.25 * s * s, 0.4),
    (lambda s: 1.0 - s + 20.0 * s * s, 0.1),
    (lambda s: 1.0 if s == 0.0 else 1.0 - 5e-13, 0.5),
])
def test_rejected_step_retries_at_clamped_quadratic_minimiser(
        monkeypatch, phi, retried):
    assert weightlearn.C_INIT == 1.0 and weightlearn.STEP_INIT == 1.0
    g = np.array([0.6, 0.8])

    def length(c):  # the step from the start along -g
        return float(g @ (1.0 - c) / (g @ g))

    tried = _stub_projected_run(monkeypatch, lambda c: phi(length(c)),
                                lambda c: g)
    assert length(tried[0]) == 0.0 and length(tried[1]) == pytest.approx(1.0)
    assert phi(length(tried[1])) > phi(0.0) - 1e-12  # the first is rejected
    assert length(tried[2]) == pytest.approx(retried, rel=1e-12)


def test_step_halves_where_quadratic_has_no_curvature(monkeypatch):
    # the first step puts c_0 on the floor; the next gradient points out of
    # the box, so every trial repeats c with the same loss and zero slope,
    # and the step halves from 1.5 until it is spent
    floor = weightlearn.WEIGHT_FLOOR

    def loss_of(c):
        return 1.0 if c[0] == 1.0 else 0.5

    def grad_of(c):
        return np.array([2.0 if c[0] == 1.0 else 1.0, 0.0])

    tried = _stub_projected_run(monkeypatch, loss_of, grad_of,
                                max_outer_iter=3)
    halvings, step = 0, 1.5
    while step > 1e-12:
        halvings, step = halvings + 1, step * 0.5
    assert len(tried) == 2 + halvings
    for c in tried[1:]:
        assert np.array_equal(c, [floor, 1.0])


@pytest.mark.parametrize("mode", ["projected", "log"])
def test_projected_steps_each_lower_the_loss(monkeypatch, mode):
    # every recorded iterate after the start was accepted at a loss at
    # least 1e-12 below the one before; the rejected trials between them
    # retried at 0.1-0.5 of their step, in c and in log c alike
    factors = []
    backtrack = weightlearn._backtrack

    def recording_backtrack(*args):
        factors.append(backtrack(*args))
        return factors[-1]

    monkeypatch.setattr(weightlearn, "_backtrack", recording_backtrack)
    train = generate_w_mixture(60, seed=31).data
    val = generate_w_mixture(300, seed=32).data
    spec = KernelSpec(GAUSSIAN_RBF, float(np.median(
        bandwidth_grid(train.X, (0.5,)))))
    config = WeightLearningConfig(deltas=(1.0,), mode=mode,
                                  max_outer_iter=40)
    result = learn_weights(train, val, spec, config)
    losses = [loss for loss, _ in result.history]
    assert len(losses) > 10
    for before, after in zip(losses, losses[1:]):
        assert after <= before - 1e-12
    assert factors and all(0.1 <= f <= 0.5 for f in factors)


def test_log_mode_weights_stay_bounded(monkeypatch):
    # unbounded log-weights run off to 2e-36 and 8e9 on this instance
    sample, val = _outlier_setup(seed=21)
    c_init = 2.0
    monkeypatch.setattr(weightlearn, "C_INIT", c_init)
    config = WeightLearningConfig(deltas=(1.0,), max_outer_iter=40)
    result = learn_weights(sample.data, val, KernelSpec(LINEAR), config)
    slack = 1.0 + 1e-12  # exp(log c) rounds by an ulp or two
    assert np.all(result.weights >= c_init / WEIGHT_SPREAD / slack)
    assert np.all(result.weights <= c_init * WEIGHT_SPREAD * slack)


def test_log_mode_weights_hold_under_a_tighter_inner_solve(monkeypatch):
    # the inner solves move within their own tolerance when PRIMAL_TOL
    # goes from 1e-10 to 1e-11; the learned weights move far less than
    # 1e-3 with them (on this draw L-BFGS-B moved one by a factor of 5e3)
    train = generate_w_mixture(60, seed=313407450).data
    val = generate_w_mixture(600, seed=2721192765).data
    spec = KernelSpec(GAUSSIAN_RBF, float(np.median(
        bandwidth_grid(train.X, (0.5,)))))
    config = WeightLearningConfig(deltas=(0.1, 1.0), mode="log",
                                  max_outer_iter=40)
    weights = []
    for tol in (1e-10, 1e-11):
        monkeypatch.setattr(smooth, "PRIMAL_TOL", tol)
        weights.append(learn_weights(train, val, spec, config).weights)
    coarse, fine = weights
    assert np.max(np.abs(fine - coarse) / coarse) <= 1e-3


def test_dimension_mismatch_rejected(rng):
    train = random_dataset(rng, 4, d=2)
    val = random_dataset(rng, 4, d=3)
    with pytest.raises(ValueError, match="dimension"):
        learn_weights(train, val, KernelSpec(LINEAR))


def test_training_gram_built_once_per_delta(monkeypatch):
    # one training Gram per delta, and one validation cross Gram per
    # call that every delta reads
    builds = {"train": 0, "cross": 0}

    def counting_gram(spec, a, b=None):
        builds["train" if b is None else "cross"] += 1
        return gram(spec, a, b)

    monkeypatch.setattr(smooth, "gram", counting_gram)
    monkeypatch.setattr(weightlearn, "gram", counting_gram)
    sample, val = _outlier_setup()
    config = WeightLearningConfig(deltas=(0.1, 1.0), mode="projected",
                                  max_outer_iter=10)
    result = learn_weights(sample.data, val, KernelSpec(LINEAR), config)
    assert len(result.history) > 2
    assert builds == {"train": 2, "cross": 1}
