import numpy as np
import pytest

from privsvm import (
    Dataset,
    KernelSpec,
    LINEAR,
    PrimalModel,
    WeightLearningConfig,
    implicit_gradient,
    learn_weights,
    solve_primal,
)
from privsvm.experiments import generate_blobs_with_outliers
from privsvm.weightlearn import WEIGHT_SPREAD

from conftest import random_dataset


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


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        WeightLearningConfig(mode="newton")
    with pytest.raises(ValueError, match="delta"):
        WeightLearningConfig(deltas=(0.001,))
    with pytest.raises(ValueError, match="delta"):
        WeightLearningConfig(deltas=())
    with pytest.raises(ValueError, match="c_init"):
        WeightLearningConfig(c_init=0.0)


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


def test_log_mode_weights_stay_bounded():
    # unbounded log-weights run off to 2e-36 and 8e9 on this instance
    sample, val = _outlier_setup(seed=21)
    c_init = 2.0
    config = WeightLearningConfig(deltas=(1.0,), c_init=c_init,
                                  max_outer_iter=40)
    result = learn_weights(sample.data, val, KernelSpec(LINEAR), config)
    slack = 1.0 + 1e-12  # exp(log c) rounds by an ulp or two
    assert np.all(result.weights >= c_init / WEIGHT_SPREAD / slack)
    assert np.all(result.weights <= c_init * WEIGHT_SPREAD * slack)


def test_dimension_mismatch_rejected(rng):
    train = random_dataset(rng, 4, d=2)
    val = random_dataset(rng, 4, d=3)
    with pytest.raises(ValueError, match="dimension"):
        learn_weights(train, val, KernelSpec(LINEAR))
