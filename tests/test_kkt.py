from dataclasses import replace

import numpy as np
import pytest

from privsvm import (
    GAUSSIAN_RBF,
    Dataset,
    KernelSpec,
    LINEAR,
    b_uniqueness,
    check_svmplus_kkt,
    check_wsvm_kkt,
    dual_uniqueness_condition,
    generate_blobs_with_outliers,
    solve_svmplus,
    solve_wsvm,
)
from privsvm.experiments import counterexample_dataset


def test_report_text_and_pass_flag():
    data, c = counterexample_dataset()
    model = solve_wsvm(data, KernelSpec(LINEAR), c)
    report = check_wsvm_kkt(model, tol=1e-8)
    assert report.passed
    text = report.to_text()
    assert "max_violation" in text and text.endswith("pass 1")
    assert set(report.residuals) >= {
        "stationarity_b", "complementarity_margin", "complementarity_slack"}


def test_nan_offset_reports_fail():
    # a NaN offset makes every margin residual NaN; the report must fail on
    # it and not drop it behind the finite residuals listed before it
    data, c = counterexample_dataset()
    model = replace(solve_wsvm(data, KernelSpec(LINEAR), c), b=float("nan"))
    sample = generate_blobs_with_outliers(n_per_class=5, outlier_count=1,
                                          outlier_distance=10, seed=0)
    plus = solve_svmplus(sample.data, sample.priv, KernelSpec(LINEAR),
                         KernelSpec(LINEAR), 1.0, 1.0)
    plus = replace(plus, b=float("nan"))
    for report in (check_wsvm_kkt(model), check_svmplus_kkt(plus)):
        assert np.isnan(report.max_violation)
        assert not report.passed
        assert report.to_text().endswith("pass 0")


def test_b_unique_on_three_point_instance():
    data, c = counterexample_dataset()
    model = solve_wsvm(data, KernelSpec(LINEAR), c)
    result = b_uniqueness(model)
    assert result.unique
    lo, hi = result.interval
    assert lo == pytest.approx(hi, abs=1e-8)


def test_b_non_unique_on_bounded_pair():
    data = Dataset([[0.0], [1.0]], [-1.0, 1.0])
    model = solve_wsvm(data, KernelSpec(LINEAR), [0.3, 0.3])
    result = b_uniqueness(model)
    assert not result.unique
    assert result.condition in (1, 2)
    assert result.interval == pytest.approx((-1.0, 0.7), abs=1e-10)
    assert "unique 0" in result.to_text()


def test_b_non_unique_second_balance_condition():
    # the same bounded pair with b at the lower end of its interval: the
    # negative point sits on its margin, so only condition 2 balances
    data = Dataset([[0.0], [1.0]], [-1.0, 1.0])
    model = solve_wsvm(data, KernelSpec(LINEAR), [0.3, 0.3], b_override=-1.0)
    result = b_uniqueness(model)
    assert not result.unique
    assert result.condition == 2
    assert result.interval == pytest.approx((-1.0, 0.7), abs=1e-10)
    assert "condition 2" in result.to_text()
    # the interval is the one each fit stored, with or without the override
    assert result.interval == model.b_interval
    fitted = solve_wsvm(data, KernelSpec(LINEAR), [0.3, 0.3])
    assert b_uniqueness(fitted).interval == fitted.b_interval


def test_b_uniqueness_agrees_with_stored_interval():
    # the balance conditions, read off the fit's margins, against the exact
    # argmin interval of the offset that the solve stored; small weights
    # bound most points, so about a quarter of the offsets are non-unique
    rng = np.random.default_rng(0)
    non_unique = 0
    for _ in range(400):
        n = int(rng.integers(2, 13))
        X = rng.normal(size=(n, int(rng.integers(1, 3))))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        y[:2] = 1.0, -1.0
        C = 10.0 ** rng.uniform(-2.5, 0.5)
        c = C * (1.0 if rng.random() < 0.5 else rng.uniform(0.2, 1.0, n))
        spec = (KernelSpec(LINEAR) if rng.random() < 0.5
                else KernelSpec(GAUSSIAN_RBF, 1.0))
        model = solve_wsvm(Dataset(X, y), spec, np.broadcast_to(c, n))
        lo, hi = model.b_interval
        point = hi - lo <= 1e-8 * (1.0 + abs(lo))
        assert b_uniqueness(model).unique == point, (lo, hi)
        non_unique += not point
    assert non_unique >= 50


def test_stored_interval_keeps_an_exactly_flat_stretch():
    # eleven equal weights; the hinge objective is exactly flat on
    # [0.98, 1.005] (checked in rational arithmetic), and b_uniqueness
    # finds the balance, but the stored interval is the point 1.005
    X = [[0.1], [0.9], [0.2], [-0.5], [-1.4], [-0.5], [-0.5], [-1.6], [0.3],
         [0.7], [-0.6]]
    y = [1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0]
    model = solve_wsvm(Dataset(X, y), KernelSpec(LINEAR), np.full(11, 0.1))
    assert not b_uniqueness(model).unique
    lo, hi = model.b_interval
    assert lo <= 0.98 and hi >= 1.005


def test_dual_uniqueness_positive_definite():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 6))
    K = A @ A.T + 6 * np.eye(6)
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    assert dual_uniqueness_condition(K, y)


def planted_degenerate_instance():
    """K with a null direction orthogonal to both 1 and y after the label
    conjugation, so the dual solution set is a nontrivial segment."""
    y = np.array([1.0, 1.0, -1.0, -1.0])
    v = np.array([1.0, -1.0, 1.0, -1.0])  # 1'v = 0 and y'v = 0
    u = y * v
    K = np.eye(4) - np.outer(u, u) / (u @ u)  # PSD with K u = 0
    return K, y, v


def test_dual_non_uniqueness_planted():
    K, y, v = planted_degenerate_instance()
    assert not dual_uniqueness_condition(K, y)
    Q = (y[:, None] * y[None, :]) * K
    assert np.max(np.abs(Q @ v)) <= 1e-12
    assert abs(np.sum(v)) <= 1e-12 and abs(v @ y) <= 1e-12


def test_dual_uniqueness_stacked_matrix_bitwise(monkeypatch):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(30, 3))
    K = A @ A.T
    y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda M, **kw: seen.append(M.copy()) or svd(M, **kw))
    dual_uniqueness_condition(K, y)
    Q = (y[:, None] * y[None, :]) * K
    np.testing.assert_array_equal(
        seen[0], np.vstack([Q, np.ones((1, 30)), y[None, :]]))


def test_dual_uniqueness_input_validation():
    with pytest.raises(ValueError, match="square"):
        dual_uniqueness_condition(np.ones((2, 3)), [1.0, -1.0])
