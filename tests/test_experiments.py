from dataclasses import astuple
from functools import partial

import numpy as np
import pytest

from privsvm import (
    KernelSpec,
    LINEAR,
    solve_svmplus,
    solve_wsvm,
)
from privsvm.experiments import (
    DEFAULT_LOG_GRID,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    WMixture,
    bandwidth_grid,
    counterexample_dataset,
    emit_results,
    generate_blobs_with_outliers,
    generate_w_mixture,
    parse_results,
    run_experiment,
)
from privsvm import experiments, wsvm


@pytest.fixture(autouse=True)
def small_weight_learning(monkeypatch):
    # one smoothing width and a short outer loop keep wsvm-learned quick
    monkeypatch.setattr(experiments, "LEARN_DELTAS", (1.0,))
    monkeypatch.setattr(experiments, "LEARN_MAX_OUTER", 5)


def test_counterexample_dataset_contents():
    data, c = counterexample_dataset()
    np.testing.assert_array_equal(data.X, [[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(data.y, [1.0, -1.0, 1.0])
    np.testing.assert_array_equal(c, [4.0, 6.0, 2.0])


def test_default_log_grid():
    grid = DEFAULT_LOG_GRID
    assert grid[0] == 2.0**-5 and grid[-1] == 2.0**15
    assert len(grid) == 11
    ratios = np.diff(np.log2(grid))
    np.testing.assert_array_equal(ratios, 2.0)


def test_bandwidth_grid_positive_and_deduplicated():
    X = np.array([[0.0], [1.0], [2.0]])
    grid = bandwidth_grid(X)
    assert all(h > 0 for h in grid)
    assert len(grid) == len(set(grid))
    assert bandwidth_grid(np.zeros((1, 2))) == (1.0,)


@pytest.mark.parametrize("n", [2, 3, 40, 257, 400])
@pytest.mark.parametrize("duplicates", [False, True])
def test_bandwidth_grid_bitwise_textbook_formula(n, duplicates):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 2))
    if duplicates:
        X[n // 2:] = X[: n - n // 2]
    sq = (np.sum(X * X, axis=1)[:, None] + np.sum(X * X, axis=1)[None, :]
          - 2.0 * (X @ X.T))
    d = np.sqrt(np.maximum(sq[np.triu_indices(n, k=1)], 0.0))
    expected = []
    for q in np.quantile(d, (0.1, 0.5, 0.9)):
        if float(max(q, 1e-12)) not in expected:
            expected.append(float(max(q, 1e-12)))
    assert bandwidth_grid(X) == tuple(expected)


def test_blobs_determinism_and_planting():
    a = generate_blobs_with_outliers(n_per_class=10, outlier_count=2, seed=3)
    b = generate_blobs_with_outliers(n_per_class=10, outlier_count=2, seed=3)
    np.testing.assert_array_equal(a.data.X, b.data.X)
    np.testing.assert_array_equal(a.data.y, b.data.y)
    assert a.outlier_mask.sum() == 2
    # the wrong-label points sit far beyond the opposite blob
    for x, y in zip(a.data.X[a.outlier_mask], a.data.y[a.outlier_mask]):
        assert np.sign(x[0]) == -np.sign(y)
        assert abs(x[0]) > 90.0
    # privileged flag column marks exactly the planted points
    np.testing.assert_array_equal(a.priv.X[:, 0], a.outlier_mask.astype(float))


def test_blobs_without_outliers_are_separable():
    sample = generate_blobs_with_outliers(n_per_class=20, outlier_count=0,
                                          seed=0)
    model = solve_wsvm(sample.data, KernelSpec(LINEAR),
                       np.full(sample.data.n, 1e6))
    assert np.all(sample.data.y * model.decision_train >= 1.0 - 1e-6)


def test_w_mixture_determinism_and_exact_eta():
    a = generate_w_mixture(50, seed=9)
    b = generate_w_mixture(50, seed=9)
    np.testing.assert_array_equal(a.data.X, b.data.X)
    np.testing.assert_array_equal(a.eta, b.eta)
    assert np.all(np.abs(a.eta) <= 1.0)
    # at each component center the posterior matches the component label
    from privsvm.experiments import W_CENTERS, W_LABELS
    eta_centers = WMixture.exact_eta(W_CENTERS)
    for e, lab in zip(eta_centers, W_LABELS):
        assert np.sign(e) == lab
        assert abs(e) > 0.99


def test_generator_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        generate_blobs_with_outliers(n_per_class=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        generate_w_mixture(-1)


def test_config_validation():
    with pytest.raises(ValueError, match="repetitions"):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ValueError, match="split"):
        ExperimentConfig(split="4-to-1")
    with pytest.raises(ValueError, match="methods"):
        ExperimentConfig(methods=("boosting",))
    with pytest.raises(ValueError, match="source"):
        ExperimentConfig(source="mnist")
    with pytest.raises(ValueError, match="subset"):
        ExperimentConfig(subset_sizes=(1,))
    # a split of two points leaves no validation point
    for split in ("1-to-2", "2-to-1"):
        with pytest.raises(ValueError, match="subset"):
            ExperimentConfig(subset_sizes=(2,), split=split)
    ExperimentConfig(subset_sizes=(2,), split="fixed-validation")
    with pytest.raises(ValueError, match="pool"):
        ExperimentConfig(subset_sizes=(400,), n_pool=200)
    # an empty or non-positive grid fails here, not in the first fit
    for bad in ((), (0.0,), (1.0, -2.0), (np.inf,), (np.nan,)):
        with pytest.raises(ValueError, match="C_grid"):
            ExperimentConfig(C_grid=bad)
        with pytest.raises(ValueError, match="gamma_grid"):
            ExperimentConfig(gamma_grid=bad)


def test_emit_parse_round_trip():
    table = ResultTable(rows=[
        ResultRow("svm", 40, "1-to-2", 0.123456789, 0.01, 5),
        ResultRow("svmplus", 40, "1-to-2", 0.0, 0.0, 5),
    ])
    text = emit_results(table)
    assert text.splitlines()[0] == "method,subset,split,mean_error,std,reps"
    back = parse_results(text)
    assert back.rows[0].mean_error == pytest.approx(0.123457, abs=1e-9)
    assert back.rows[1] == table.rows[1]
    with pytest.raises(ValueError, match="header"):
        parse_results("nope\n")


def test_emit_empty_table_is_header_only():
    assert emit_results(ResultTable()) == \
        "method,subset,split,mean_error,std,reps\n"


SMALL = dict(subset_sizes=(12,), repetitions=2, n_pool=40, n_test=100,
             C_grid=(1.0,), gamma_grid=(1.0,))


def test_run_experiment_deterministic():
    config = ExperimentConfig(methods=("svm",), seed=4, **SMALL)
    t1 = emit_results(run_experiment(config))
    t2 = emit_results(run_experiment(config))
    assert t1 == t2
    row = parse_results(t1).rows[0]
    assert 0.0 <= row.mean_error <= 1.0 and row.std >= 0.0 and row.reps == 2


def test_run_experiment_separable_blobs_low_error(monkeypatch):
    # a pool without planted points
    monkeypatch.setattr(experiments, "generate_blobs_with_outliers",
                        partial(generate_blobs_with_outliers,
                                outlier_count=0))
    config = ExperimentConfig(methods=("svm",), seed=1, **SMALL)
    table = run_experiment(config)
    assert table.rows[0].mean_error <= 0.01


def test_run_experiment_weighted_methods():
    config = ExperimentConfig(methods=("wsvm-prob", "svmplus"), seed=2,
                              **SMALL)
    table = run_experiment(config)
    assert {r.method for r in table.rows} == {"wsvm-prob", "svmplus"}
    assert all(0.0 <= r.mean_error <= 1.0 for r in table.rows)


PROTOCOL = dict(repetitions=2, n_pool=40, n_test=100,
                C_grid=(0.25, 1.0, 4.0), gamma_grid=(0.25, 4.0))
ALL_METHODS = ("svm", "wsvm-prob", "wsvm-learned", "svmplus",
               "wsvm-from-svmplus")


@pytest.mark.parametrize("params, expected", [
    (dict(source="blobs", kernel="gaussian-rbf", seed=5, subset_sizes=(12,)),
     "method,subset,split,mean_error,std,reps\n"
     "svm,12,1-to-2,0.04,0.03,2\n"
     "wsvm-prob,12,1-to-2,0.04,0.03,2\n"
     "wsvm-learned,12,1-to-2,0,0,2\n"
     "svmplus,12,1-to-2,0,0,2\n"
     "wsvm-from-svmplus,12,1-to-2,0,0,2\n"),
    (dict(source="wmixture", kernel=LINEAR, seed=6, subset_sizes=(12, 15)),
     "method,subset,split,mean_error,std,reps\n"
     "svm,12,1-to-2,0.105,0.065,2\n"
     "wsvm-prob,12,1-to-2,0.105,0.065,2\n"
     "wsvm-learned,12,1-to-2,0.04,0.01,2\n"
     "svmplus,12,1-to-2,0.085,0.035,2\n"
     "wsvm-from-svmplus,12,1-to-2,0.085,0.035,2\n"
     "svm,15,1-to-2,0.12,0.03,2\n"
     "wsvm-prob,15,1-to-2,0.12,0.03,2\n"
     "wsvm-learned,15,1-to-2,0.045,0.015,2\n"
     "svmplus,15,1-to-2,0.09,0,2\n"
     "wsvm-from-svmplus,15,1-to-2,0.09,0,2\n"),
], ids=["blobs-rbf", "wmixture-linear"])
def test_run_experiment_golden_output(params, expected):
    config = ExperimentConfig(methods=ALL_METHODS, **params, **PROTOCOL)
    assert emit_results(run_experiment(config)) == expected


def test_svmplus_grid_fitted_once_and_winner_replayed(monkeypatch, wsvm_q):
    # the replay of the SVM+ winner is built from it, not solved: no
    # weighted solve runs, and its row is the svmplus row
    calls = []

    def counting_svmplus(*args, **kwargs):
        calls.append(1)
        return solve_svmplus(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_svmplus", counting_svmplus)
    config = ExperimentConfig(methods=("svmplus", "wsvm-from-svmplus"),
                              kernel=LINEAR, seed=4, subset_sizes=(12,),
                              **PROTOCOL)
    plus, replay = run_experiment(config).rows
    # 2 repetitions x 3 C x 2 gamma, one linear kernel on each side
    assert len(calls) == 12
    assert wsvm_q == []
    assert replay == ResultRow("wsvm-from-svmplus", *astuple(plus)[1:])


def _weighted_fits_per_split(monkeypatch, config):
    """run_experiment's rows, and per split the weighted fits it made
    beside the number its tau rows call for: the rows that are not a
    bitwise repeat of an earlier row, times the bandwidths, times C."""
    calls, splits = [], []

    def counting_wsvm(*args, **kwargs):
        calls.append(1)
        return solve_wsvm(*args, **kwargs)

    fit_methods = experiments._fit_methods

    def recording(train, val, test, config, priv_X, eta_train):
        start = len(calls)
        out = fit_methods(train, val, test, config, priv_X, eta_train)
        # blobs confidences are 0 or 1: every tau > 0 row is the 0.5 row,
        # and it differs from tau = 0's ones only at a planted point
        rows = 5 if config.source == "wmixture" else 1 + bool(priv_X.any())
        want = rows * len(bandwidth_grid(train.X)) * len(config.C_grid)
        splits.append((len(calls) - start, want))
        return out

    monkeypatch.setattr(experiments, "solve_wsvm", counting_wsvm)
    monkeypatch.setattr(experiments, "_fit_methods", recording)
    return run_experiment(config).rows, splits


def test_svm_reads_its_fits_off_the_wsvm_prob_grid(monkeypatch):
    # tau = 0 gives svm's weights 1 exactly, so with both methods wsvm-prob's
    # grid holds svm's 9 fits (3 bandwidths x 3 C), and the SVM+ replay is
    # built, not solved.  Neither split holds a planted point, so all five
    # tau rows are ones and only the first is fitted: 9 fits, not 45
    base = dict(source="blobs", kernel="gaussian-rbf", seed=5,
                subset_sizes=(12,), **PROTOCOL)
    config = ExperimentConfig(methods=("svm", "wsvm-prob", "svmplus",
                                       "wsvm-from-svmplus"), **base)
    rows, splits = _weighted_fits_per_split(monkeypatch, config)
    assert splits == [(9, 9), (9, 9)]
    alone = [run_experiment(ExperimentConfig(methods=(m,), **base)).rows[0]
             for m in ("svm", "wsvm-prob")]
    assert rows[:2] == alone


@pytest.mark.parametrize("source, seed, counts", [
    ("blobs", 2, [9, 18]),
    ("wmixture", 6, [45, 45]),
], ids=["blobs-planted", "wmixture"])
def test_weighted_grid_fits_each_distinct_tau_row_once(monkeypatch, source,
                                                        seed, counts):
    # a planted point in the training side (seed 2's second split) makes
    # the tau > 0 rows differ from the ones of tau = 0: two rows, 18 fits.
    # W-mixture confidences are continuous, so all five rows are fitted
    config = ExperimentConfig(methods=("wsvm-prob",), source=source,
                              kernel="gaussian-rbf", seed=seed,
                              subset_sizes=(12,), **PROTOCOL)
    _, splits = _weighted_fits_per_split(monkeypatch, config)
    assert splits == [(c, c) for c in counts]


@pytest.mark.parametrize("n, kernel, C_grid, gamma_grid", [
    (40, "gaussian-rbf", (0.25, 4.0), (0.25, 4.0)),
    (300, "gaussian-rbf", (1.0,), (4.0,)),
    (300, LINEAR, (0.25, 4.0), (0.25, 4.0)),
], ids=["rbf-40", "rbf-300", "linear-300"])
def test_grids_share_row_sources_and_keep_every_fit_bitwise(
        monkeypatch, n, kernel, C_grid, gamma_grid):
    # one split's weighted (tau, C) grid and SVM+ (C, gamma) grid solve on
    # one Q = YKY per decision kernel and one Gram per privileged kernel,
    # and every fit has the bits of a fit that builds its own.  Up to 256
    # points the weighted fits of a kernel read one whole Q; above, each
    # reads its own rows, since a row computed by another fit's fill may
    # differ in its last bits
    monkeypatch.setattr(experiments, "DEFAULT_TAU_GRID", (0.0, 1.0))
    fits, solved_on = [], []

    def recording(solve):
        def call(*args, **kwargs):
            fits.append((solve, args, kwargs, solve(*args, **kwargs)))
            return fits[-1][-1]
        return call

    monkeypatch.setattr(experiments, "solve_wsvm", recording(solve_wsvm))
    monkeypatch.setattr(experiments, "solve_svmplus",
                        recording(solve_svmplus))
    solve_qp = wsvm.solve_qp
    monkeypatch.setattr(wsvm, "solve_qp",
                        lambda H, *a: solved_on.append(H) or solve_qp(H, *a))
    mix = generate_w_mixture(n + 40, seed=n)
    train = mix.data.subset(np.arange(n))
    val = mix.data.subset(np.arange(n, n + 40))
    config = ExperimentConfig(source="wmixture",
                              methods=("wsvm-prob", "svmplus"),
                              kernel=kernel, C_grid=C_grid,
                              gamma_grid=gamma_grid)
    experiments._fit_methods(train, val, val, config, mix.eta[:n, None],
                             mix.eta[:n])
    weighted = [f for f in fits if f[0] is solve_wsvm]
    plus = [f for f in fits if f[0] is solve_svmplus]
    n_specs = 1 if kernel == LINEAR else 3
    assert len(weighted) == n_specs * 2 * len(C_grid)
    assert len(plus) > len(weighted) // 2
    qs = {id(f[2]["_Q"]) for f in weighted}
    assert len(qs) == n_specs
    assert {id(f[2]["_Q"]) for f in plus} == qs
    per_kt = n_specs * len(C_grid) * len(gamma_grid)
    assert len({id(f[2]["_Kt"]) for f in plus}) == len(plus) // per_kt
    assert len({id(H) for H in solved_on}) == (
        n_specs if n <= 256 else len(weighted))
    for solve, args, kwargs, model in fits:
        alone = solve(*args)
        np.testing.assert_array_equal(model.alpha, alone.alpha)
        np.testing.assert_array_equal(model.beta, alone.beta)
        np.testing.assert_array_equal(model.f0, alone.f0)
        assert model.b == alone.b
        assert model.n_iter == alone.n_iter
        if solve is solve_svmplus:
            np.testing.assert_array_equal(model.kt_at, alone.kt_at)


def test_protocol_keeps_test_pool_disjoint():
    # train/validation ids come from the pool; the test set is generated
    # from an independent stream, so the two never share instances
    config = ExperimentConfig(methods=("svm",), seed=8, **SMALL)
    root = np.random.SeedSequence(8)
    from privsvm.experiments import _generate_pool
    data_seq, _ = root.spawn(2)
    pool, _, _, test = _generate_pool(config, data_seq)
    pool_rows = {tuple(row) for row in pool.X}
    test_rows = {tuple(row) for row in test.X}
    assert not pool_rows & test_rows
