import numpy as np
import pytest

from privsvm import (
    Dataset,
    GAUSSIAN_RBF,
    KernelSpec,
    LINEAR,
    PrivilegedSet,
    check_svmplus_kkt,
    generate_blobs_with_outliers,
    generate_w_mixture,
    gram,
    solve_svmplus,
    solve_wsvm,
)
from privsvm import svmplus
from privsvm.kernels import _KernelRows

from conftest import random_dataset, random_kernel, random_privileged
from reference import reference_svmplus_dual


def _random_plus(rng, n_max=12, tol=1e-9):
    n = int(rng.integers(3, n_max))
    data = random_dataset(rng, n)
    priv = random_privileged(rng, n)
    C = float(2.0 ** rng.uniform(-2, 2))
    gamma = float(2.0 ** rng.uniform(-1, 3))
    return solve_svmplus(data, priv, random_kernel(rng), random_kernel(rng),
                         C, gamma, tol=tol)


def test_feasibility_invariants(rng):
    for _ in range(15):
        model = _random_plus(rng)
        n = model.data.n
        assert np.all(model.alpha >= 0) and np.all(model.beta >= 0)
        assert abs(model.alpha @ model.data.y) <= 1e-8
        assert (np.sum(model.alpha) + np.sum(model.beta)
                == pytest.approx(n * model.C, abs=1e-8))
        np.testing.assert_allclose(
            model.alpha_tilde, model.alpha + model.beta - model.C,
            atol=1e-12)
        # the offsets' support rule: some beta, or alpha on both labels
        on, y = model.alpha > 0, model.data.y
        assert np.any(model.beta > 0) or (np.any(on[y > 0])
                                          and np.any(on[y < 0]))


def test_finish_reads_every_positive_dual_as_support():
    # beta_2 = 3e-13 is a support of b_tilde like beta_3: b_tilde is minus
    # the mean of kt_at / gamma over both (-0.35), not over beta_3 alone
    # (-0.4)
    data = Dataset([[0.0], [1.0], [2.0], [3.0]], [1.0, -1.0, 1.0, -1.0])
    priv = PrivilegedSet([[0.0], [1.0], [2.0], [3.0]])
    lin = KernelSpec(LINEAR)
    C, gamma = 1.0, 2.0
    alpha = np.array([1.0, 1.0, 0.0, 0.0])
    beta = np.array([0.0, 0.0, 3e-13, 2.0 - 3e-13])
    kt_at = np.array([0.2, -0.4, 0.6, 0.8])
    model = svmplus._finish(data, priv, lin, lin, C, gamma, alpha, beta,
                            alpha + beta - C,
                            np.array([0.5, -0.25, 0.75, 0.1]), kt_at, 0)
    assert model.b_tilde == pytest.approx(-np.mean(kt_at[2:]) / gamma,
                                          abs=1e-15)


def test_kkt_residuals_on_random_instances(rng):
    for _ in range(15):
        model = _random_plus(rng)
        report = check_svmplus_kkt(model, tol=1e-6)
        assert report.passed, report.to_text()


def test_matches_projected_gradient_oracle(rng):
    for _ in range(15):
        n = int(rng.integers(2, 6))
        data = random_dataset(rng, n)
        priv = random_privileged(rng, n)
        spec, pspec = random_kernel(rng), random_kernel(rng)
        C = float(2.0 ** rng.uniform(-2, 2))
        gamma = float(2.0 ** rng.uniform(-1, 3))
        model = solve_svmplus(data, priv, spec, pspec, C, gamma, tol=1e-10)
        _, _, obj_ref = reference_svmplus_dual(
            gram(spec, data), gram(pspec, priv), data.y, C, gamma)
        assert -model.objective_dual == pytest.approx(obj_ref, abs=1e-6)


def test_correcting_values_reproduce_training_slacks(rng):
    # the correcting function (1/g) Kt alpha_tilde + b_tilde at the
    # training points, with Kt built anew, gives the model's slacks
    for _ in range(5):
        model = _random_plus(rng, tol=1e-10)
        kt = gram(model.priv_spec, model.priv)
        est = kt @ model.alpha_tilde / model.gamma + model.b_tilde
        np.testing.assert_allclose(est, model.xi, atol=1e-6)


def test_separable_fit_has_constant_correcting_function():
    # separable classes: every loss is zero, so the weighted and plain
    # average losses agree, and the correcting function is the constant
    # b_tilde: ||w_tilde||^2 = alpha_tilde' Kt alpha_tilde / g^2 vanishes
    data = Dataset([[-2.0], [-3.0], [2.0], [3.0]], [-1.0, -1.0, 1.0, 1.0])
    priv = PrivilegedSet([[1.0], [2.0], [3.0], [4.0]])
    lin = KernelSpec(LINEAR)
    plus = solve_svmplus(data, priv, lin, lin, 1.0, 2.0)
    assert np.all(plus.h == 0.0)
    assert float(plus.alpha_tilde @ plus.kt_at) / plus.gamma**2 <= 1e-6
    np.testing.assert_allclose(plus.xi, plus.b_tilde, rtol=0, atol=1e-6)


def test_gamma_zero_reduces_to_uniform_soft_margin(rng):
    n = 8
    data = random_dataset(rng, n)
    priv = PrivilegedSet(np.eye(n))  # full row rank: any slack representable
    spec = KernelSpec(LINEAR)
    plus = solve_svmplus(data, priv, spec, KernelSpec(LINEAR), 1.5, 0.0)
    base = solve_wsvm(data, spec, np.full(n, 1.5))
    np.testing.assert_allclose(plus.alpha, base.alpha, atol=1e-10)
    assert plus.b == pytest.approx(base.b, abs=1e-12)
    assert plus.objective_primal == pytest.approx(base.objective_primal)


def test_gamma_zero_requires_full_row_rank(rng):
    data = random_dataset(rng, 5)
    priv = PrivilegedSet(np.ones((5, 1)))  # rank 1
    with pytest.raises(ValueError, match="full row rank"):
        solve_svmplus(data, priv, KernelSpec(LINEAR), KernelSpec(LINEAR),
                      1.0, 0.0)


def test_input_validation(rng):
    data = random_dataset(rng, 4)
    priv = random_privileged(rng, 4)
    lin = KernelSpec(LINEAR)
    with pytest.raises(ValueError, match="C"):
        solve_svmplus(data, priv, lin, lin, 0.0, 1.0)
    with pytest.raises(ValueError, match="gamma"):
        solve_svmplus(data, priv, lin, lin, 1.0, -1.0)
    with pytest.raises(ValueError, match="tol"):
        solve_svmplus(data, priv, lin, lin, 1.0, 1.0, tol=0.0)
    with pytest.raises(ValueError, match="rows"):
        solve_svmplus(data, random_privileged(rng, 3), lin, lin, 1.0, 1.0)


@pytest.mark.parametrize("n", [40, 260])
@pytest.mark.parametrize("spec", [KernelSpec(LINEAR),
                                  KernelSpec(GAUSSIAN_RBF, 1.0)],
                         ids=["linear", "rbf"])
def test_decision_train_bitwise_gram_product(n, spec, wsvm_q, monkeypatch):
    # the model keeps f0 = K (y a) and Kt at, and no Gram: f0 = y o Q a and
    # Kt at are the products of the row sources the fit solved on, on
    # either side of the 256-row block where they stop holding Q and Kt
    # whole (below it the QP reads a dense H formed from them, above it a
    # view over them).  The gamma = 0 fit is a weighted SVM, whose f0 is
    # y o Q a of the Q it solved on
    sources = []

    def recording(*args):
        sources.append(_KernelRows(*args))
        return sources[-1]

    monkeypatch.setattr(svmplus, "_KernelRows", recording)
    data = generate_w_mixture(n, seed=n).data
    priv = random_privileged(np.random.default_rng(n), n)
    model = solve_svmplus(data, priv, spec, spec, 1.0, 10.0)
    Kt, Q = sources
    assert Kt.data is priv and Q.data is data
    f0 = data.y * Q.dot(model.alpha)
    np.testing.assert_array_equal(model.decision_train, f0 + model.b)
    np.testing.assert_array_equal(model.kt_at, Kt.dot(model.alpha_tilde))
    model = solve_svmplus(data, PrivilegedSet(np.eye(n)), spec, spec, 1.0,
                          0.0)
    Q, = wsvm_q
    f0 = data.y * Q.dot(model.alpha)
    np.testing.assert_array_equal(model.decision_train, f0 + model.b)


def test_gamma_zero_solves_on_the_given_q(rng, wsvm_q):
    # a grid search hands an SVM+ fit the whole Q = YKY it built once; at
    # gamma = 0 the fit is a weighted SVM on that Q, with the bits of the
    # fit that builds its own
    data = random_dataset(rng, 12)
    priv = PrivilegedSet(np.eye(12))
    spec = KernelSpec(GAUSSIAN_RBF, 1.0)
    Q = _KernelRows(spec, data, data.y).whole
    shared = solve_svmplus(data, priv, spec, spec, 2.0, 0.0, _Q=Q)
    alone = solve_svmplus(data, priv, spec, spec, 2.0, 0.0)
    assert wsvm_q[0].whole is Q and wsvm_q[1].whole is not Q
    np.testing.assert_array_equal(shared.alpha, alone.alpha)
    np.testing.assert_array_equal(shared.f0, alone.f0)
    assert (shared.b, shared.n_iter) == (alone.b, alone.n_iter)


def test_integer_cost_matches_float(rng):
    data = random_dataset(rng, 10)
    priv = random_privileged(rng, 10)
    spec = KernelSpec(LINEAR)
    as_int = solve_svmplus(data, priv, spec, spec, 2, 1)
    as_float = solve_svmplus(data, priv, spec, spec, 2.0, 1.0)
    np.testing.assert_array_equal(as_int.alpha, as_float.alpha)
    assert as_int.b == as_float.b
    assert check_svmplus_kkt(as_int, tol=1e-6).passed


def test_rank_deficient_linear_fits_converge():
    # linear kernels on 2-D points and a 1-D privileged flag: the face
    # Hessians are rank deficient, and without a null-direction face step
    # the C = 4, gamma = 0.25 fit cycles past 20,000 iterations
    sample = generate_blobs_with_outliers(n_per_class=50, outlier_count=2,
                                          outlier_distance=100, seed=0)
    lin = KernelSpec(LINEAR)
    for C in (0.25, 1.0, 4.0):
        for gamma in (0.25, 1.0, 4.0):
            model = solve_svmplus(sample.data, sample.priv, lin, lin, C,
                                  gamma, max_iter=2000)
            assert model.n_iter <= 2000
            report = check_svmplus_kkt(model, tol=1e-6)
            assert report.passed, (C, gamma, report.to_text())


def test_h_blocks_bitwise(rng, monkeypatch):
    # the QP core takes rows of H, formed from Q and Kt/g; each has the
    # bits of that row of the block formula: Kt/g in every block, plus
    # Q = YKY in the top-left one
    taken = []

    class Recorder:
        def __init__(self, H):
            self.H = H

        def take(self, rows, axis=0):
            out = self.H.take(rows, axis)
            taken.append((np.array(rows), out))
            return out

    solve_qp = svmplus.solve_qp
    monkeypatch.setattr(svmplus, "solve_qp",
                        lambda H, *a: solve_qp(Recorder(H), *a))
    for _ in range(10):
        n = int(rng.integers(2, 40))
        data = random_dataset(rng, n)
        priv = random_privileged(rng, n)
        spec, priv_spec = random_kernel(rng), random_kernel(rng)
        gamma = float(2.0 ** rng.uniform(-1, 3))
        taken.clear()
        solve_svmplus(data, priv, spec, priv_spec, 1.0, gamma)
        Kt = gram(priv_spec, priv)
        expected = np.tile(Kt / gamma, (2, 2))
        expected[:n, :n] += (data.y[:, None] * data.y[None, :]) * gram(
            spec, data)
        assert len(taken) > 1
        for rows, got in taken:
            np.testing.assert_array_equal(got, expected[rows])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("C, gamma, tol, match", [
    (NAN, 1.0, 1e-8, "C"), (INF, 1.0, 1e-8, "C"), (-1.0, 1.0, 1e-8, "C"),
    (1.0, NAN, 1e-8, "gamma"), (1.0, INF, 1e-8, "gamma"),
    (1.0, 1.0, NAN, "tol"), (1.0, 1.0, INF, "tol"), (1.0, 1.0, -1.0, "tol"),
    (1.0, 0.0, NAN, "tol"),
])
def test_non_finite_hyperparameters_rejected(rng, C, gamma, tol, match):
    data = random_dataset(rng, 6)
    lin = KernelSpec(LINEAR)
    with pytest.raises(ValueError, match=match):
        solve_svmplus(data, PrivilegedSet(np.eye(6)), lin, lin, C, gamma,
                      tol=tol)


def test_rbf_fit_at_n_1000_is_certified():
    # W-mixture with eta as the privileged feature: from z0 = (0, nC e_1)
    # the first face steps work on few variables, so the fit takes well
    # under a second
    sample = generate_w_mixture(1000, seed=7)
    priv = PrivilegedSet(sample.eta[:, None])
    model = solve_svmplus(sample.data, priv, KernelSpec(GAUSSIAN_RBF, 1.0),
                          KernelSpec(GAUSSIAN_RBF, 0.5), 1.0, 1.0)
    report = check_svmplus_kkt(model, tol=1e-8)
    assert report.passed, report.to_text()


def test_grid_start_is_guarded_and_reproducible(monkeypatch):
    # a start fixes 1'(a + b) = nC, so one from another C or other data
    # would solve another problem; a standalone call handed the grid's
    # start has the grid fit's bits
    from privsvm import experiments
    fits = []

    def recording(*args, **kwargs):
        fits.append((args, kwargs, solve_svmplus(*args, **kwargs)))
        return fits[-1][-1]

    monkeypatch.setattr(experiments, "solve_svmplus", recording)
    mix = generate_w_mixture(60, seed=3)
    train, val = mix.data.subset(np.arange(30)), mix.data.subset(
        np.arange(30, 60))
    config = experiments.ExperimentConfig(
        source="wmixture", methods=("svmplus",), kernel=GAUSSIAN_RBF,
        C_grid=(0.25, 4.0), gamma_grid=(0.25, 1.0, 4.0))
    experiments._fit_methods(train, val, val, config, mix.eta[:30, None],
                             mix.eta[:30])
    # the seeded fit that moves furthest from its start
    args, kwargs, model = max(
        (f for f in fits if f[1]["_start"] is not None),
        key=lambda f: f[2].n_iter)
    assert model.n_iter > 0
    alone = solve_svmplus(*args, _start=kwargs["_start"])
    np.testing.assert_array_equal(model.alpha, alone.alpha)
    np.testing.assert_array_equal(model.beta, alone.beta)
    np.testing.assert_array_equal(model.f0, alone.f0)
    np.testing.assert_array_equal(model.kt_at, alone.kt_at)
    assert model.b == alone.b and model.n_iter == alone.n_iter
    data, priv, spec, pspec, C, gamma = args
    with pytest.raises(ValueError, match="same C"):
        solve_svmplus(data, priv, spec, pspec, 2.0 * C, gamma,
                      _start=kwargs["_start"])
    with pytest.raises(ValueError, match="same data"):
        solve_svmplus(Dataset(data.X, data.y), priv, spec, pspec, C, gamma,
                      _start=kwargs["_start"])


@pytest.mark.parametrize("linear", [True, False], ids=["linear", "rbf"])
def test_seeded_fit_reaches_the_cold_optimum(linear):
    # along a gamma grid, each fit started from the previous gamma's has
    # the dual objective of a fit from z0 = (0, nC e_1)
    rng = np.random.default_rng(44 + linear)
    for _ in range(6):
        n = int(rng.integers(3, 61))
        data = random_dataset(rng, n)
        priv = random_privileged(rng, n)
        spec, pspec = ((KernelSpec(LINEAR),) * 2 if linear else
                       (KernelSpec(GAUSSIAN_RBF, float(rng.uniform(0.5, 2))),
                        KernelSpec(GAUSSIAN_RBF, float(rng.uniform(0.5, 2)))))
        C = float(2.0 ** rng.integers(-2, 5))
        seeded = None
        for gamma in (0.25, 1.0, 4.0, 16.0):
            seeded = solve_svmplus(data, priv, spec, pspec, C, gamma,
                                   _start=seeded)
            cold = solve_svmplus(data, priv, spec, pspec, C, gamma)
            obj = cold.objective_dual
            assert abs(seeded.objective_dual - obj) <= 1e-8 * (1 + abs(obj))
