import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsvm import (
    Dataset,
    GAUSSIAN_RBF,
    KernelSpec,
    LINEAR,
    NotRepresentableError,
    check_svmplus_kkt,
    check_wsvm_kkt,
    construct_privileged,
    dual_uniqueness_condition,
    equivalence_report,
    family_membership,
    gram,
    rho,
    solve_svmplus,
    solve_wsvm,
    weights_from_svmplus,
    wsvm_from_svmplus,
)
from privsvm.data import PrivilegedSet
from privsvm.experiments import counterexample_dataset
from privsvm.wsvm import predict

from conftest import random_dataset, random_kernel, random_privileged


def three_point_model():
    data, c = counterexample_dataset()
    return solve_wsvm(data, KernelSpec(LINEAR), c), c


def test_rho_on_three_point_instance():
    model, c = three_point_model()
    unnorm, norm = rho(c, model.xi)
    assert unnorm == pytest.approx(-8.0, abs=1e-6)
    assert norm == pytest.approx(-2.0 / 3.0, abs=1e-9)


def test_rho_zero_weight_sum():
    unnorm, norm = rho([0.0, 0.0], [1.0, 2.0])
    assert unnorm == 0.0 and norm is None
    with pytest.raises(ValueError, match="length"):
        rho([1.0], [1.0, 2.0])


def test_necessary_condition_fails_on_three_point_instance():
    model, _ = three_point_model()
    assert not equivalence_report(model).necessary_condition_holds
    with pytest.raises(NotRepresentableError, match="no correcting space"):
        construct_privileged(model)


def test_construct_and_resolve_round_trip(rng):
    # a weighting with strictly positive rho can be replayed through a
    # one-dimensional correcting space
    for _ in range(20):
        n = int(rng.integers(4, 10))
        data = random_dataset(rng, n)
        spec = random_kernel(rng)
        c = rng.uniform(0.3, 3.0, n)
        model = solve_wsvm(data, spec, c, tol=1e-10)
        unnorm, _ = rho(c, model.xi)
        if unnorm <= 1e-2:
            continue
        built = construct_privileged(model)
        assert built.C == pytest.approx(float(np.mean(c)))
        assert built.gamma == pytest.approx(unnorm)
        assert built.b_tilde == pytest.approx(
            float(c @ model.xi / np.sum(c)))
        plus = solve_svmplus(data, built.priv, spec, KernelSpec(LINEAR),
                             built.C, built.gamma, tol=1e-8)
        d = data.y * (plus.alpha - model.alpha)
        norm_diff = float(np.sqrt(max(d @ model.gram_train @ d, 0.0)))
        assert norm_diff <= 1e-5
        assert plus.b == pytest.approx(model.b, abs=1e-5)
        return
    pytest.fail("no instance with positive rho encountered")


def test_weights_from_svmplus_round_trip(rng):
    n = 8
    data = random_dataset(rng, n)
    priv = random_privileged(rng, n)
    spec = random_kernel(rng)
    plus = solve_svmplus(data, priv, spec, random_kernel(rng), 1.0, 2.0,
                         tol=1e-10)
    c = weights_from_svmplus(plus)
    np.testing.assert_array_equal(c, plus.alpha + plus.beta)
    back = solve_wsvm(data, spec, c, b_override=plus.b)
    probe = np.random.default_rng(0).normal(size=(50, data.d))
    np.testing.assert_allclose(predict(back, probe), plus.predict(probe),
                               atol=1e-6)


def _kernel(kind, log2_bandwidth):
    if kind == LINEAR:
        return KernelSpec(LINEAR)
    return KernelSpec(GAUSSIAN_RBF, 2.0**log2_bandwidth)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 200),
       duplicates=st.booleans(),
       kinds=st.tuples(*[st.sampled_from((LINEAR, GAUSSIAN_RBF))] * 2),
       log2_bandwidths=st.tuples(*[st.integers(-1, 1)] * 2),
       log2_C=st.integers(-2, 4), log2_gamma=st.integers(-2, 4))
def test_wsvm_built_from_svmplus_is_certified(seed, n, duplicates, kinds,
                                               log2_bandwidths, log2_C,
                                               log2_gamma):
    # the WSVM with weights alpha + beta has the SVM+ alpha as an optimal
    # dual, with the SVM+ offset: built without a solve, its own KKT
    # report certifies it, and it predicts with the SVM+ model's bits
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n)
    priv = random_privileged(rng, n)
    if duplicates:
        # about a third of the rows copy other rows, label and privileged
        # features included
        src = rng.integers(0, n, size=n)
        rows = rng.random(n) < 1 / 3
        take = np.where(rows, src, np.arange(n))
        y = data.y[take]
        if np.all(y == y[0]):
            take, y = np.arange(n), data.y
        data = Dataset(data.X[take], y)
        priv = PrivilegedSet(priv.X[take])
    spec, priv_spec = (_kernel(k, h) for k, h in zip(kinds, log2_bandwidths))
    plus = solve_svmplus(data, priv, spec, priv_spec, 2.0**log2_C,
                         2.0**log2_gamma)
    built = wsvm_from_svmplus(plus)
    report = check_wsvm_kkt(built, tol=1e-8)
    assert report.passed, report
    np.testing.assert_array_equal(built.alpha, plus.alpha)
    assert built.b == plus.b
    np.testing.assert_array_equal(built.c, plus.alpha + plus.beta)
    probe = rng.normal(size=(50, data.d))
    np.testing.assert_array_equal(predict(built, probe), plus.predict(probe))


@pytest.mark.parametrize("seed, n, kinds, log2_bandwidths, C, gamma", [
    (81, 4, (GAUSSIAN_RBF, GAUSSIAN_RBF), (0, -1), 4.0, 0.25),
    (524287, 3, (LINEAR, LINEAR), (0, 0), 4.0, 1.0),
    (52, 195, (GAUSSIAN_RBF, LINEAR), (1, 0), 16.0, 4.0),
], ids=["seed81", "seed524287", "seed52"])
def test_svmplus_fit_and_its_replay_certified(seed, n, kinds,
                                              log2_bandwidths, C, gamma):
    # examples of test_wsvm_built_from_svmplus_is_certified with duplicates
    # whose QP stopped at a gap within tol, but with complementarity errors
    # of the gap times alpha + beta: seed 81's SVM+ fit failed its own
    # report at 1.74e-8 and its replay at 3.48e-8 (alpha + beta up to 12),
    # seed 524287's replay at 1.1e-8 (up to 8) and seed 52's SVM+ fit at
    # 1.23e-6 on complementarity_margin (up to 551).  The core's polish at
    # the stop certifies all three
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n)
    priv = random_privileged(rng, n)
    src = rng.integers(0, n, size=n)
    take = np.where(rng.random(n) < 1 / 3, src, np.arange(n))
    assert not np.all(data.y[take] == data.y[take][0])
    data = Dataset(data.X[take], data.y[take])
    priv = PrivilegedSet(priv.X[take])
    spec, priv_spec = (_kernel(k, h) for k, h in zip(kinds, log2_bandwidths))
    plus = solve_svmplus(data, priv, spec, priv_spec, C, gamma)
    own = check_svmplus_kkt(plus, tol=1e-8)
    replay = check_wsvm_kkt(wsvm_from_svmplus(plus), tol=1e-8)
    assert own.passed and replay.passed, (own, replay)


def test_family_membership_three_point_instance():
    model, c = three_point_model()
    # alpha* = (4, 6, 2), xi* = (0, 0, 4): members must match the dual on
    # the positive-slack point and dominate it on the zero-slack points
    assert family_membership(c, model)
    assert family_membership(np.array([5.0, 7.0, 2.0]), model)
    assert not family_membership(np.array([4.0, 6.0, 3.0]), model)
    assert not family_membership(np.array([3.0, 6.0, 2.0]), model)
    assert not family_membership(np.array([4.0, -1.0, 2.0]), model)
    with pytest.raises(ValueError, match="length"):
        family_membership(np.ones(4), model)
    for bad in ([np.nan, 6.0, 2.0], [4.0, np.inf, 2.0], [4.0, 6.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            family_membership(np.array(bad), model)


def test_family_membership_unique_dual_fast_path(rng):
    n = 6
    data = random_dataset(rng, n, d=6)
    spec = KernelSpec("gaussian-rbf", 1.0)  # distinct points: PD Gram
    c = rng.uniform(0.5, 2.0, n)
    model = solve_wsvm(data, spec, c, tol=1e-10)
    assert family_membership(model.c, model)
    bumped = model.c.copy()
    bumped[model.xi <= 1e-6] += 1.0  # extra weight on zero-slack points only
    assert family_membership(bumped, model)


def test_family_membership_rank_deficient_gram():
    # a 1-D linear Gram has rank 1, so the dual is not unique: a member's
    # dual may move on the margin points, an outsider's cannot reach w*
    data = Dataset([[-2.0], [-1.0], [-0.2], [1.0], [2.0], [0.3], [-0.6],
                    [0.7]], [-1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    spec = KernelSpec(LINEAR)
    c = np.ones(data.n)
    model = solve_wsvm(data, spec, c)
    assert not dual_uniqueness_condition(gram(spec, data), data.y)
    zero_slack = model.xi <= 1e-6
    assert zero_slack.any() and not zero_slack.all()
    member = c + 0.5 * zero_slack  # extra weight on zero-slack points only
    assert family_membership(member, model)
    # a member's own fit gives the same function on the training points
    again = solve_wsvm(data, spec, member)
    np.testing.assert_allclose(again.decision_train - again.b,
                               model.decision_train - model.b, atol=1e-6)
    outsider = c.copy()
    outsider[np.flatnonzero(~zero_slack)[0]] += 0.5
    assert not family_membership(outsider, model)
    again = solve_wsvm(data, spec, outsider)
    assert np.max(np.abs((again.decision_train - again.b)
                         - (model.decision_train - model.b))) > 1e-3


def test_family_membership_false_member_beyond_the_margin():
    # w* = -4/3, b* = -31/15: point 0 lies strictly beyond the margin
    # (y f = 2.6), so every dual of (w*, b*) is 0 there.  Raising the
    # weight of the margin-violated point 2 would then need more than c_1
    # on point 1, and the optimum moves: a refit has w = -20/27 and
    # objective 3.8299, against 4.0889 at the model's solution
    data = Dataset([[0.4], [-0.8], [-0.7], [-2.3]], [-1.0, -1.0, 1.0, 1.0])
    spec = KernelSpec(LINEAR)
    model = solve_wsvm(data, spec, np.array([1.0, 2.0, 1.0, 2.0]))
    np.testing.assert_allclose(model.coef @ data.X, [-4.0 / 3.0])
    assert model.b == pytest.approx(-31.0 / 15.0)
    candidate = np.array([1.0, 2.0, 1.5, 2.0])
    assert not family_membership(candidate, model)
    again = solve_wsvm(data, spec, candidate, tol=1e-12)
    np.testing.assert_allclose(again.coef @ data.X, [-20.0 / 27.0])
    at_model = 0.5 * float(model.coef @ model.f0) + candidate @ model.xi
    assert again.objective_primal == pytest.approx(3.8299, abs=1e-4)
    assert at_model == pytest.approx(4.0889, abs=1e-4)


def test_family_membership_false_outsider_off_the_margin():
    # w* = -1.25, b* = 0.75, xi* = (0, 1.375, 0): raising the weight of
    # the margin-violated point changes 1'mu but not the optimum, which a
    # refit finds again
    data = Dataset([[-0.2], [0.9], [1.4]], [1.0, 1.0, -1.0])
    spec = KernelSpec(LINEAR)
    model = solve_wsvm(data, spec, np.array([2.0, 1.0, 2.0]))
    np.testing.assert_allclose(model.coef @ data.X, [-1.25])
    assert model.b == pytest.approx(0.75)
    np.testing.assert_allclose(model.xi, [0.0, 1.375, 0.0], atol=1e-12)
    candidate = np.array([2.0, 1.5, 2.0])
    assert family_membership(candidate, model)
    again = solve_wsvm(data, spec, candidate, tol=1e-12)
    np.testing.assert_allclose(again.coef @ data.X, [-1.25])
    assert again.b == pytest.approx(0.75)


def test_family_membership_matches_a_refit():
    # a candidate is a member exactly when the model's primal objective
    # under it is the refit's optimum.  On these 1-D linear fits with ties
    # (531 members of 630 candidates), members agree within 1.2e-15
    # relative and outsiders differ by 1.7e-6 or more
    rng = np.random.default_rng(2024)
    spec = KernelSpec(LINEAR)
    decisions = []
    for _ in range(70):
        n = int(rng.integers(5, 25))
        data = random_dataset(rng, n, d=1)
        data = Dataset(np.round(data.X, 1), data.y)
        c = rng.choice([0.5, 1.0, 2.0], n)
        model = solve_wsvm(data, spec, c, tol=1e-10)
        zero_slack = model.xi <= 1e-6
        candidates = [c, c + 0.5 * zero_slack,
                      c + rng.uniform(0.0, 1.0, n) * zero_slack]
        for i in rng.choice(n, 3, replace=False):
            candidates.append(c + 0.5 * (np.arange(n) == i))
        for i in rng.choice(n, 3, replace=False):
            candidates.append(c * np.where(np.arange(n) == i, 0.5, 1.0))
        quad = float(model.coef @ model.f0)
        for candidate in candidates:
            optimum = solve_wsvm(data, spec, candidate,
                                 tol=1e-12).objective_primal
            at_model = 0.5 * quad + float(candidate @ model.xi)
            truth = abs(at_model - optimum) <= 1e-9 * abs(optimum)
            decisions.append((family_membership(candidate, model), truth))
    got, truth = np.array(decisions).T
    assert truth.any() and not truth.all()
    np.testing.assert_array_equal(got, truth)


def test_rho_zero_soft_margin_branch(rng):
    # gamma = 0 with a full-rank privileged design: the weighted and plain
    # average losses agree (rho = 0), and alpha + beta = C on every point
    n = 6
    data = random_dataset(rng, n)
    plus = solve_svmplus(data, PrivilegedSet(np.eye(n)), KernelSpec(LINEAR),
                         KernelSpec(LINEAR), 2.0, 0.0)
    ab = plus.alpha + plus.beta
    _, norm = rho(ab, plus.h)
    assert norm is not None
    assert abs(norm) <= 1e-6 * (1.0 + abs(float(np.mean(plus.h))))
    np.testing.assert_allclose(ab, plus.C, rtol=0, atol=1e-6)


def test_equivalence_report_text():
    model, c = three_point_model()
    report = equivalence_report(model, candidate=c)
    text = report.to_text()
    assert "rho_unnormalized -8" in text
    assert "necessary_condition 0" in text
    assert "constructed none" in text
    assert "family_membership 1" in text


def test_equivalence_report_on_representable_fit():
    # weights (4, 6, 4) on the three-point instance: xi* = (0, 2, 0) and
    # rho = 8/3 > 0, so the report carries the constructed features
    data, _ = counterexample_dataset()
    model = solve_wsvm(data, KernelSpec(LINEAR), np.array([4.0, 6.0, 4.0]))
    report = equivalence_report(model)
    assert report.necessary_condition_holds
    assert report.rho_unnormalized == pytest.approx(8.0 / 3.0)
    built = construct_privileged(model)
    for name in ("C", "gamma", "w_tilde", "b_tilde"):
        assert getattr(report.constructed, name) == getattr(built, name)
    np.testing.assert_array_equal(report.constructed.priv.X, built.priv.X)
    assert built.C == pytest.approx(14.0 / 3.0)
    assert built.gamma == report.rho_unnormalized
    assert built.b_tilde == pytest.approx(6.0 / 7.0)
    lines = report.to_text().splitlines()
    assert [line.split()[0] for line in lines[3:]] == [
        "constructed_C", "constructed_gamma", "constructed_b_tilde",
        "constructed_w_tilde"]
    assert lines[3] == f"constructed_C {built.C:.17g}"
    assert lines[6] == "constructed_w_tilde 1"
