import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsvm import (Dataset, KernelSpec, LINEAR, GAUSSIAN_RBF, PrimalModel,
                     gram, kernels, predict, solve_primal, solve_svmplus,
                     solve_wsvm)
from privsvm.kernels import _KernelRows, _sq_dists, expand

from conftest import random_dataset, random_kernel, random_privileged


def test_linear_gram_is_outer_product():
    X = np.array([[1.0], [2.0], [3.0]])
    G = gram(KernelSpec(LINEAR), X)
    np.testing.assert_array_equal(G, np.outer([1, 2, 3], [1, 2, 3]))


def test_rbf_unit_diagonal_and_range():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3))
    G = gram(KernelSpec(GAUSSIAN_RBF, 1.3), X)
    np.testing.assert_allclose(np.diag(G), 1.0, atol=1e-15)
    assert np.all(G > 0) and np.all(G <= 1.0)


def test_rbf_known_value():
    X = np.array([[0.0], [2.0]])
    G = gram(KernelSpec(GAUSSIAN_RBF, 1.0), X)
    assert G[0, 1] == pytest.approx(np.exp(-2.0), rel=1e-15)


def test_gram_accepts_dataset():
    data = Dataset([[0.0], [1.0]], [1.0, -1.0])
    G = gram(KernelSpec(LINEAR), data)
    np.testing.assert_array_equal(G, [[0.0, 0.0], [0.0, 1.0]])


def test_cross_gram_shape_and_consistency():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(5, 2))
    B = rng.normal(size=(3, 2))
    spec = KernelSpec(GAUSSIAN_RBF, 0.8)
    G = gram(spec, A, B)
    assert G.shape == (5, 3)
    full = gram(spec, np.vstack([A, B]))
    np.testing.assert_allclose(G, full[:5, 5:], atol=1e-15)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension"):
        gram(KernelSpec(LINEAR), np.ones((2, 2)), np.ones((2, 3)))


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("poly")
    with pytest.raises(ValueError):
        KernelSpec(GAUSSIAN_RBF)
    with pytest.raises(ValueError):
        KernelSpec(GAUSSIAN_RBF, -1.0)
    # an infinite bandwidth would make a constant kernel
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite bandwidth"):
            KernelSpec(GAUSSIAN_RBF, bad)


def test_spec_describe():
    # the kernel line of a model file: the bandwidth to 17 digits
    assert KernelSpec(LINEAR).describe() == "linear"
    assert (KernelSpec(GAUSSIAN_RBF, 0.1).describe()
            == "gaussian-rbf 0.10000000000000001")


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.3, max_value=3.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_gram_symmetric_psd(n, d, bandwidth, seed):
    # gram does not symmetrise: exact symmetry must come from the product
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    data = Dataset(X, np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
    for spec in (KernelSpec(LINEAR), KernelSpec(GAUSSIAN_RBF, bandwidth)):
        G = gram(spec, data)
        np.testing.assert_array_equal(G, G.T)
        G = gram(spec, X)
        np.testing.assert_array_equal(G, G.T)
        eig = np.linalg.eigvalsh(G)
        assert eig.min() >= -1e-9 * max(1.0, eig.max())


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.3, max_value=3.0),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rbf_gram_bitwise_textbook_formula(n, m, d, bandwidth, square, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d))
    B = A if square else rng.normal(size=(m, d))
    sq = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * (A @ B.T))
    expected = np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth**2))
    spec = KernelSpec(GAUSSIAN_RBF, bandwidth)
    G = gram(spec, A) if square else gram(spec, A, B)
    np.testing.assert_array_equal(G, expected)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
@pytest.mark.parametrize("square", [True, False])
def test_blocked_sq_dists_bitwise_textbook_formula(n, square):
    # the rows are rewritten 256 at a time: sizes on and around a block edge
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, 3))
    B = A if square else rng.normal(size=(n + 3, 3))
    sq = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * (A @ B.T))
    np.testing.assert_array_equal(_sq_dists(A, B), np.maximum(sq, 0.0))
    spec = KernelSpec(GAUSSIAN_RBF, 0.7)
    G = gram(spec, A) if square else gram(spec, A, B)
    np.testing.assert_array_equal(
        G, np.exp(-np.maximum(sq, 0.0) / (2.0 * 0.7**2)))
    if square:
        np.testing.assert_array_equal(G, G.T)


def _assert_blockwise_sum(f, spec, data, points, weights, offset):
    # each block of 256 points has the bits of its own product, and the
    # whole agrees with the full product to 1e-12 of the sum of magnitudes
    P = points.X
    for start in range(0, len(P), 256):
        blk = slice(start, start + 256)
        np.testing.assert_array_equal(
            f[blk], gram(spec, data, P[blk]).T @ weights + offset)
    K = gram(spec, data, points)
    bound = 1e-12 * (np.abs(K).T @ np.abs(weights) + abs(offset))
    assert np.all(np.abs(f - (K.T @ weights + offset)) <= bound)


@pytest.mark.parametrize("n, m", [(200, 150), (300, 150), (200, 700),
                                  (300, 700), (200, 1000), (300, 1000)],
                         ids=["200", "300", "200-700", "300-700", "200-1000",
                              "300-1000"])
@pytest.mark.parametrize("spec", [KernelSpec(LINEAR),
                                  KernelSpec(GAUSSIAN_RBF, 0.8)],
                         ids=["linear", "rbf"])
def test_expand_has_the_bits_of_the_full_sum(n, m, spec):
    # the kernel is evaluated at the nonzero coefficients only, yet the sum
    # runs over all n in the order of the full product: the zero rows add
    # +-0 (a linear kernel has negative entries, so the full product's
    # terms there are -0 too).  Up to 256 points that is the full product
    # bit for bit; above, the points go through in blocks of 256, the last
    # one partial at m = 700 and 1000
    rng = np.random.default_rng(n)
    data, points = random_dataset(rng, n), random_dataset(rng, m)
    # labels with a margin, so that each fit leaves points outside it
    data = Dataset(data.X, np.where(data.X[:, 0] > 0, 1.0, -1.0))
    coef = np.where(rng.random(n) < 0.8, 0.0, rng.normal(size=n))
    K = gram(spec, data, points)
    if m <= 256:
        np.testing.assert_array_equal(expand(spec, data, coef, points),
                                      K.T @ coef)
    _assert_blockwise_sum(expand(spec, data, coef, points), spec, data,
                          points, coef, 0.0)
    wsvm = solve_wsvm(data, spec, rng.uniform(0.1, 2.0, n))
    plus = solve_svmplus(data, random_privileged(rng, n), spec, spec,
                         1.0, 1.0)
    primal = solve_primal(data, spec, np.ones(n), 0.1)
    for model, weights, f in [
            (wsvm, data.y * wsvm.alpha, predict(wsvm, points)),
            (plus, data.y * plus.alpha, plus.predict(points)),
            (primal, primal.alpha, primal.predict(points.X))]:
        assert 0 < np.count_nonzero(weights) < n
        if m <= 256:
            np.testing.assert_array_equal(f, K.T @ weights + model.b)
        _assert_blockwise_sum(f, spec, data, points, weights, model.b)


def _two_point_wsvm(rng):
    return solve_wsvm(Dataset([[0.0], [1.0]], [-1.0, 1.0]),
                      KernelSpec(LINEAR), [10.0, 10.0])


def _random_svmplus(rng):
    n = int(rng.integers(3, 12))
    data = random_dataset(rng, n)
    priv = random_privileged(rng, n)
    C = float(2.0 ** rng.uniform(-2, 2))
    gamma = float(2.0 ** rng.uniform(-1, 3))
    return solve_svmplus(data, priv, random_kernel(rng), random_kernel(rng),
                         C, gamma, tol=1e-9)


def _random_primal(rng):
    data = random_dataset(rng, 6)
    return solve_primal(data, random_kernel(rng), np.ones(6), 1.0)


@pytest.mark.parametrize("fit, atol", [(_two_point_wsvm, 1e-12),
                                       (_random_svmplus, 1e-10),
                                       (_random_primal, 1e-10)],
                         ids=["wsvm", "svmplus", "primal"])
def test_predict_matches_decision_train(fit, atol, rng):
    # predict sums the expansion over the support by blocks of points, the
    # solve summed K coef over its own rows: equal up to rounding
    model = fit(rng)
    np.testing.assert_allclose(model.predict(model.data.X),
                               model.decision_train, atol=atol)


@pytest.mark.parametrize("spec", [KernelSpec(LINEAR),
                                  KernelSpec(GAUSSIAN_RBF, 1.0)],
                         ids=["linear", "rbf"])
def test_hand_built_primal_model_has_the_solved_bits(spec, rng):
    # built from a solved model's keywords, without f0, a PrimalModel
    # computes f0 = K alpha as the solve's objective did
    data = random_dataset(rng, 30)
    points = random_dataset(rng, 20)
    for delta in (0.01, 0.1, 1.0):
        solved = solve_primal(data, spec, rng.uniform(0.5, 2.0, 30), delta)
        copy = PrimalModel(data=data, spec=spec, c=solved.c, delta=delta,
                           alpha=solved.alpha, b=solved.b,
                           objective=solved.objective)
        np.testing.assert_array_equal(copy.decision_train,
                                      solved.decision_train)
        np.testing.assert_array_equal(copy.predict(points),
                                      solved.predict(points))


def _row_source(n, signed):
    rng = np.random.default_rng(n)
    data = random_dataset(rng, n)
    return data, _KernelRows(KernelSpec(GAUSSIAN_RBF, 0.8), data,
                             data.y if signed else None)


@pytest.mark.parametrize("signed", [False, True], ids=["K", "Q"])
@pytest.mark.parametrize("n", [40, 300])
def test_row_source_gram_calls(n, signed, monkeypatch):
    # up to 256 points the row source holds the whole matrix, made by one
    # gram call, gram(spec, data), exactly symmetric; above that each
    # request with rows it has not seen is one gram call over those rows,
    # in request order
    calls = []
    full = kernels.gram
    monkeypatch.setattr(kernels, "gram", lambda spec, a, b=None:
                        calls.append(a) or full(spec, a, b))
    data, rows = _row_source(n, signed)
    spec = rows.spec
    signs = np.outer(data.y, data.y) if signed else np.ones((n, n))
    requests = [[3], [5, 3, 8], [8, 3]]
    taken = [rows.take(r, 0) for r in requests]
    if n <= 256:
        assert calls == [data]
        whole = signs * full(spec, data)
        np.testing.assert_array_equal(whole, whole.T)
        for r, got in zip(requests, taken):
            np.testing.assert_array_equal(got, whole[r])
    else:
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0], data.X[[3]])
        np.testing.assert_array_equal(calls[1], data.X[[5, 8]])
        fills = dict(zip([3, 5, 8], [*full(spec, data.X[[3]], data),
                                     *full(spec, data.X[[5, 8]], data)]))
        for r, got in zip(requests, taken):
            np.testing.assert_array_equal(got,
                                          signs[r] * [fills[i] for i in r])


@pytest.mark.parametrize("signed", [False, True], ids=["K", "Q"])
@pytest.mark.parametrize("n", [40, 300])
def test_row_source_products(n, signed):
    # dot(coef) is the whole matrix times coef, or, above 256 points, the
    # sum of the computed rows when they hold every nonzero coefficient's
    # row, and otherwise a kernel expansion, which computes no row
    data, rows = _row_source(n, signed)
    y = data.y if signed else np.ones(n)
    coef = np.zeros(n)
    coef[[3, 5, 8]] = (0.5, -2.0, 1.25)
    rows.take([3, 5, 8], 0)
    if n <= 256:
        whole = np.outer(y, y) * gram(rows.spec, data)
        np.testing.assert_array_equal(rows.dot(coef), whole @ coef)
        return
    np.testing.assert_array_equal(rows.dot(coef),
                                  coef[[3, 5, 8]] @ rows.take([3, 5, 8], 0))
    coef[11] = 3.0
    np.testing.assert_array_equal(
        rows.dot(coef), y * expand(rows.spec, data, y * coef, data))
    assert sorted(rows.rows) == [3, 5, 8]


@pytest.mark.parametrize("container", ["dataset", "privileged"])
def test_second_fill_reads_the_cached_squared_norms(container, monkeypatch):
    # each fill above 256 points needs the squared norms of all n points;
    # a Dataset and a PrivilegedSet compute them once and keep them
    n = 300
    rng = np.random.default_rng(7)
    points = (random_dataset(rng, n) if container == "dataset"
              else random_privileged(rng, n))
    norms = []
    sq_norms = kernels._sq_norms

    def spy(a, A):
        out = sq_norms(a, A)
        if a is points:
            norms.append(out)
        return out

    monkeypatch.setattr(kernels, "_sq_norms", spy)
    rows = _KernelRows(KernelSpec(GAUSSIAN_RBF, 1.0), points)
    rows.take([4], 0)
    rows.take([9, 2], 0)
    assert len(norms) == 2 and norms[1] is norms[0]
    np.testing.assert_array_equal(norms[0],
                                  np.sum(points.X * points.X, axis=1))
    with pytest.raises(ValueError):
        norms[0][0] = 0.0
