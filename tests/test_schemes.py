import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsvm import Dataset, nadaraya_watson, probability_weights
from privsvm.kernels import _BLOCK_ROWS


def test_confidence_scores_validation():
    # probability_weights takes eta within 1e-12 of [-1, 1] as given, and
    # rejects anything farther out or non-finite
    y = np.array([1.0, -1.0])
    w = probability_weights(np.array([1.0 + 5e-13, -1.0]), y, tau=1.0)
    np.testing.assert_array_equal(w, 0.5 * (1.0 + y * [1.0 + 5e-13, -1.0]))
    for bad in (1.5, -1.0 - 1e-11, np.nan, np.inf):
        with pytest.raises(ValueError, match="confidence"):
            probability_weights(np.array([bad]), np.array([1.0]))


def test_nadaraya_watson_closed_form():
    train = Dataset([[0.0], [1.0], [2.0]], [1.0, 1.0, -1.0])
    eta = nadaraya_watson(train, queries=[[0.0]], bandwidth=1.0)
    e1, e2 = np.exp(-0.5), np.exp(-2.0)
    expected = (1.0 + e1 - e2) / (1.0 + e1 + e2)
    assert eta[0] == pytest.approx(expected, abs=1e-15)


def test_nadaraya_watson_defaults_to_training_inputs():
    train = Dataset([[0.0], [1.0]], [1.0, -1.0])
    eta = nadaraya_watson(train, bandwidth=0.5)
    assert eta.shape == (2,)
    assert np.all(np.abs(eta) <= 1.0)


def test_nadaraya_watson_underflow_guard():
    train = Dataset([[0.0], [1.0]], [1.0, -1.0])
    # every kernel weight exp(-(1e6)^2 / 2) underflows to zero
    eta = nadaraya_watson(train, queries=[[1e6]], bandwidth=1.0)
    assert np.all(np.isfinite(eta))
    # the nearest neighbour dominates after the shift
    assert eta[0] == pytest.approx(-1.0, abs=1e-12)


def _nadaraya_watson_textbook(X, y, E, bandwidth):
    sq = (np.sum(E * E, axis=1)[:, None] + np.sum(X * X, axis=1)[None, :]
          - 2.0 * (E @ X.T))
    np.maximum(sq, 0.0, out=sq)
    row_min = sq.min(axis=1)
    underflow = bool(np.any(np.exp(-row_min / (2.0 * bandwidth**2)) == 0.0))
    sq -= row_min[:, None]
    W = np.exp(-sq / (2.0 * bandwidth**2))
    return np.clip((W @ y) / W.sum(axis=1), -1.0, 1.0), underflow


@pytest.mark.parametrize("case", ["square", "cross", "underflow"])
def test_nadaraya_watson_bitwise_textbook_formula(case):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 2))
    y = np.where(rng.random(300) < 0.5, -1.0, 1.0)
    E = X if case == "square" else rng.normal(size=(280, 2))
    bandwidth = 0.4
    if case == "underflow":
        E = E * 50.0
        bandwidth = 0.05
    if case == "square":
        # the queries stream through _BLOCK_ROWS at a time, and a block's
        # product with X is a general one, not the symmetric X @ X.T
        blocks = [_nadaraya_watson_textbook(X, y, E[s:s + _BLOCK_ROWS],
                                            bandwidth)
                  for s in range(0, len(E), _BLOCK_ROWS)]
        eta = np.concatenate([part for part, _ in blocks])
        underflow = any(under for _, under in blocks)
    else:
        eta, underflow = _nadaraya_watson_textbook(X, y, E, bandwidth)
    queries = None if case == "square" else E
    np.testing.assert_array_equal(
        nadaraya_watson(Dataset(X, y), queries, bandwidth=bandwidth), eta)
    # the case's name says whether some row's weights all underflow
    assert underflow == (case == "underflow")


def test_nadaraya_watson_validation():
    # an infinite bandwidth would give every kernel weight 1, so the
    # estimate would be the label mean, 0.5, at every point
    train = Dataset([[0.0], [1.0], [2.0], [3.0]], [1.0, 1.0, -1.0, 1.0])
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="bandwidth"):
            nadaraya_watson(train, bandwidth=bad)


def test_probability_weights_tau_grid():
    y = np.array([1.0, -1.0, 1.0])
    eta = np.array([0.8, 0.8, -1.0])
    w0 = probability_weights(eta, y, tau=0.0)
    np.testing.assert_array_equal(w0, 1.0)  # 0^0 = 1 convention included
    w1 = probability_weights(eta, y, tau=1.0)
    np.testing.assert_allclose(w1, [0.9, 0.1, 0.0], atol=1e-15)
    w2 = probability_weights(eta, y, tau=2.0)
    np.testing.assert_allclose(w2, [0.81, 0.01, 0.0], atol=1e-15)
    for bad in (-1.0, np.nan, np.inf):  # NaN would give NaN weights
        with pytest.raises(ValueError, match="tau"):
            probability_weights(eta, y, tau=bad)
    with pytest.raises(ValueError, match="length"):
        probability_weights(eta[:2], y)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.0, max_value=6.0))
def test_probability_weights_range_and_monotonicity(n, seed, tau):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    eta = rng.uniform(-1.0, 1.0, n)
    w = probability_weights(eta, y, tau)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    w_sharper = probability_weights(eta, y, tau + 1.0)
    assert np.all(w_sharper <= w + 1e-12)
