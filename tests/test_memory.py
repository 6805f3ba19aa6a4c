"""Peak and retained memory of the Gram-derived matrices, measured with
tracemalloc.

numpy reports its data buffers to tracemalloc, so a peak is the largest
number of bytes allocated at once during the call, in units of one dense
n x n float64 matrix.  Each bound leaves the one block of rows that the
squared-distance pass allocates (256 of n rows) and small vectors; a
second n x n temporary would break it.  What a fitted model retains is
counted in the same units: it holds n-vectors only, so a single Gram kept
alive would break its bound.
"""

import tracemalloc

import numpy as np
import pytest

from privsvm import (
    GAUSSIAN_RBF,
    KernelSpec,
    gram,
    nadaraya_watson,
    predict,
    solve_svmplus,
    solve_wsvm,
)
from privsvm import svmplus
from privsvm.experiments import bandwidth_grid, generate_w_mixture

from conftest import random_dataset, random_privileged


def _peak(call, n):
    """Peak bytes allocated by ``call()``, in units of 8 n^2."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return peak / (8.0 * n * n)


def _retained(call, n):
    """Bytes still allocated while ``call()``'s result is alive, in units
    of 8 n^2."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()  # noqa: F841 (kept alive while measuring)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        if started:
            tracemalloc.stop()
    return kept / (8.0 * n * n)


@pytest.fixture(scope="module")
def mixture():
    return generate_w_mixture(1000, seed=1).data


def test_rbf_gram_one_buffer(mixture):
    spec = KernelSpec(GAUSSIAN_RBF, 1.0)
    assert _peak(lambda: gram(spec, mixture), mixture.n) <= 1.35


def test_nadaraya_watson_streams_query_blocks(mixture):
    # one block of at most 2^17 entries (131 queries against the 1000
    # training points), plus its outer-sum buffer of the same size, is
    # 0.28 n^2; a block kept alive while the next is built, or a whole
    # query x train buffer, breaks the bound
    assert _peak(lambda: nadaraya_watson(mixture, bandwidth=0.5),
                 mixture.n) <= 0.35
    # the two buffers hold 2 MiB at any n, 0.03 n^2 at n = 3000; blocks of
    # 256 rows, as up to 512 training points, took 0.17 n^2
    large = generate_w_mixture(3000, seed=1).data
    assert _peak(lambda: nadaraya_watson(large, bandwidth=0.5),
                 large.n) <= 0.05


def test_bandwidth_grid_selects_the_triangle_by_mask(mixture):
    # the squared distances (n^2), a boolean mask of the upper triangle
    # (n^2 / 8) and the n^2 / 2 selected distances make 1.63 n^2; the two
    # int64 index arrays of np.triu_indices took it to 2.5 n^2
    assert _peak(lambda: bandwidth_grid(mixture.X), mixture.n) <= 1.75


def test_solve_wsvm_peak_below_half_gram(mixture):
    # above 256 points solve_wsvm computes only the rows of Q that the QP
    # core reads, about 100 of 1000 here, so a whole Gram breaks the bound
    spec = KernelSpec(GAUSSIAN_RBF, 1.0)
    c = np.ones(mixture.n)
    assert _peak(lambda: solve_wsvm(mixture, spec, c), mixture.n) <= 0.5


def test_predict_peak_does_not_grow_with_points(mixture):
    # the points go through 256 at a time, each block in one n x 256
    # matrix with the support's rows filled in: 0.32 n^2 for 1000 or 4000
    # points, where one n x m matrix took 1.21 and 4.76 n^2
    spec = KernelSpec(GAUSSIAN_RBF, 1.0)
    model = solve_wsvm(mixture, spec, np.ones(mixture.n))
    for m in (1000, 4000):
        points = generate_w_mixture(m, seed=2).data
        assert _peak(lambda: predict(model, points), mixture.n) <= 0.6


class _Stop(Exception):
    pass


def _svmplus_inputs():
    rng = np.random.default_rng(4)
    n = 502
    data, priv = random_dataset(rng, n), random_privileged(rng, n)
    return data, priv, KernelSpec(GAUSSIAN_RBF, 1.0)


def test_svmplus_setup_streams_the_linear_term(monkeypatch):
    # above 256 points the QP core gets a row view over two row sources,
    # Q and Kt, that start empty, and the linear term Kt (C/g) 1 is summed
    # 256 points at a time: one n x 256 block, its Gram and one block of
    # the outer sum, 1.36 n^2 at n = 502 (2.58 n^2 with dense Q and Kt);
    # the setup ends where the core would start, so a stub in its place
    # stops the fit there
    def stub(*args):
        raise _Stop

    monkeypatch.setattr(svmplus, "solve_qp", stub)
    data, priv, spec = _svmplus_inputs()

    def setup():
        with pytest.raises(_Stop):
            solve_svmplus(data, priv, spec, spec, 1.0, 1.0)

    assert _peak(setup, data.n) <= 1.5


def test_svmplus_fit_peak():
    # a whole fit: the rows of Q and Kt that the core read (about 400 of
    # 502 each here) plus the largest face step, its |F| x 2n rows of H
    # and a few |F| x |F| blocks (|F| = 218 of the 1004 variables); 3.84
    # n^2 in all, 4.12 n^2 with dense Q and Kt and 14.8 n^2 with a dense
    # 2n x 2n H
    data, priv, spec = _svmplus_inputs()

    def fit():
        solve_svmplus(data, priv, spec, spec, 1.0, 1.0)

    assert _peak(fit, data.n) <= 4.0


def test_fitted_wsvm_holds_no_gram(mixture):
    spec = KernelSpec(GAUSSIAN_RBF, 1.0)
    c = np.ones(mixture.n)
    assert _retained(lambda: solve_wsvm(mixture, spec, c), mixture.n) <= 0.05


def test_fitted_svmplus_holds_no_gram(monkeypatch):
    # the QP core's iterates do not change what the model keeps, so a stub
    # that returns the feasible start (a = 0, b = C) stands in for it
    monkeypatch.setattr(svmplus, "solve_qp",
                        lambda H, q, A, upper, z0, tol, max_iter: (z0, 0))
    rng = np.random.default_rng(4)
    n = 502
    data, priv = random_dataset(rng, n), random_privileged(rng, n)
    spec = KernelSpec(GAUSSIAN_RBF, 1.0)
    assert _retained(lambda: solve_svmplus(data, priv, spec, spec, 1.0, 1.0),
                     n) <= 0.05
