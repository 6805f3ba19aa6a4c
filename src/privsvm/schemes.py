"""Turning label-confidence estimates into instance weights.

The conditional label expectation eta(x) = E[y | x] is either supplied
(synthetic data with a known posterior) or estimated from privileged
features by Nadaraya-Watson smoothing over a Dataset of privileged inputs
and training labels.  The probability of the observed label,
w_i = (1 + y_i eta_i) / 2, is then sharpened or flattened into weights
c_i = w_i^tau.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .kernels import _block_rows, _sq_dists

__all__ = [
    "nadaraya_watson",
    "probability_weights",
]


def nadaraya_watson(train: Dataset, queries=None,
                    bandwidth: float = 1.0) -> np.ndarray:
    """Kernel-regression estimate of E[y | x] with the Gaussian kernel
    exp(-||x - x'||^2 / (2 h^2)), clipped to [-1, 1].

    ``queries`` defaults to the training inputs themselves.  Where every
    kernel weight would underflow to zero the estimate is still a weighted
    label average: each row's distances are shifted by their minimum, so
    the nearest point keeps weight 1 (far from the data, the estimate is
    its label).  The queries stream through in blocks of at most
    ``kernels._BLOCK_ENTRIES`` entries: ``_BLOCK_ROWS`` = 256 rows up to
    512 training points, fewer above that, and never less than one.  Each
    block's weights are built in one block x train buffer of squared
    distances from the training set's cached norms; every block reuses
    that buffer and the one of its outer sum, so the working memory grows
    neither with the queries nor with the training set.
    """
    if not 0 < bandwidth < np.inf:
        raise ValueError("bandwidth must be positive and finite")
    E = train.X if queries is None else np.atleast_2d(
        np.asarray(queries, dtype=float))
    eta = np.empty(E.shape[0])
    block = _block_rows(train.n)
    # every block reuses one buffer for its squared distances and one for
    # their outer sum of norms
    sq = np.empty((min(E.shape[0], block), train.n))
    work = np.empty_like(sq)
    for start in range(0, E.shape[0], block):
        blk = slice(start, start + block)
        rows = len(E[blk])
        d2 = _sq_dists(E[blk], train, sq[:rows], work[:rows])
        # subtract the row minimum before exponentiating so at least one
        # weight per row survives in double precision; the ratio is unchanged
        d2 -= d2.min(axis=1)[:, None]
        np.divide(d2, -(2.0 * bandwidth**2), out=d2)
        W = np.exp(d2, out=d2)
        eta[blk] = (W @ train.y) / W.sum(axis=1)
    return np.clip(eta, -1.0, 1.0)


def probability_weights(eta, y, tau: float = 1.0) -> np.ndarray:
    """Weights c_i = w_i^tau with w_i = (1 + y_i eta_i) / 2.

    tau = 0 gives uniform weights (0^0 = 1 by convention), tau = 1 the
    plain label probabilities; larger tau suppresses doubtful labels
    harder; tau must be finite.  Each eta_i must be finite with
    |eta_i| <= 1 + 1e-12; it is used as given, not clipped.
    """
    eta = np.asarray(eta, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if np.any(np.abs(eta) > 1.0 + 1e-12) or not np.all(np.isfinite(eta)):
        raise ValueError("confidence scores must lie in [-1, 1]")
    if eta.shape != y.shape:
        raise ValueError("eta/label length mismatch")
    if not 0 <= tau < np.inf:
        raise ValueError("tau must be finite and nonnegative")
    w = 0.5 * (1.0 + y * eta)
    return w**tau

