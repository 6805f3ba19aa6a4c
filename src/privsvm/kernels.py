"""Kernel functions and Gram-matrix construction.

The Gaussian RBF kernel is parametrized as

    k(x, x') = exp(-||x - x'||^2 / (2 h^2))

with bandwidth h > 0; this convention is shared by the solvers, the
Nadaraya-Watson estimator, and the CLI config format.

The squared distances behind the RBF Gram, the Nadaraya-Watson weights
and the bandwidth grid come from one helper, ``_sq_dists``.  It works in
the buffer of the inner products, a block of rows at a time, so an n x m
Gram costs one n x m buffer plus one block of rows.  Nadaraya-Watson
streams its queries through one such buffer and one outer-sum block of
at most ``_BLOCK_ENTRIES`` = 2^17 entries each: ``_BLOCK_ROWS`` rows up
to 512 training points, and fewer above that.  An operand that is a
Dataset or a PrivilegedSet brings its cached squared norms, so a Gram of
a few rows against a training set does not recompute the norms of all
its points.

Both duals read K, or Q = YKY, through one row source, ``_KernelRows``,
the only code that switches on the problem's size: whole up to
``_BLOCK_ROWS`` points, where a fill of a few rows costs as much as the
Gram, and above that each row computed on first use.  A grid search
builds each kernel candidate's whole matrix once and hands it to every
fit, which wraps it in a source of its own; above ``_BLOCK_ROWS`` there
is none, and each fit computes its own rows.

Every prediction, and a large row source's product over rows it has not
computed, is a kernel expansion sum_j coef_j k(a_j, x), computed by
``expand``: the kernel is evaluated only at the nonzero coefficients, but
the sum runs over every coefficient, zeros included, in the order of the
full product (a zero classifier's decision values are all rounding, and a
sum over the support alone changes their signs).  The points go through
``_BLOCK_ROWS`` at a time, so a prediction holds one n x 256 matrix
however many points it scores; each block has the bits of
gram(a, block).T @ coef, and up to one block that is the full product.
The three fitted models are such an expansion plus an offset, and share
one base, ``_Expansion``, which states their contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _Points

LINEAR = "linear"
GAUSSIAN_RBF = "gaussian-rbf"

__all__ = ["KernelSpec", "gram", "expand", "LINEAR", "GAUSSIAN_RBF"]


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in (LINEAR, GAUSSIAN_RBF):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == GAUSSIAN_RBF:
            # an infinite bandwidth would make a constant kernel
            if self.bandwidth is None or not 0 < self.bandwidth < np.inf:
                raise ValueError(
                    "gaussian-rbf requires a finite bandwidth > 0")

    def describe(self) -> str:
        if self.kind == LINEAR:
            return LINEAR
        return f"{GAUSSIAN_RBF} {self.bandwidth:.17g}"


def _features(a) -> np.ndarray:
    X = getattr(a, "X", a)
    return np.atleast_2d(np.asarray(X, dtype=float))


def _sq_norms(a, A: np.ndarray) -> np.ndarray:
    """The squared row norms of operand ``a`` with features ``A``: cached
    on a Dataset or a PrivilegedSet, computed otherwise."""
    return a.sq_norms if isinstance(a, _Points) else np.sum(A * A, axis=1)


_BLOCK_ROWS = 256  # rows (or points) per temporary block
# entries per Nadaraya-Watson buffer (1 MiB of float64): its query blocks
# are _BLOCK_ROWS rows up to 512 training points, and fewer above that
_BLOCK_ENTRIES = 1 << 17


def _sq_dists(a, b, out=None, work=None) -> np.ndarray:
    """Squared distances ||a_i||^2 + ||b_j||^2 - 2 a_i'b_j, clipped at 0,
    between the rows of two operands (Datasets or arrays).

    The result lives in the buffer of A @ B.T, rewritten a block of rows
    at a time, so the only other n x m-sized allocation is one block of
    the outer sum.  With B identical to A the product is A @ A.T on one
    buffer, which numpy computes exactly symmetric (one triangle with syrk,
    mirrored), and the rewrite keeps that symmetry entry by entry.  A
    caller that streams blocks may pass the result's buffer as ``out`` and
    a buffer for the outer sum's block as ``work``, to reuse them.
    """
    A = _features(a)
    B = A if b is a else _features(b)
    G = np.matmul(A, B.T, out=out)
    a2 = _sq_norms(a, A)
    b2 = a2 if B is A else _sq_norms(b, B)
    for start in range(0, G.shape[0], _BLOCK_ROWS):
        blk = slice(start, start + _BLOCK_ROWS)
        g = G[blk]
        g *= 2.0
        np.subtract(np.add.outer(a2[blk], b2, out=None if work is None
                                 else work[:len(g)]), g, out=g)
        np.maximum(g, 0.0, out=g)
    return G


def gram(spec: KernelSpec, a, b=None) -> np.ndarray:
    """Pairwise kernel evaluations; entry (i, j) = k(a_i, b_j).

    With ``b`` omitted (or identical to ``a``) the result is exactly
    symmetric.  The result is the only n x m buffer: the RBF Gram is built
    in the buffer of the squared distances, a block of rows at a time
    (``_sq_dists``).
    """
    if b is None:
        b = a
    A = _features(a)
    B = A if b is a else _features(b)
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: {A.shape[1]} vs {B.shape[1]}"
        )
    if spec.kind == LINEAR:
        return A @ B.T
    # exp(-sq / (2 h^2)) in place
    G = _sq_dists(a, b)
    np.divide(G, -2.0 * spec.bandwidth**2, out=G)
    return np.exp(G, out=G)


def expand(spec: KernelSpec, a, coef, points) -> np.ndarray:
    """The kernel expansion sum_j coef_j k(a_j, x) at every point x.

    The points are taken ``_BLOCK_ROWS`` at a time.  For each block only
    the rows of the a_j with coef_j != 0 are evaluated; the others stay
    zero in an n x block matrix K, and K.T @ coef adds them as +-0.  So
    each block of the result has the bits of gram(a, block).T @ coef, and
    up to ``_BLOCK_ROWS`` points the whole result has the bits of
    gram(a, points).T @ coef.  Above that it may differ from that full
    product in the last bits.  The cost is one Gram of the support
    against the points, and one n x block matrix at a time.
    """
    nz = np.flatnonzero(coef)
    support = _features(a)[nz]
    P = _features(points)
    out = np.empty(len(P))
    for start in range(0, len(P), _BLOCK_ROWS):
        blk = slice(start, start + _BLOCK_ROWS)
        out[blk] = _expand_block(spec, support, nz, coef, P[blk])
    return out


def _expand_block(spec, support, nz, coef, P) -> np.ndarray:
    """K.T @ coef for one block of points, K zero outside the rows nz;
    K is freed on return, before the next block's is allocated."""
    K = np.zeros((len(coef), len(P)))
    K[nz] = gram(spec, support, P)
    return K.T @ coef


@dataclass(kw_only=True)
class _Expansion:
    """A fitted model: f(x) = sum_j coef_j k(x_j, x) + b over the training
    points, coef = y o alpha (alpha for the smoothed primal).  f0 = K coef
    as the solve computed it, so decision_train = f0 + b reads no Gram;
    predict scores points through ``expand`` with ``coef``; gram_train is
    K, built on first read (or handed over by the solve) and kept."""

    data: Dataset
    spec: KernelSpec
    alpha: np.ndarray
    b: float
    f0: np.ndarray  # K coef, the decision values without b
    n_iter: int = 0
    _gram: np.ndarray | None = field(default=None, repr=False)

    @property
    def coef(self) -> np.ndarray:
        return self.data.y * self.alpha

    @property
    def gram_train(self) -> np.ndarray:
        if self._gram is None:
            self._gram = gram(self.spec, self.data)
        return self._gram

    @property
    def decision_train(self) -> np.ndarray:
        return self.f0 + self.b

    def predict(self, points) -> np.ndarray:
        return expand(self.spec, self.data, self.coef, points) + self.b


class _KernelRows:
    """The rows of K = gram(spec, data), or of Q = YKY when signs y are
    given, as the QP core reads them, and their products with a vector.

    Up to ``_BLOCK_ROWS`` points the matrix is one gram(spec, data), which
    is exactly symmetric (a gemm over every row, gram(spec, X, data), is
    not); ``whole``, if given, is that matrix, built before.  Above that
    ``take`` computes the rows it has not seen, one gram call per fill,
    and keeps each fill's block as it is, never copied.  Nothing here
    writes to the whole matrix, so fits can share it.
    """

    def __init__(self, spec: KernelSpec, data, y=None, whole=None):
        self.spec, self.data, self.y = spec, data, y
        self.rows = {}  # i -> row i, a view into the fill that computed it
        if whole is None and data.n <= _BLOCK_ROWS:
            whole = self._signed(gram(spec, data), slice(None))
        self.whole = whole

    def __len__(self):
        return self.data.n

    def take(self, rows, axis=0):
        """The rows, as ``ndarray.take(rows, 0)`` gives them."""
        if self.whole is not None:
            return self.whole.take(rows, 0)
        rows = np.asarray(rows)
        keys = rows.tolist()
        new = [i not in self.rows for i in keys]
        if any(new):
            # a row listed twice is computed twice, to no harm
            self._fill(rows[new])
        out = np.empty((rows.size, self.data.n))
        for k, i in enumerate(keys):
            out[k] = self.rows[i]
        return out

    def dot(self, coef) -> np.ndarray:
        """K coef, or Q coef: a product with the whole matrix, or the sum of
        the computed rows when they include the row of every nonzero
        coefficient, or else a kernel expansion, which keeps no row."""
        if self.whole is not None:
            return self.whole @ coef
        nz = np.flatnonzero(coef)
        if all(i in self.rows for i in nz.tolist()):
            return coef[nz] @ self.take(nz)
        y = 1.0 if self.y is None else self.y
        return y * expand(self.spec, self.data, y * coef, self.data)

    def _fill(self, rows: np.ndarray):
        block = gram(self.spec, self.data.X[rows], self.data)
        self.rows.update(zip(rows.tolist(), self._signed(block, rows)))

    def _signed(self, K: np.ndarray, rows) -> np.ndarray:
        """K's block of ``rows`` flipped into Q's in place, exactly (+-1)."""
        if self.y is not None:
            K *= self.y[rows, None]
            K *= self.y
        return K
