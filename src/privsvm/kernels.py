"""Kernel functions and Gram-matrix construction.

The Gaussian RBF kernel is parametrized as

    k(x, x') = exp(-||x - x'||^2 / (2 h^2))

with bandwidth h > 0; this convention is shared by the solvers, the
Nadaraya-Watson estimator, and the CLI config format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LINEAR = "linear"
GAUSSIAN_RBF = "gaussian-rbf"

__all__ = ["KernelSpec", "gram", "LINEAR", "GAUSSIAN_RBF"]


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in (LINEAR, GAUSSIAN_RBF):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == GAUSSIAN_RBF:
            if self.bandwidth is None or not self.bandwidth > 0:
                raise ValueError("gaussian-rbf requires bandwidth > 0")

    def describe(self) -> str:
        if self.kind == LINEAR:
            return LINEAR
        return f"{GAUSSIAN_RBF} {self.bandwidth:.17g}"

    @staticmethod
    def parse(text: str) -> "KernelSpec":
        parts = text.split()
        if parts[0] == LINEAR:
            return KernelSpec(LINEAR)
        return KernelSpec(GAUSSIAN_RBF, float(parts[1]))


def _features(a) -> np.ndarray:
    X = getattr(a, "X", a)
    return np.atleast_2d(np.asarray(X, dtype=float))


def gram(spec: KernelSpec, a, b=None) -> np.ndarray:
    """Pairwise kernel evaluations; entry (i, j) = k(a_i, b_j).

    With ``b`` omitted (or identical to ``a``) the result is exactly
    symmetric.
    """
    A = _features(a)
    # A @ A.T on one buffer is exactly symmetric (numpy computes one
    # triangle with syrk and mirrors it, or sums both in the same order),
    # and the RBF formula below keeps that symmetry entry by entry
    B = A if b is None or b is a else _features(b)
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: {A.shape[1]} vs {B.shape[1]}"
        )
    if spec.kind == LINEAR:
        return A @ B.T
    # ||a||^2 + ||b||^2 - 2 a'b, clipped at 0, then exp(-sq / (2 h^2)),
    # in two n x m buffers
    sq = np.add.outer(np.sum(A * A, axis=1), np.sum(B * B, axis=1))
    G = A @ B.T
    G *= 2.0
    np.subtract(sq, G, out=sq)
    np.maximum(sq, 0.0, out=sq)
    np.divide(sq, -2.0 * spec.bandwidth**2, out=sq)
    return np.exp(sq, out=sq)
