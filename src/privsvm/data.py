"""Dataset containers and the sparse text data formats.

The on-disk format is the usual sparse text format: one instance per line,
``label index:value ...`` with 1-based feature indices and labels that must
parse to -1 or +1.  Companion files (privileged features, per-instance
weights) are aligned with the data file line by line; a sparse companion
file is read by the same parser, so index 0 is rejected there too, and its
leading label is an optional placeholder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Dataset",
    "PrivilegedSet",
    "load_sparse",
    "load_privileged",
    "load_weights",
    "save_weights",
]


def _frozen_array(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


class _Points:
    """What Dataset and PrivilegedSet share: an (n, d) feature matrix X,
    and its squared row norms, computed on first use and kept."""

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """The squared row norms ||x_i||^2, computed once and read-only."""
        return _frozen_array(np.sum(self.X * self.X, axis=1))


@dataclass(frozen=True)
class Dataset(_Points):
    """Labeled instances: an (n, d) feature matrix and labels in {-1, +1}."""

    X: np.ndarray
    y: np.ndarray

    def __init__(self, X, y):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"{X.shape[0]} instances but {y.shape[0]} labels")
        if X.shape[0] < 1:
            raise ValueError("dataset must contain at least one instance")
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite feature values")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be exactly -1 or +1")
        object.__setattr__(self, "X", _frozen_array(X))
        object.__setattr__(self, "y", _frozen_array(y))

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.X[indices], self.y[indices])


@dataclass(frozen=True)
class PrivilegedSet(_Points):
    """Training-time-only features aligned row by row with a Dataset."""

    X: np.ndarray

    def __init__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite privileged feature values")
        object.__setattr__(self, "X", _frozen_array(X))

    def check_aligned(self, data: Dataset) -> None:
        if self.n != data.n:
            raise ValueError(
                f"privileged set has {self.n} rows, dataset has {data.n}"
            )


def _read_sparse(path, labeled: bool):
    """Parse ``label index:value ...`` lines (1-based indices) into the
    labels and a dense matrix.  Unlabeled companion files may still carry
    a placeholder label, which is skipped.  A line that does not parse
    raises a ValueError naming ``path:line``."""
    labels: list[float] = []
    rows: list[dict[int, float]] = []
    max_idx = 1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                if labeled:
                    label = float(parts[0])
                    if label not in (-1.0, 1.0):
                        raise ValueError(f"label {parts[0]!r} is not +-1")
                    labels.append(label)
                if labeled or ":" not in parts[0]:
                    parts = parts[1:]
                entries: dict[int, float] = {}
                for item in parts:
                    idx_s, _, val_s = item.partition(":")
                    idx = int(idx_s)
                    if idx < 1:
                        raise ValueError("indices are 1-based")
                    entries[idx] = float(val_s)
                    max_idx = max(max_idx, idx)
            except ValueError as exc:  # a bad number, label or index
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            rows.append(entries)
    X = np.zeros((len(rows), max_idx))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            X[i, idx - 1] = val
    return labels, X


def load_sparse(path) -> Dataset:
    """Parse the sparse ``label index:value`` text format."""
    labels, X = _read_sparse(path, labeled=True)
    if not labels:
        raise ValueError(f"{path}: empty data file")
    return Dataset(X, labels)


def load_privileged(path, data: Dataset) -> PrivilegedSet:
    """Load a privileged-feature companion file aligned with ``data``."""
    priv = PrivilegedSet(_read_sparse(path, labeled=False)[1])
    priv.check_aligned(data)
    return priv


def load_weights(path, n: int | None = None) -> np.ndarray:
    """One finite nonnegative decimal per line.  A line that does not
    parse raises a ValueError naming ``path:line``."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    values = np.asarray(values, dtype=float)
    if not np.all((values >= 0) & (values < np.inf)):  # NaN fails both
        raise ValueError(f"{path}: weights must be finite and nonnegative")
    if n is not None and len(values) != n:
        raise ValueError(f"{path}: expected {n} lines, found {len(values)}")
    return values


def save_weights(path, c) -> None:
    with open(path, "w") as fh:
        for v in np.asarray(c, dtype=float).ravel():
            fh.write(f"{v:.17g}\n")
