"""Weighted SVM dual solver.

Solves

    min_a  1/2 a' Y K Y a - 1' a   s.t.  y' a = 0,  0 <= a_i <= c_i

with the package's active-set QP core (``privsvm.qp``): H = YKY, one
equality row y' and the box [0, c], so the working set is the most
violating pair of SMO.  The primal model is recovered afterwards,
including the exact interval of optimal offsets b.

Q = YKY is not a separate matrix: the solver flips the signs of the Gram
it built in place, solves, reads a'Qa and flips them back.  The labels
are exactly +-1, so both flips are exact and the model holds the same K
bit for bit, with one n x n buffer in all.

Slacks are reported under the lower-bound convention xi_i = [1 - y_i f_i]_+
(the hinge loss), which keeps xi well defined even where c_i = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .kernels import KernelSpec, gram
from .qp import ConvergenceError, solve_qp

__all__ = [
    "WsvmModel",
    "ConvergenceError",
    "check_weights",
    "solve_wsvm",
    "offset_interval",
    "predict",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10**6


def check_weights(c, n: int, allow_all_zero: bool = False) -> np.ndarray:
    c = np.asarray(c, dtype=float).ravel()
    if c.shape[0] != n:
        raise ValueError(f"expected {n} weights, got {c.shape[0]}")
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        raise ValueError("weights must be finite and nonnegative")
    if not allow_all_zero and not np.any(c > 0):
        raise ValueError("weights must not all be zero")
    return c


@dataclass
class WsvmModel:
    data: Dataset
    spec: KernelSpec
    c: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    b: float
    b_interval: tuple[float, float]
    xi: np.ndarray
    objective_primal: float
    objective_dual: float
    n_iter: int = 0
    b_overridden: bool = False
    _gram: np.ndarray | None = field(default=None, repr=False)

    @property
    def decision_train(self) -> np.ndarray:
        """Decision values f(x_i) on the training instances."""
        return self.gram_train @ (self.data.y * self.alpha) + self.b

    @property
    def gram_train(self) -> np.ndarray:
        if self._gram is None:
            self._gram = gram(self.spec, self.data)
        return self._gram


def _optimal_offset_interval(y: np.ndarray, c: np.ndarray,
                             f0: np.ndarray) -> tuple[float, float]:
    """Exact argmin interval of b -> sum_i c_i [1 - y_i (f0_i + b)]_+.

    With the (unique) w fixed, the primal-optimal offsets are exactly the
    minimizers of this piecewise-linear convex function.
    """
    mask = c > 0
    if not mask.any():
        return (-np.inf, np.inf)
    yp = y[mask]
    cp = c[mask]
    fp = f0[mask]
    # breakpoint where instance i's hinge activates/deactivates as b moves
    beta = np.where(yp > 0, 1.0 - fp, -1.0 - fp)
    order = np.argsort(beta, kind="stable")
    beta = beta[order]
    w = cp[order]
    slope = -np.sum(cp[yp > 0])  # right-derivative at b = -inf
    cum = slope + np.cumsum(w)
    # merge ties: the right-derivative just past a breakpoint value is the
    # cumulative sum over all events at or below it
    step = beta[1:] != beta[:-1]
    uniq = beta[np.r_[True, step]]
    d_right = cum[np.r_[step, True]]
    if slope >= 0:
        lo = -np.inf
    else:
        k = int(np.argmax(d_right >= 0)) if np.any(d_right >= 0) else None
        lo = float(uniq[k]) if k is not None else np.inf
    if np.any(d_right > 0):
        hi = float(uniq[int(np.argmax(d_right > 0))])
    else:
        hi = np.inf
    return (lo, hi)


def _pick_offset(interval: tuple[float, float], y: np.ndarray) -> float:
    lo, hi = interval
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    if np.isfinite(lo):
        return lo
    if np.isfinite(hi):
        return hi
    # no weight at all: fall back to the class-balance constant classifier
    return 1.0 if np.sum(y > 0) >= np.sum(y < 0) else -1.0


def solve_wsvm(data: Dataset, spec: KernelSpec, c, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               b_override: float | None = None) -> WsvmModel:
    """Solve the weighted SVM for per-instance weights c.

    ``b_override`` replaces the midpoint offset convention with an external
    value (used to replicate an SVM+ classifier exactly); the stored
    b_interval is unaffected.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    c = check_weights(c, data.n)
    y = data.y
    K = gram(spec, data)
    # Q = YKY in K's own buffer (see the module docstring).  Only a Gram
    # built here may be flipped, never one a caller passed in; if solve_qp
    # raises, this K is simply dropped.
    K *= y[:, None]
    K *= y
    alpha, n_iter = solve_qp(K, -np.ones(data.n), y[None, :], c,
                             np.zeros(data.n), tol, max_iter)
    quad = float(alpha @ K @ alpha)
    K *= y[:, None]
    K *= y
    f0 = K @ (y * alpha)
    interval = _optimal_offset_interval(y, c, f0)
    if b_override is not None:
        b = float(b_override)
    else:
        b = _pick_offset(interval, y)
    xi = np.maximum(0.0, 1.0 - y * (f0 + b))
    beta = c - alpha
    primal = 0.5 * quad + float(c @ xi)
    dual = float(np.sum(alpha)) - 0.5 * quad
    return WsvmModel(
        data=data, spec=spec, c=c, alpha=alpha, beta=beta, b=b,
        b_interval=interval, xi=xi,
        objective_primal=primal, objective_dual=dual, n_iter=n_iter,
        b_overridden=b_override is not None, _gram=K,
    )


def offset_interval(model: WsvmModel) -> tuple[float, float]:
    """Exact interval of primal-optimal offsets for the model's dual a."""
    f0 = model.gram_train @ (model.data.y * model.alpha)
    return _optimal_offset_interval(model.data.y, model.c, f0)


def predict(model: WsvmModel, points) -> np.ndarray:
    """Decision values f(x) = sum_i a_i y_i k(x_i, x) + b; class is sign(f)."""
    Kx = gram(model.spec, model.data, points)
    return Kx.T @ (model.data.y * model.alpha) + model.b
