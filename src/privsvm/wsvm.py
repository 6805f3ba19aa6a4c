"""Weighted SVM dual solver.

Solves

    min_a  1/2 a' Y K Y a - 1' a   s.t.  y' a = 0,  0 <= a_i <= c_i

with the package's active-set QP core (``privsvm.qp``): H = YKY, one
equality row y' and the box [0, c], so the working set is the most
violating pair of SMO.  The primal model is recovered afterwards,
including the exact interval of optimal offsets b, which the model
stores as ``b_interval``.

The QP core reads H = Q only as rows (``privsvm.qp``), and a fit reads
few of them: the rows of the pairs it moves and of the faces it steps
on.  So Q is a row source, ``kernels._KernelRows``, as SVM+'s Q and Kt
are: the whole matrix up to 256 points, and above that each row
computed on first use.  A grid search builds a kernel candidate's whole
Q once and hands it to each of the candidate's fits (``_Q``).

The fitted model is a kernel expansion with coefficients y o a
(``kernels._Expansion``).  The solve leaves it no Gram, only n-vectors:
besides a, b and the slacks it keeps the decision values f0 = K(y o a)
without the offset, which decision_train and the KKT report read.  f0 is
y o Q a, summed above 256 points over the support vectors' rows, which
the solve computed; the labels are +-1, so it has the bits of the same
sum over K.  ``predict(model, points)`` is ``model.predict(points)``.

Slacks are reported under the lower-bound convention xi_i = [1 - y_i f_i]_+
(the hinge loss), which keeps xi well defined even where c_i = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import KernelSpec, _Expansion, _KernelRows
from .qp import ConvergenceError, solve_qp

__all__ = [
    "WsvmModel",
    "ConvergenceError",
    "check_weights",
    "solve_wsvm",
    "predict",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10**6
_EPS = float(np.finfo(float).eps)


def check_weights(c, n: int, allow_all_zero: bool = False) -> np.ndarray:
    c = np.asarray(c, dtype=float).ravel()
    if c.shape[0] != n:
        raise ValueError(f"expected {n} weights, got {c.shape[0]}")
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        raise ValueError("weights must be finite and nonnegative")
    if not allow_all_zero and not np.any(c > 0):
        raise ValueError("weights must not all be zero")
    return c


@dataclass(kw_only=True)
class WsvmModel(_Expansion):
    c: np.ndarray
    b_interval: tuple[float, float]
    xi: np.ndarray
    objective_primal: float
    objective_dual: float

    @property
    def beta(self) -> np.ndarray:
        """The duals of xi >= 0, c - alpha."""
        return self.c - self.alpha


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
    uniq = beta[np.concatenate(([True], step))]
    last = np.concatenate((step, [True]))
    d_right = cum[last]
    # the sum and the cumulative sums round differently, so an exactly flat
    # stretch can read as +-1e-17: judge the sign of a right-derivative
    # within its rounding bound of 0 on the correctly rounded sum.  d_right
    # is nondecreasing in floating point too, so those are one run
    bound = cp.size * _EPS * (cum[-1] - 2.0 * slope)
    start, stop = np.searchsorted(d_right, (-bound, bound))
    if start < stop:
        terms = (-cp[yp > 0]).tolist()
        ends = np.flatnonzero(last)
        for k in range(start, stop):
            d_right[k] = math.fsum(terms + w[:ends[k] + 1].tolist())
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


def _pick_offset(interval: tuple[float, float]) -> float:
    """Midpoint of an offset interval, or its finite end if it has one.

    Both duals call this with at least one finite end: a weighted SVM has
    some weight, and an SVM+ training set is never empty.
    """
    lo, hi = interval
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    return lo if np.isfinite(lo) else hi


def solve_wsvm(data: Dataset, spec: KernelSpec, c, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               b_override: float | None = None, *,
               _Q: np.ndarray | None = None) -> WsvmModel:
    """Solve the weighted SVM for per-instance weights c.

    ``b_override`` replaces the midpoint offset convention with an external
    value; the stored b_interval is unaffected.  An SVM+ classifier's
    replay needs no solve: ``equivalence.wsvm_from_svmplus`` builds it.
    ``_Q``, private to the package's grid searches, is this data's whole
    Q = YKY under ``spec``, or None.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if b_override is not None and not np.isfinite(b_override):
        raise ValueError("b_override must be finite")
    c = check_weights(c, data.n)
    y = data.y
    Q = _KernelRows(spec, data, y, _Q)
    alpha, n_iter = solve_qp(Q, -np.ones(data.n), y[None, :], c,
                             np.zeros(data.n), tol, max_iter)
    return _model(data, spec, c, alpha, y * Q.dot(alpha), b_override, n_iter)


def _model(data, spec, c, alpha, f0, b, n_iter) -> WsvmModel:
    """The model of the dual solution alpha for weights c, with decision
    values f0 = K(y o alpha): the exact offset interval, b (its midpoint
    unless one is given), the slacks and both objectives."""
    y = data.y
    quad = float((y * alpha) @ f0)
    interval = _optimal_offset_interval(y, c, f0)
    b = _pick_offset(interval) if b is None else float(b)
    xi = np.maximum(0.0, 1.0 - y * (f0 + b))
    primal = 0.5 * quad + float(c @ xi)
    dual = float(np.sum(alpha)) - 0.5 * quad
    return WsvmModel(
        data=data, spec=spec, c=c, alpha=alpha, b=b,
        b_interval=interval, xi=xi,
        objective_primal=primal, objective_dual=dual, f0=f0, n_iter=n_iter,
    )


def predict(model: WsvmModel, points) -> np.ndarray:
    """``model.predict(points)``, as a function."""
    return model.predict(points)
