"""Twice-differentiable primal training with a smoothed hinge loss.

The loss l_delta agrees with the hinge outside the band
1 - 2*delta < t < 1 and interpolates with a cubic spline inside it:

    l_delta(t) = 0                       t >= 1
               = 1 - t - delta           t <= 1 - 2 delta
               = s^3 (4 delta - s) / (16 delta^3),  s = 1 - t, otherwise

so 0 <= hinge(t) - l_delta(t) <= delta everywhere, and the curvature is
bounded by 3 / (4 delta).

The objective 1/2 a' K a + sum_i c_i l_delta(y_i f(x_i)) with
f = K a + b is minimized by a damped Newton method on the stationarity
residual (Chapelle 2007, *Training a SVM in the primal*).  A solve either
meets its one stop test or raises ConvergenceError; there is no
quasi-Newton fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .kernels import KernelSpec, gram
from .qp import ConvergenceError
from .wsvm import check_weights

__all__ = ["smooth_hinge", "PrimalModel", "solve_primal"]

PRIMAL_TOL = 1e-10
PRIMAL_MAX_ITER = 200


def smooth_hinge(t, delta: float):
    """Value, first and second derivative of l_delta, elementwise."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    t = np.asarray(t, dtype=float)
    s = 1.0 - t
    value = np.where(s <= 0, 0.0, s - delta)
    d1 = np.where(s <= 0, 0.0, -1.0)
    d2 = np.zeros_like(s)
    mid = (s > 0) & (s < 2.0 * delta)
    if np.any(mid):
        sm = s[mid]
        d3 = delta**3
        value = value.copy()
        d1 = d1.copy()
        value[mid] = sm**3 * (4.0 * delta - sm) / (16.0 * d3)
        d1[mid] = -(sm**2) * (3.0 * delta - sm) / (4.0 * d3)
        d2[mid] = 3.0 * sm * (2.0 * delta - sm) / (4.0 * d3)
    return value, d1, d2


@dataclass
class PrimalModel:
    data: Dataset
    spec: KernelSpec
    c: np.ndarray
    delta: float
    alpha: np.ndarray
    b: float
    objective: float
    n_iter: int = 0
    method: str = "newton"
    _gram: np.ndarray | None = field(default=None, repr=False)

    @property
    def gram_train(self) -> np.ndarray:
        if self._gram is None:
            self._gram = gram(self.spec, self.data)
        return self._gram

    @property
    def decision_train(self) -> np.ndarray:
        return self.gram_train @ self.alpha + self.b

    def predict(self, points) -> np.ndarray:
        Kx = gram(self.spec, self.data, points)
        return Kx.T @ self.alpha + self.b


def _objective(alpha, b, K, y, c, delta):
    f = K @ alpha + b
    value, d1, d2 = smooth_hinge(y * f, delta)
    obj = 0.5 * float(alpha @ K @ alpha) + float(c @ value)
    u = y * d1
    v = c * d2
    return obj, f, u, v


def _offset_shift(t, y, c, delta, r2):
    """Move of b against the offset gradient r2 that puts the first
    weighted margin to reach the curvature band delta inside it."""
    s = -np.sign(r2)
    # distance each margin travels before it reaches the band; margins
    # moving away from the band get a negative distance
    dist = np.where(y * s > 0, 1.0 - 2.0 * delta - t, t - 1.0)
    return float(s * (np.min(dist[(c > 0) & (dist >= 0)]) + delta))


def solve_primal(data: Dataset, spec: KernelSpec, c, delta: float,
                 tol: float = PRIMAL_TOL,
                 max_iter: int = PRIMAL_MAX_ITER) -> PrimalModel:
    """Minimize the smoothed weighted primal in the expansion (a, b).

    Stationarity is the zero of

        r(a, b) = [a + diag(u) c;  <u, c>],   u_i = y_i l'(y_i f_i)

    solved by damped Newton with Jacobian

        J = [[I + diag(v) K,  v], [v' K,  1' v]],   v_i = c_i l''(y_i f_i),

    which is nonsingular for any PSD K once v >= 0 is nonzero.  Each step
    is halved until the objective does not rise.  The solve stops when
    max |r| <= tol * (1 + max c) and raises ConvergenceError, carrying the
    residual, when no step is accepted or max_iter steps do not get there.

    Where no weighted margin lies in the curvature band (v = 0), J is
    diag(I, 0): the step solves the first block for a and keeps b, and once
    that block holds b moves against <u, c> until the first weighted margin
    to reach the band is delta inside it.
    """
    c = check_weights(c, data.n, allow_all_zero=True)
    y = data.y
    K = gram(spec, data)
    n = data.n
    stop = tol * (1.0 + float(np.max(c)))
    alpha = np.zeros(n)
    b = 0.0
    obj, f, u, v = _objective(alpha, b, K, y, c, delta)
    for it in range(max_iter + 1):
        r1 = alpha + u * c
        r2 = float(u @ c)
        resid = max(float(np.max(np.abs(r1))), abs(r2))
        if resid <= stop:
            return PrimalModel(
                data=data, spec=spec, c=c, delta=float(delta), alpha=alpha,
                b=float(b), objective=obj, n_iter=it, _gram=K,
            )
        if it == max_iter:
            raise ConvergenceError("primal Newton did not converge", resid)
        if np.any(v > 0):
            J = np.empty((n + 1, n + 1))
            J[:n, :n] = np.eye(n) + v[:, None] * K
            J[:n, n] = v
            J[n, :n] = v @ K
            J[n, n] = float(np.sum(v))
            step = np.linalg.solve(J, -np.r_[r1, r2])
            step_a, step_b = step[:n], float(step[n])
        elif float(np.max(np.abs(r1))) > stop:
            step_a, step_b = -r1, 0.0
        else:
            step_a, step_b = -r1, _offset_shift(y * f, y, c, delta, r2)
        # halve until the objective does not rise; a step too small to
        # move the iterate (or a non-finite one, once t underflows) stalls
        t = 1.0
        while True:
            a_new, b_new = alpha + t * step_a, b + t * step_b
            if t == 0.0 or (b_new == b and np.array_equal(a_new, alpha)):
                raise ConvergenceError("primal line search stalled", resid)
            trial = _objective(a_new, b_new, K, y, c, delta)
            if trial[0] <= obj + 1e-12 * (1.0 + abs(obj)):
                alpha, b = a_new, b_new
                obj, f, u, v = trial
                break
            t *= 0.5
