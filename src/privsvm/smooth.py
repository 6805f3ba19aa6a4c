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
residual (Chapelle 2007, *Training a SVM in the primal*).  The Newton
Jacobian is the identity on every row whose margin lies outside the
curvature band, so each step factorises J restricted to the band: a
bordered system with one more row than the margins inside it.  A solve
either meets its one stop test or raises ConvergenceError; there is no
quasi-Newton fallback.  A solve may start from an earlier model on the
same inputs and kernel (``warm``): Newton then begins at that model's
(a, b) and reuses its Gram matrix, which pays when a caller solves a
sequence of nearby weight vectors, as weight learning does.  The model
(``kernels._Expansion``, coefficients a) keeps the Gram of its solve and
the f0 = K a of its last iterate's objective, so decision_train = f0 + b
has the bits of K a + b with no further product.  A solved model also
keeps the rest of that objective's work that does not depend on c: 1/2
a' K a, the loss values, the clipped s and the linear mask.  A warm solve
at the same delta on the same labels starts from them and forms only
c' l(y o f) for its own weights, with the bits a whole objective would
give; a model built by hand, or one fitted at another delta or on other
labels, starts from a whole objective.

Each quantity is computed once.  A line-search trial evaluates only the
loss values and the objective; the slopes u = y o l' and v = c o l'' are
formed once per accepted iterate, from the clipped margins the trial
already holds, and the band S is found once per step.  The solved model
keeps the (u, v) it stopped on, which the gradients of weight learning
read instead of evaluating the loss at its decision values again.  Each
value is the one ``smooth_hinge`` gives at the same margins, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .data import Dataset
from .kernels import KernelSpec, _Expansion, gram
from .qp import ConvergenceError
from .wsvm import check_weights

__all__ = ["smooth_hinge", "PrimalModel", "solve_primal"]

PRIMAL_TOL = 1e-10
PRIMAL_MAX_ITER = 200


def _check_delta(delta) -> None:
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")


def _loss(t, delta):
    """l_delta(t), with the clipped s = 1 - t and the mask of the linear
    piece, from which ``_loss_slope`` and ``_loss_curvature`` read."""
    s = 1.0 - t
    # q = clip(s, 0, 2 delta); q = 0 gives the flat piece t >= 1
    q = np.minimum(np.maximum(s, 0.0), 2.0 * delta)
    linear = s >= 2.0 * delta
    value = np.where(linear, s - delta,
                     q**3 * (4.0 * delta - q) / (16.0 * delta**3))
    return value, q, linear


def _loss_slope(q, linear, delta):
    """l'_delta, from the clipped s and linear mask of ``_loss``."""
    return np.where(linear, -1.0,
                    -(q**2) * (3.0 * delta - q) / (4.0 * delta**3))


def _loss_curvature(q, delta):
    """l''_delta, from the clipped s of ``_loss``."""
    return 3.0 * q * (2.0 * delta - q) / (4.0 * delta**3)


def smooth_hinge(t, delta: float):
    """Value, first and second derivative of l_delta, elementwise."""
    _check_delta(delta)
    value, q, linear = _loss(np.asarray(t, dtype=float), delta)
    return value, _loss_slope(q, linear, delta), _loss_curvature(q, delta)


def _margin_slopes(y, c, q, linear, delta):
    """u = y o l'(y o f) and v = c o l''(y o f), from ``_loss`` at y o f."""
    return y * _loss_slope(q, linear, delta), c * _loss_curvature(q, delta)


@dataclass(kw_only=True)
class PrimalModel(_Expansion):
    method: ClassVar[str] = "newton"
    c: np.ndarray
    delta: float
    objective: float
    f0: np.ndarray | None = None  # a model built by hand computes K alpha
    # (u, v) at the solution, as the solve's last residual read them
    _uv: tuple[np.ndarray, np.ndarray] | None = field(default=None,
                                                      repr=False)
    # the c-free part of the last objective (see ``_objective``), which a
    # warm solve at the same delta and labels starts from
    _state: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.f0 is None:
            self.f0 = self.gram_train @ self.alpha

    @property
    def coef(self) -> np.ndarray:
        return self.alpha


def _objective(alpha, b, K, y, c, delta):
    """The objective at (a, b), f0 = K a, and the state that does not
    depend on c: 1/2 a' K a and ``_loss`` (values, clipped s, linear mask)
    at y o (f0 + b)."""
    f0 = K @ alpha
    state = (0.5 * float(alpha @ K @ alpha), *_loss(y * (f0 + b), delta))
    return _weighted(state, c), f0, state


def _weighted(state, c):
    """The objective at weights c, from the state of ``_objective``."""
    return state[0] + float(c @ state[1])


def _bordered(K, v, last_row, corner):
    """The bordered matrix [[I + diag(v) K,  v], [last_row,  corner]].

    Newton's J restricted to the band S passes K_SS, v_S, v_S' K_SS and
    sum(v_S); the sensitivity systems of weight learning pass 1' and 0.
    """
    m = v.size
    M = np.empty((m + 1, m + 1))
    np.multiply(v[:, None], K, out=M[:m, :m])
    M.reshape(-1)[:m * (m + 2):m + 2] += 1.0  # the first m diagonal entries
    M[:m, m] = v
    M[m, :m] = last_row
    M[m, m] = corner
    return M


def _newton_step(K, v, band, r1, r2):
    """Solve J [step_a; step_b] = -[r1; r2] on the band S = {i : v_i > 0},
    given as the indices ``band``.

    Outside S (the set T) the rows of J are identity rows, so
    step_a[T] = -r1[T] exactly, and (step_a[S], step_b) solve

        [[I + diag(v_S) K_SS, v_S], [v_S' K_SS, sum(v_S)]] [a_S; b]
            = [-r1_S - v_S o (K_ST a_T);  -r2 - v_S' K_ST a_T].
    """
    m = band.size
    step_a = -r1
    # K_ST a_T is the rows S of K applied to step_a with its S entries
    # zeroed; taking K_SS a_S off K[S] step_a instead would cancel
    a_T = step_a.copy()
    a_T[band] = 0.0
    K_S = K[band]
    k_T = K_S @ a_T
    v_S = v[band]
    K_SS = K_S[:, band]
    M = _bordered(K_SS, v_S, v_S @ K_SS, float(v_S.sum()))
    rhs = np.empty(m + 1)
    np.subtract(step_a[band], v_S * k_T, out=rhs[:m])
    rhs[m] = -r2 - float(v_S @ k_T)
    sol = np.linalg.solve(M, rhs)
    step_a[band] = sol[:m]
    return step_a, float(sol[m])


def _offset_shift(t, y, c, delta, r2):
    """Move of b against the offset gradient r2 that puts the first
    weighted margin to reach the curvature band delta inside it."""
    s = -np.sign(r2)
    # distance each margin travels before it reaches the band; margins
    # moving away from the band get a negative distance
    dist = np.where(y * s > 0, 1.0 - 2.0 * delta - t, t - 1.0)
    return float(s * (dist[(c > 0) & (dist >= 0)].min() + delta))


def solve_primal(data: Dataset, spec: KernelSpec, c, delta: float,
                 warm: PrimalModel | None = None) -> PrimalModel:
    """Minimize the smoothed weighted primal in the expansion (a, b).

    Stationarity is the zero of

        r(a, b) = [a + diag(u) c;  <u, c>],   u_i = y_i l'(y_i f_i)

    solved by damped Newton with Jacobian

        J = [[I + diag(v) K,  v], [v' K,  1' v]],   v_i = c_i l''(y_i f_i),

    which is nonsingular for any PSD K once v >= 0 is nonzero.  Rows of J
    outside the band S = {i : v_i > 0} are identity rows, so a step takes
    step_a = -r1 there and solves for the rest on S alone (see
    ``_newton_step``).  Each step is halved until the objective does not
    rise.  The solve stops when max |r| <= PRIMAL_TOL * (1 + max c) and
    raises ConvergenceError, carrying the residual, when no step is
    accepted or PRIMAL_MAX_ITER steps do not get there.

    Where no weighted margin lies in the curvature band (v = 0), J is
    diag(I, 0): the step solves the first block for a and keeps b, and once
    that block holds b moves against <u, c> until the first weighted margin
    to reach the band is delta inside it.

    With ``warm`` (a PrimalModel fitted with the same kernel spec on the
    same inputs X) Newton starts from its (a, b) and uses its
    ``gram_train`` instead of building K again; the stop test and the
    ways to raise are those of a cold start.  A warm model with another
    spec or other inputs raises ValueError.  A solved warm model at the
    same delta on the same labels also hands over the c-free state of its
    last objective, so the first objective costs one dot product.
    """
    _check_delta(delta)
    c = check_weights(c, data.n, allow_all_zero=True)
    y = data.y
    n = data.n
    start = None  # the c-free state of the warm model's last objective
    if warm is None:
        K = gram(spec, data)
        alpha = np.zeros(n)
        b = 0.0
    else:
        if warm.spec != spec:
            raise ValueError("warm model has a different kernel spec")
        same = warm.data is data
        if not (same or np.array_equal(warm.data.X, data.X)):
            raise ValueError("warm model was fitted on different inputs")
        K = warm.gram_train
        alpha = np.array(warm.alpha, dtype=float)
        b = float(warm.b)
        if warm.delta == delta and (same or np.array_equal(warm.data.y, y)):
            start = warm._state
    stop = PRIMAL_TOL * (1.0 + float(c.max()))
    if start is None:
        obj, f0, state = _objective(alpha, b, K, y, c, delta)
    else:
        obj, f0, state = _weighted(start, c), warm.f0, start
    for it in range(PRIMAL_MAX_ITER + 1):
        # the slopes of the accepted iterate; line-search trials need
        # only the objective
        u, v = _margin_slopes(y, c, *state[2:], delta)
        r1 = alpha + u * c
        r2 = float(u @ c)
        r1_max = float(np.abs(r1).max())
        resid = max(r1_max, abs(r2))
        if resid <= stop:
            return PrimalModel(
                data=data, spec=spec, c=c, delta=float(delta), alpha=alpha,
                b=float(b), objective=obj, f0=f0, n_iter=it, _gram=K,
                _uv=(u, v), _state=state,
            )
        if it == PRIMAL_MAX_ITER:
            raise ConvergenceError("primal Newton did not converge", resid)
        band = np.flatnonzero(v > 0)
        if band.size:
            step_a, step_b = _newton_step(K, v, band, r1, r2)
        elif r1_max > stop:
            step_a, step_b = -r1, 0.0
        else:
            shift = _offset_shift(y * (f0 + b), y, c, delta, r2)
            step_a, step_b = -r1, shift
        # halve until the objective does not rise; a step too small to
        # move the iterate (or a non-finite one, once t underflows) stalls
        t = 1.0
        while True:
            # 1.0 * step_a is step_a, bit for bit
            a_new = alpha + step_a if t == 1.0 else alpha + t * step_a
            b_new = b + t * step_b
            if t == 0.0 or (b_new == b and np.array_equal(a_new, alpha)):
                raise ConvergenceError("primal line search stalled", resid)
            trial = _objective(a_new, b_new, K, y, c, delta)
            if trial[0] <= obj + 1e-12 * (1.0 + abs(obj)):
                alpha, b = a_new, b_new
                obj, f0, state = trial
                break
            t *= 0.5
