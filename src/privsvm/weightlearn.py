"""Learning per-instance weights by minimizing a smoothed validation loss.

The inner problem trains the smoothed-hinge primal for given weights c;
its minimizer (a*(c), b*(c)) is differentiable in c wherever the inner
Hessian is nonsingular, with sensitivity obtained by implicit
differentiation of the stationarity system.  The outer objective

    V(c) = sum_j l_delta(y'_j f_c(x'_j))

over a validation set is then minimized by one projected-gradient loop
in a coordinate theta that the mode picks.  Log mode steps theta = log c
along c o g, for g the gradient in c, within log C_INIT +- log
WEIGHT_SPREAD (C_INIT is every weight's start), so weight ratios are at
most WEIGHT_SPREAD**2 and every inner solve can be certified.  Projected
mode steps theta = c along g, kept at or above WEIGHT_FLOOR.  An inner
solve that cannot be certified raises ConvergenceError.

The loop accepts a trial only when it lowers V by at least 1e-12, and
then grows the step by 1.5.  A rejected trial retries at the minimiser
of the quadratic through V, its slope along the projected move in theta
and the trial's V, clamped to 0.1-0.5 of the step; where that quadratic
has no positive curvature the step halves (safeguarded quadratic
interpolation, Nocedal & Wright, *Numerical Optimization*, section 3.5).
A result's ``history`` holds the (V, error) of each accepted iterate and
``n_outer_iter`` the loop's steps.

The outer loop needs only the gradient g' d(a*, b*)/dc of the validation
loss, not the whole sensitivity, so it takes it from one adjoint solve
(Pedregosa 2016, *Hyperparameter optimization with approximate gradient*)
with the transposed sensitivity system.  That system, like the inner
Newton Jacobian, is the identity outside the curvature band, so the solve
has one more row than the training margins inside the band.
``implicit_gradient`` still builds the full n x n sensitivity, for callers
that want it.  Both read the loss slopes u and v that the inner solve
stopped on and keeps in its model; a model built by hand computes them on
first use.

The outer loop moves c a little at a time, so each inner solve after the
first of a delta warm-starts from the model of the accepted iterate and
reuses its training Gram matrix, which is then built once per delta.
The validation Gram is built once per call, for every delta.

``WeightLearningConfig`` holds what callers vary (deltas, mode,
max_outer_iter).  The start weight C_INIT, the outer stop GTOL, the
first step STEP_INIT and the two boxes' WEIGHT_SPREAD and WEIGHT_FLOOR
are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .kernels import KernelSpec, gram
from .smooth import (PrimalModel, _bordered, _loss, _loss_slope,
                     _margin_slopes, solve_primal)

__all__ = [
    "GradientWorkspace",
    "implicit_gradient",
    "WeightLearningConfig",
    "WeightLearningResult",
    "learn_weights",
]

DEFAULT_DELTAS = (0.01, 0.1, 1.0)
C_INIT = 1.0  # every weight's start value
# outer stop: the bound on max |gradient in theta|
GTOL = 1e-6
# log mode: each weight stays within this factor of C_INIT
WEIGHT_SPREAD = 1e4
STEP_INIT = 1.0  # first step length, in theta
# projected mode: the floor that keeps c positive
WEIGHT_FLOOR = 1e-8


@dataclass
class GradientWorkspace:
    """Sensitivity of the inner solution: d alpha*/dc and d b*/dc."""

    u: np.ndarray        # u_i = y_i l'(y_i f_i)
    d_alpha: np.ndarray  # (n, n)
    d_b: np.ndarray      # (n,)
    kink_free: bool


def implicit_gradient(model: PrimalModel) -> GradientWorkspace:
    """Differentiate (a*, b*) with respect to the weights c.

    Solves

        [[I + diag(v) K, v], [1', 0]] [da; db] = -[diag(u); 0] dc

    where u_i = y_i l'(y_i f_i), v_i = c_i l''(y_i f_i).  When v = 0 the
    system is singular; the convention is d alpha*/dc = diag(u), db*/dc = 0.
    """
    n = model.data.n
    u, v = _slopes(model)
    if v.max() <= 0:
        return GradientWorkspace(u, np.diag(u), np.zeros(n), kink_free=True)
    rhs = np.zeros((n + 1, n))
    rhs[:n, :] = -np.diag(u)
    sol = np.linalg.solve(_bordered(model.gram_train, v, 1.0, 0.0), rhs)
    return GradientWorkspace(u, sol[:n, :], sol[n, :], kink_free=False)


def _slopes(model: PrimalModel):
    """u_i = y_i l'(y_i f_i) and v_i = c_i l''(y_i f_i) at the model: those
    its solve stopped on, or, for a model built by hand, computed on first
    use and kept."""
    if model._uv is None:
        y = model.data.y
        _, q, linear = _loss(y * model.decision_train, model.delta)
        model._uv = _margin_slopes(y, model.c, q, linear, model.delta)
    return model._uv


def _adjoint_gradient(model: PrimalModel, g_alpha, g_b: float):
    """d_alpha' g_alpha + g_b d_b of ``implicit_gradient``, from one solve.

    With mu = diag(v) w for the adjoint w of the sensitivity system, mu
    vanishes outside the band S and (mu_S, lambda_b) solve

        [[I + diag(v_S) K_SS, v_S], [1', 0]] [mu_S; lambda_b]
            = [v_S o g_alpha_S; g_b],

    after which the gradient is -u o (g_alpha - K_:S mu_S - lambda_b).
    With S empty it is u o g_alpha, the v = 0 convention.
    """
    u, v = _slopes(model)
    band = np.flatnonzero(v > 0)
    if band.size == 0:
        return u * g_alpha
    m = band.size
    v_S = v[band]
    K_cols = model.gram_train[:, band]
    M = _bordered(K_cols[band], v_S, 1.0, 0.0)
    rhs = np.empty(m + 1)
    np.multiply(v_S, g_alpha[band], out=rhs[:m])
    rhs[m] = g_b
    sol = np.linalg.solve(M, rhs)
    return -u * (g_alpha - K_cols @ sol[:m] - sol[m])


@dataclass(frozen=True)
class WeightLearningConfig:
    deltas: tuple[float, ...] = DEFAULT_DELTAS
    mode: str = "log"  # the loop's coordinate: "log" (log c) or "projected"
    max_outer_iter: int = 200

    def __post_init__(self):
        if self.mode not in ("log", "projected"):
            raise ValueError("mode must be 'log' or 'projected'")
        if not self.deltas:
            raise ValueError("need at least one delta")
        if any(not 0.01 <= d <= 1.0 for d in self.deltas):
            raise ValueError("deltas must lie in [0.01, 1]")
        if self.max_outer_iter < 0:
            raise ValueError("max_outer_iter must be nonnegative")


@dataclass
class WeightLearningResult:
    model: PrimalModel
    val_error: float
    val_loss: float
    history: list = field(default_factory=list)
    n_outer_iter: int = 0

    @property
    def weights(self) -> np.ndarray:
        return self.model.c

    @property
    def delta(self) -> float:
        return self.model.delta


def _val_loss(c, train, val, spec, delta, K_val, warm):
    """The inner model at weights c, its validation loss and error, and
    the loss slopes that its gradient (``_val_grad``) reads."""
    model = solve_primal(train, spec, c, delta, warm=warm)
    f_val = K_val.T @ model.alpha + model.b
    t = val.y * f_val
    value, q, linear = _loss(t, delta)
    return (float(value.sum()), float((t <= 0).mean()), model,
            val.y * _loss_slope(q, linear, delta))


def _val_grad(model, K_val, slopes):
    """The gradient of the validation loss in the weights, from one
    adjoint solve."""
    return _adjoint_gradient(model, K_val @ slopes, float(slopes.sum()))


def _backtrack(loss, slope, loss_new):
    """The factor of a rejected projected step: the minimiser of the
    quadratic q(t) with q(0) = loss, q'(0) = slope and q(1) = loss_new,
    clamped to [0.1, 0.5], or 0.5 where q has no positive curvature
    (Nocedal & Wright, *Numerical Optimization*, section 3.5)."""
    curvature = loss_new - loss - slope
    if not curvature > 0.0:
        return 0.5
    return min(max(-slope / (2.0 * curvature), 0.1), 0.5)


def _learn_one_delta(train: Dataset, val: Dataset, spec: KernelSpec,
                     delta: float, config: WeightLearningConfig, K_val):
    history = []
    best = WeightLearningResult(None, np.inf, np.inf, history)

    def record(loss, err, model):
        history.append((float(loss), float(err)))
        if (err, loss) < (best.val_error, best.val_loss):
            best.model, best.val_error, best.val_loss = model, err, loss

    # the loop's coordinate theta and its box: c itself, at or above the
    # floor, or log c, within log WEIGHT_SPREAD of log C_INIT
    log = config.mode == "log"
    if log:
        mid, spread = np.log(C_INIT), np.log(WEIGHT_SPREAD)
        lo, hi, weights = mid - spread, mid + spread, np.exp
    else:
        mid, lo, hi, weights = C_INIT, WEIGHT_FLOOR, np.inf, np.asarray

    def gradient(model, slopes, c):
        grad = _val_grad(model, K_val, slopes)
        return grad * c if log else grad  # chain rule through c = exp(theta)

    theta = np.full(train.n, mid)
    c = weights(theta)
    step = STEP_INIT
    loss, err, model, slopes = _val_loss(
        c, train, val, spec, delta, K_val, None)
    grad = gradient(model, slopes, c)
    record(loss, err, model)
    n_iter = 0
    for n_iter in range(1, config.max_outer_iter + 1):
        if np.abs(grad).max() <= GTOL:
            break
        moved = False
        while step > 1e-12:
            theta_new = np.minimum(hi, np.maximum(lo, theta - step * grad))
            c_new = weights(theta_new)
            # a rejected trial leaves the accepted iterate's model as the
            # start point of the next one, and needs no gradient
            loss_new, err_new, model_new, slopes = _val_loss(
                c_new, train, val, spec, delta, K_val, model)
            if loss_new <= loss - 1e-12:
                theta, loss, err = theta_new, loss_new, err_new
                model = model_new
                grad = gradient(model, slopes, c_new)
                record(loss, err, model)
                step *= 1.5
                moved = True
                break
            # retry at the minimiser of the quadratic through the loss, its
            # slope along the projected move and the trial's loss, kept
            # within 0.1-0.5 of the step; halve where that quadratic has no
            # positive curvature
            step *= _backtrack(loss, float(grad @ (theta_new - theta)),
                               loss_new)
        if not moved:
            break

    best.n_outer_iter = n_iter
    return best


def learn_weights(train: Dataset, val: Dataset, spec: KernelSpec,
                  config: WeightLearningConfig | None = None
                  ) -> WeightLearningResult:
    """Pick weights (and the smoothing level) against a validation set.

    Each delta on the grid is optimized independently; the winner is the
    run with the lowest validation misclassification rate, ties broken by
    lower validation loss and then smaller delta.  The best iterate seen
    during each run is kept, not the final one.
    """
    if config is None:
        config = WeightLearningConfig()
    if train.d != val.d:
        raise ValueError("train/validation feature dimension mismatch")
    K_val = gram(spec, train, val)  # every delta reads the same one
    runs = (_learn_one_delta(train, val, spec, delta, config, K_val)
            for delta in config.deltas)
    return min(runs, key=lambda r: (r.val_error, r.val_loss, r.delta))
