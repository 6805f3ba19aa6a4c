"""Learning per-instance weights by minimizing a smoothed validation loss.

The inner problem trains the smoothed-hinge primal for given weights c;
its minimizer (a*(c), b*(c)) is differentiable in c wherever the inner
Hessian is nonsingular, with sensitivity obtained by implicit
differentiation of the stationarity system.  The outer objective

    V(c) = sum_j l_delta(y'_j f_c(x'_j))

over a validation set is then minimized by bounded L-BFGS-B in
log-weights (which keeps c positive and within a factor WEIGHT_SPREAD of
c_init, so weight ratios are at most WEIGHT_SPREAD**2 and every inner solve
can be certified) or, alternatively, by projected gradient in c directly.
An inner solve that cannot be certified raises ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .data import Dataset
from .kernels import KernelSpec, gram
from .smooth import PrimalModel, smooth_hinge, solve_primal

__all__ = [
    "GradientWorkspace",
    "implicit_gradient",
    "WeightLearningConfig",
    "WeightLearningResult",
    "learn_weights",
]

DEFAULT_DELTAS = (0.01, 0.1, 1.0)
# log mode: each weight stays within this factor of c_init
WEIGHT_SPREAD = 1e4


@dataclass
class GradientWorkspace:
    """Sensitivity of the inner solution: d alpha*/dc and d b*/dc."""

    u: np.ndarray        # u_i = y_i l'(y_i f_i)
    v: np.ndarray        # v_i = c_i l''(y_i f_i)
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
    y = model.data.y
    n = model.data.n
    K = model.gram_train
    t = y * model.decision_train
    _, d1, d2 = smooth_hinge(t, model.delta)
    u = y * d1
    v = model.c * d2
    if np.max(v) <= 0:
        return GradientWorkspace(u, v, np.diag(u), np.zeros(n),
                                 kink_free=True)
    J = np.empty((n + 1, n + 1))
    J[:n, :n] = np.eye(n) + v[:, None] * K
    J[:n, n] = v
    J[n, :n] = 1.0
    J[n, n] = 0.0
    rhs = np.zeros((n + 1, n))
    rhs[:n, :] = -np.diag(u)
    sol = np.linalg.solve(J, rhs)
    return GradientWorkspace(u, v, sol[:n, :], sol[n, :], kink_free=False)


@dataclass(frozen=True)
class WeightLearningConfig:
    deltas: tuple[float, ...] = DEFAULT_DELTAS
    c_init: float = 1.0
    mode: str = "log"          # "log" (L-BFGS-B in log-weights) or "projected"
    gtol: float = 1e-6
    max_outer_iter: int = 200
    step_init: float = 1.0     # projected mode only
    weight_floor: float = 1e-8  # projected mode only

    def __post_init__(self):
        if self.mode not in ("log", "projected"):
            raise ValueError("mode must be 'log' or 'projected'")
        if not self.deltas:
            raise ValueError("need at least one delta")
        if any(not 0.01 <= d <= 1.0 for d in self.deltas):
            raise ValueError("deltas must lie in [0.01, 1]")
        if not self.c_init > 0:
            raise ValueError("c_init must be positive")


@dataclass
class WeightLearningResult:
    weights: np.ndarray
    model: PrimalModel
    delta: float
    val_error: float
    val_loss: float
    history: list = field(default_factory=list)
    n_outer_iter: int = 0


def _val_loss_and_grad(c, train, val, spec, delta, K_val):
    model = solve_primal(train, spec, c, delta)
    f_val = K_val.T @ model.alpha + model.b
    t = val.y * f_val
    value, d1, _ = smooth_hinge(t, delta)
    loss = float(np.sum(value))
    err = float(np.mean(t <= 0))
    work = implicit_gradient(model)
    g_alpha = K_val @ (val.y * d1)
    g_b = float(np.sum(val.y * d1))
    grad = work.d_alpha.T @ g_alpha + g_b * work.d_b
    return loss, grad, err, model


def _learn_one_delta(train: Dataset, val: Dataset, spec: KernelSpec,
                     delta: float, config: WeightLearningConfig):
    n = train.n
    K_val = gram(spec, train, val)
    history = []
    best = {"loss": np.inf, "err": np.inf, "c": None, "model": None}

    def record(c, loss, err, model):
        history.append((float(loss), float(err)))
        if (err, loss) < (best["err"], best["loss"]):
            best.update(loss=loss, err=err, c=c.copy(), model=model)

    if config.mode == "log":
        def fun(theta):
            c = np.exp(theta)
            loss, grad, err, model = _val_loss_and_grad(
                c, train, val, spec, delta, K_val)
            record(c, loss, err, model)
            return loss, grad * c  # chain rule through c = exp(theta)

        t0 = np.log(config.c_init)
        spread = np.log(WEIGHT_SPREAD)
        res = minimize(fun, np.full(n, t0), jac=True, method="L-BFGS-B",
                       bounds=[(t0 - spread, t0 + spread)] * n,
                       options={"gtol": config.gtol,
                                "maxiter": config.max_outer_iter})
        n_iter = int(res.nit)
    else:
        c = np.full(n, config.c_init)
        step = config.step_init
        loss, grad, err, model = _val_loss_and_grad(
            c, train, val, spec, delta, K_val)
        record(c, loss, err, model)
        n_iter = 0
        for n_iter in range(1, config.max_outer_iter + 1):
            if np.max(np.abs(grad)) <= config.gtol:
                break
            moved = False
            while step > 1e-12:
                c_new = np.maximum(config.weight_floor, c - step * grad)
                loss_new, grad_new, err_new, model_new = _val_loss_and_grad(
                    c_new, train, val, spec, delta, K_val)
                if loss_new <= loss - 1e-12:
                    c, loss, grad, err, model = (
                        c_new, loss_new, grad_new, err_new, model_new)
                    record(c, loss, err, model)
                    step *= 1.5
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break

    return best["c"], best["model"], best["err"], best["loss"], history, n_iter


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
    best = None
    for delta in config.deltas:
        c, model, err, loss, history, n_iter = _learn_one_delta(
            train, val, spec, delta, config)
        key = (err, loss, delta)
        if best is None or key < best[0]:
            best = (key, WeightLearningResult(
                weights=c, model=model, delta=float(delta),
                val_error=float(err), val_loss=float(loss),
                history=history, n_outer_iter=n_iter))
    return best[1]
