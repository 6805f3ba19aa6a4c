"""Optimality diagnostics: KKT residuals, offset uniqueness, dual uniqueness.

Stationarity is measured in function space through Gram products (the
feature maps are never materialized), so all residuals are exact under the
kernel trick up to floating point.

The uniqueness diagnostics take no tolerance: ``b_uniqueness`` works at
MARGIN_TOL, ``dual_uniqueness_condition`` at RANK_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .svmplus import SvmPlusModel
from .wsvm import DEFAULT_TOL, WsvmModel

__all__ = [
    "KktReport",
    "check_wsvm_kkt",
    "check_svmplus_kkt",
    "b_uniqueness",
    "BUniquenessResult",
    "dual_uniqueness_condition",
]

MARGIN_TOL = 1e-8  # margin and weight-balance tolerance of b_uniqueness
RANK_TOL = 1e-10


@dataclass
class KktReport:
    residuals: dict[str, float]
    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def to_text(self) -> str:
        lines = [f"{key} {value:.6e}" for key, value in self.residuals.items()]
        lines.append(f"max_violation {self.max_violation:.6e}")
        lines.append(f"tol {self.tol:.6e}")
        lines.append(f"pass {int(self.passed)}")
        return "\n".join(lines)


def _report(model: WsvmModel | SvmPlusModel, stationarity: dict,
            tol: float) -> KktReport:
    """Stationarity in b, the model's own further stationarity residuals,
    then the feasibility and complementarity residuals and the relative gap
    both models share."""
    y = model.data.y
    f = model.decision_train
    alpha, beta, xi = model.alpha, model.beta, model.xi
    residuals = {
        "stationarity_b": np.sum(model.coef),
        **stationarity,
        "primal_feasibility_margin": np.max(
            np.maximum(0.0, 1.0 - y * f - xi)),
        "primal_feasibility_slack": np.max(np.maximum(0.0, -xi)),
        "dual_feasibility_alpha": np.max(np.maximum(0.0, -alpha)),
        "dual_feasibility_beta": np.max(np.maximum(0.0, -beta)),
        "complementarity_margin": np.max(
            np.abs(alpha * (xi - 1.0 + y * f))),
        "complementarity_slack": np.max(np.abs(beta * xi)),
        "gap": ((model.objective_primal - model.objective_dual)
                / (1.0 + abs(model.objective_primal))),
    }
    clean = {k: float(abs(v)) for k, v in residuals.items()}
    return KktReport(
        residuals=clean,
        # np.max, unlike max, keeps a NaN residual, and NaN <= tol fails
        max_violation=float(np.max(list(clean.values()))),
        tol=tol,
    )


def check_wsvm_kkt(model: WsvmModel, tol: float = DEFAULT_TOL) -> KktReport:
    return _report(model, {
        "stationarity_xi": np.max(
            np.abs(model.alpha + model.beta - model.c)),
    }, tol)


def check_svmplus_kkt(model: SvmPlusModel,
                      tol: float = DEFAULT_TOL) -> KktReport:
    # correcting-space stationarity: Kt at = gamma (xi - bt)
    corr = model.kt_at - model.gamma * (model.xi - model.b_tilde)
    return _report(model, {
        "stationarity_b_tilde": np.sum(model.alpha + model.beta - model.C),
        "stationarity_w_tilde": np.max(np.abs(corr)),
    }, tol)


@dataclass
class BUniquenessResult:
    interval: tuple[float, float]
    condition: int | None  # which balance condition triggered (1 or 2)

    @property
    def unique(self) -> bool:
        return self.condition is None

    def to_text(self) -> str:
        lo, hi = self.interval
        return (f"unique {int(self.unique)}\n"
                f"interval {lo:.17g} {hi:.17g}\n"
                f"condition {self.condition if self.condition else 0}")


def b_uniqueness(model: WsvmModel) -> BUniquenessResult:
    """Evaluate both weight-balance conditions for offset non-uniqueness;
    the interval reported is the model's stored ``b_interval``.  Each
    condition balances the weight of one label's margin-violated points
    against that of the other label's margin-active or violated points."""
    y = model.data.y
    margin = y * model.decision_train
    i_0 = margin < 1.0 - MARGIN_TOL  # margin violated
    i_1 = margin <= 1.0 + MARGIN_TOL  # margin active or violated
    plus, minus = y > 0, y < 0
    c = model.c

    def mass(mask):
        return float(np.sum(c[mask]))

    tol = MARGIN_TOL * (1.0 + float(np.sum(c)))
    cond: int | None = None
    if abs(mass(minus & i_0) - mass(plus & i_1)) <= tol:
        cond = 1
    elif abs(mass(plus & i_0) - mass(minus & i_1)) <= tol:
        cond = 2
    return BUniquenessResult(interval=model.b_interval, condition=cond)


def dual_uniqueness_condition(K: np.ndarray, y) -> bool:
    """True iff Null(YKY), 1-perp and y-perp intersect only in 0.

    Checked as the stacked matrix [YKY; 1'; y'] having numerical rank n at
    relative threshold RANK_TOL.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = K.shape[0]
    if K.shape != (n, n):
        raise ValueError("K must be square")
    # YKY, 1' and y' in one buffer; labels are +-1, so the two sign flips
    # give the bits of (y_i y_j) K_ij
    stacked = np.empty((n + 2, n))
    np.multiply(K, y[:, None], out=stacked[:n])
    stacked[:n] *= y
    stacked[n] = 1.0
    stacked[n + 1] = y
    s = np.linalg.svd(stacked, compute_uv=False)
    return bool(s[-1] > RANK_TOL * s[0])
