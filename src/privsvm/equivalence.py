"""The constructive bridge between weighted SVM and SVM+ solutions.

Given a WSVM solution, the statistic rho = <c - cbar 1, xi*> decides
whether any correcting space can reproduce it; when rho >= 0 a minimal
one-dimensional privileged feature set does the job.  In the opposite
direction, c = alpha + beta extracted from an SVM+ solution always yields
an equivalent WSVM, with the same alpha and b, so it is built, not solved.

The diagnostics take no tolerance: the sign of rho is judged in one place
(``equivalence_report``), up to a rounding bound (``_rho_tol``), and
``family_membership`` compares at FAMILY_TOL.  ``equivalence_report``
evaluates rho once and builds the privileged features when it holds;
``construct_privileged`` reads them off the report, or raises
NotRepresentableError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PrivilegedSet
from .svmplus import SvmPlusModel
from .wsvm import WsvmModel, _model

__all__ = [
    "NotRepresentableError",
    "EquivalenceReport",
    "rho",
    "weights_from_svmplus",
    "wsvm_from_svmplus",
    "construct_privileged",
    "ConstructedPrivileged",
    "family_membership",
    "equivalence_report",
]

FAMILY_TOL = 1e-6  # tolerance of family_membership


class NotRepresentableError(ValueError):
    """No correcting space reproduces the given WSVM solution."""


def _rho_tol(c: np.ndarray, xi: np.ndarray) -> float:
    return 1e-10 * (1.0 + np.linalg.norm(xi) * np.linalg.norm(c))


def rho(c, xi) -> tuple[float, float | None]:
    """Both forms of the weighted-minus-mean slack statistic.

    Returns (<c - cbar 1, xi>, sum_i w_i xi_i - mean(xi)) where w are the
    weights normalized to sum one.  The normalized form is None when the
    weights sum to zero.
    """
    c = np.asarray(c, dtype=float).ravel()
    xi = np.asarray(xi, dtype=float).ravel()
    if c.shape != xi.shape:
        raise ValueError("weight and slack vectors must have equal length")
    unnormalized = float((c - np.mean(c)) @ xi)
    total = float(np.sum(c))
    normalized = unnormalized / total if total > 0 else None
    return unnormalized, normalized


def weights_from_svmplus(model: SvmPlusModel) -> np.ndarray:
    """Equivalent WSVM weights c = alpha + beta."""
    return model.alpha + model.beta


def wsvm_from_svmplus(plus: SvmPlusModel) -> WsvmModel:
    """The equivalent WSVM of an SVM+ fit: weights alpha + beta, whose
    optimal dual is the fit's alpha with the fit's offset b."""
    return _model(plus.data, plus.spec, weights_from_svmplus(plus),
                  plus.alpha, plus.f0, plus.b, 0)


@dataclass
class ConstructedPrivileged:
    C: float
    gamma: float
    priv: PrivilegedSet  # one-dimensional features xt_i = xi_i - bt
    w_tilde: float
    b_tilde: float


def construct_privileged(model: WsvmModel) -> ConstructedPrivileged:
    """Build (C, gamma, privileged features) making the WSVM solution an
    SVM+ solution, with the minimal one-dimensional linear correcting space.

    Requires rho(c, xi*) >= 0; otherwise no correcting space exists for
    this weighting and NotRepresentableError is raised.
    """
    report = equivalence_report(model)
    if report.constructed is None:
        raise NotRepresentableError(
            f"rho(c, xi*) = {report.rho_unnormalized:.6g} < 0: the weighted "
            "average slack is below the plain average, so no correcting "
            "space reproduces this solution"
        )
    return report.constructed


def family_membership(candidate, model: WsvmModel) -> bool:
    """Decide whether ``candidate`` belongs to the equivalent-weight family
    of the given WSVM solution.

    Phase-1 linear feasibility for a split c = mu + nu with nu supported on
    zero-slack points: mu >= 0 with KY mu = KY alpha*, y'mu = 0,
    1'mu = 1'alpha*, mu <= c, and mu = c off the zero-slack set, every
    comparison at FAMILY_TOL.
    """
    c = np.asarray(candidate, dtype=float).ravel()
    n = model.data.n
    if c.shape[0] != n:
        raise ValueError("candidate length mismatch")
    if np.any(c < -FAMILY_TOL):
        return False
    from scipy.optimize import linprog  # slow to import; only used here
    K = model.gram_train
    y = model.data.y
    alpha = model.alpha
    zero_slack = model.xi <= FAMILY_TOL
    free = np.flatnonzero(zero_slack)
    fixed = np.flatnonzero(~zero_slack)
    rhs_full = np.concatenate([K @ (y * alpha), [0.0], [np.sum(alpha)]])
    A_full = np.vstack([K * y[None, :], y[None, :], np.ones((1, n))])
    rhs = rhs_full - A_full[:, fixed] @ c[fixed]
    A = A_full[:, free]
    scale = FAMILY_TOL * (1.0 + np.abs(rhs_full).max())
    if free.size == 0:
        return bool(np.max(np.abs(rhs)) <= scale)
    A_ub = np.vstack([A, -A])
    b_ub = np.concatenate([rhs + scale, -(rhs - scale)])
    res = linprog(
        c=np.zeros(free.size),
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(0.0, c[j] + FAMILY_TOL) for j in free],
        method="highs",
    )
    return bool(res.status == 0)


@dataclass
class EquivalenceReport:
    rho_unnormalized: float
    rho_normalized: float | None
    constructed: ConstructedPrivileged | None  # built iff rho >= 0 holds
    family_membership: bool | None = None

    @property
    def necessary_condition_holds(self) -> bool:
        return self.constructed is not None

    def to_text(self) -> str:
        norm = ("nan" if self.rho_normalized is None
                else f"{self.rho_normalized:.17g}")
        lines = [
            f"rho_unnormalized {self.rho_unnormalized:.17g}",
            f"rho_normalized {norm}",
            f"necessary_condition {int(self.necessary_condition_holds)}",
        ]
        built = self.constructed
        if built is not None:
            lines += [
                f"constructed_C {built.C:.17g}",
                f"constructed_gamma {built.gamma:.17g}",
                f"constructed_b_tilde {built.b_tilde:.17g}",
                f"constructed_w_tilde {built.w_tilde:.17g}",
            ]
        else:
            lines.append("constructed none")
        if self.family_membership is not None:
            lines.append(f"family_membership {int(self.family_membership)}")
        return "\n".join(lines)


def equivalence_report(model: WsvmModel,
                       candidate=None) -> EquivalenceReport:
    """rho of the model's own weights and slacks, whether the necessary
    condition rho >= 0 holds (up to the rounding of _rho_tol) and, when it
    does, the constructed privileged features; with ``candidate``, also
    whether it is in the equivalent-weight family."""
    c, xi = model.c, model.xi
    unnorm, norm = rho(c, xi)
    constructed = None
    if unnorm >= -_rho_tol(c, xi):
        b_tilde = float(c @ xi / np.sum(c))
        constructed = ConstructedPrivileged(
            C=float(np.mean(c)),
            gamma=max(unnorm, 0.0),
            priv=PrivilegedSet((xi - b_tilde)[:, None]),
            w_tilde=1.0,
            b_tilde=b_tilde,
        )
    return EquivalenceReport(
        rho_unnormalized=unnorm,
        rho_normalized=norm,
        constructed=constructed,
        family_membership=(None if candidate is None
                           else family_membership(candidate, model)),
    )
