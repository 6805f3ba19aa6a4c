"""The constructive bridge between weighted SVM and SVM+ solutions.

Given a WSVM solution, the statistic rho = <c - cbar 1, xi*> decides
whether any correcting space can reproduce it; when rho >= 0 a minimal
one-dimensional privileged feature set does the job.  In the opposite
direction, c = alpha + beta extracted from an SVM+ solution always yields
an equivalent WSVM, with the same alpha and b, so it is built, not solved.
The weightings that share one WSVM primal solution form its family: a
candidate c is a member when the model's primal solution is optimal under
c.  ``family_membership`` decides that as the KKT test of (w*, b*) under
c, one minimisation on the QP core that both duals use.

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
from .qp import solve_qp
from .svmplus import SvmPlusModel
from .wsvm import DEFAULT_MAX_ITER, DEFAULT_TOL, WsvmModel, _model

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
    """Whether ``candidate`` is in the equivalent-weight family of the
    given WSVM solution: whether the model's primal solution (w*, b*) is
    optimal under the candidate weights.

    That is the KKT test of (w*, b*) under c: some dual mu has mu = c
    where y f < 1, mu = 0 where y f > 1, 0 <= mu <= c on the margin set E
    where y f = 1, y'mu = 0 and the model's w, K Y mu = K Y alpha*.  With
    mu fixed off E, the QP core minimises 1/2 (mu - alpha*)' Q (mu -
    alpha*) over mu on E, the weighted SVM's own QP shape, from a start
    that puts y'mu's deficit on one label's margin points in proportion
    to their room.  The candidate is a member when that room covers the
    deficit and |K Y (mu - alpha*)| <= FAMILY_TOL (1 + max |K Y alpha*|)
    on every point; the other comparisons are at FAMILY_TOL too.  A
    negative weight is no member, and a non-finite one raises ValueError.
    """
    c = np.asarray(candidate, dtype=float).ravel()
    if c.shape[0] != model.data.n:
        raise ValueError("candidate length mismatch")
    if not np.all(np.isfinite(c)):
        raise ValueError("candidate weights must be finite")
    if np.any(c < -FAMILY_TOL):
        return False
    y, alpha, K = model.data.y, model.alpha, model.gram_train
    margin = y * model.decision_train
    fixed = np.where(margin < 1.0 - FAMILY_TOL, c, 0.0)  # mu off E
    hi = np.where(np.abs(margin - 1.0) <= FAMILY_TOL, c + FAMILY_TOL, 0.0)
    top = 1.0 + float(np.abs(model.f0).max())  # f0 = K Y alpha*
    scale = FAMILY_TOL * top
    deficit = -float(y @ fixed)
    room = np.where(y * deficit > 0, hi, 0.0)
    total = float(room.sum())
    if abs(deficit) - total > scale:
        return False
    start = room * min(1.0, abs(deficit) / total) if total > 0 else room
    Q = y[:, None] * K * y
    # the QP's gap is in the units of K Y (mu - alpha*): the weighted SVM's
    # default tolerance, relative as the bound is, stops it at 1/100 of
    # the bound, well above the core's rounding
    mu_e, _ = solve_qp(Q, Q @ (fixed - alpha), y[None, :], hi, start,
                       DEFAULT_TOL * top, DEFAULT_MAX_ITER)
    distance = K @ (y * (fixed + mu_e - alpha))
    return bool(np.abs(distance).max() <= scale)


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
