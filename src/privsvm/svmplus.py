"""SVM+ dual solver with coupled decision and correcting spaces.

The dual is

    min_{a, at}  F(a) + (1/g) Ft(at)
    s.t.  y'a = 0,  1'at = 0,  0 <= a_i <= C + at_i

with F(a) = 1/2 a'YKY a - 1'a, Ft(at) = 1/2 at' Kt at and at = a + b - C 1
(b being the second block of nonnegative duals).  We optimize over
z = (a, b) >= 0 under the two equality constraints y'a = 0 and
1'(a + b) = nC with the package's active-set QP core (``privsvm.qp``).
Its moves are the same-class pairs of the classes a+, a- and b (an
a-transfer within one label, a b-transfer) and the triple +-(1, 1, -2):
one a of each label up, one b down by twice as much, or the reverse.

H z = [Qa + Kt s/g; Kt s/g] with s = a + b, so row i < n of H is
[Q_i + Kt_i/g, Kt_i/g] and row n + i is [Kt_i/g, Kt_i/g].  Q = YKY and
Kt are row sources (``kernels._KernelRows``), as the weighted SVM's Q
is: whole up to 256 points, and above that each row computed on first
use, of which a fit reads a few percent.  A grid search hands each fit
the whole matrices it built once per kernel candidate (``_Q``, shared
with the weighted SVM's grid, and ``_Kt``).  While both are whole
the fit forms the dense H once; above 256 points the core reads H
through a view that forms each row as it is read, with the bits of the
dense H.  The three products a fit needs, the linear term Kt (C/g) 1,
Q a and Kt at, are the sources' ``dot``: above 256 points Q a sums the
support rows that the solve computed, and the other two are kernel
expansions, 256 points at a time, so no n x n matrix is built.  The
start z0 = (0, nC e_1) puts all b mass on the first b, which has no
upper bound; its gradient is one row of H.  The constraints do not
involve gamma, so a grid search starts each fit after the first gamma of
a (kernel pair, C) cell from the previous gamma's z = (a, b) (``_start``;
alpha seeding, DeCoste & Wagstaff 2000), whose gradient sums the rows of
its support.  The model is a kernel
expansion (``kernels._Expansion``) that the solve leaves no Gram: it
keeps f0 = K(y o a) without the offset, read off Q a, and Kt at, all
that decision_train and the KKT report read; both objectives are read
off the same two products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, PrivilegedSet
from .kernels import KernelSpec, _Expansion, _KernelRows
from .qp import solve_qp
from .wsvm import DEFAULT_MAX_ITER, DEFAULT_TOL, _pick_offset, solve_wsvm

__all__ = ["SvmPlusModel", "solve_svmplus"]


@dataclass(kw_only=True)
class SvmPlusModel(_Expansion):
    priv: PrivilegedSet
    priv_spec: KernelSpec
    C: float
    gamma: float
    beta: np.ndarray
    alpha_tilde: np.ndarray
    b_tilde: float
    xi: np.ndarray
    objective_primal: float
    objective_dual: float
    kt_at: np.ndarray   # Kt alpha_tilde

    @property
    def h(self) -> np.ndarray:
        """The hinge of the decision values, max(0, 1 - y f)."""
        return np.maximum(0.0, 1.0 - self.data.y * self.decision_train)


def solve_svmplus(data: Dataset, priv: PrivilegedSet, spec: KernelSpec,
                  priv_spec: KernelSpec, C: float, gamma: float,
                  tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, *,
                  _Q: np.ndarray | None = None,
                  _Kt: np.ndarray | None = None,
                  _start: SvmPlusModel | None = None) -> SvmPlusModel:
    """Solve the SVM+ problem for finite hyperparameters C > 0, gamma >= 0.

    ``_Q``, ``_Kt`` and ``_start`` are private to the package's grid
    searches.  ``_Q`` and ``_Kt`` are this data's whole Q = YKY under
    ``spec`` and the whole privileged Gram under ``priv_spec``, or None.
    ``_start`` is a fit on the same data at the same C, whose (alpha,
    beta) is the QP core's start in place of (0, nC e_1); the gamma = 0
    reduction solves a weighted SVM and does not read it.
    """
    # an integer C would make b an integer array and truncate every step
    C, gamma = float(C), float(gamma)
    if not 0 < C < np.inf:
        raise ValueError("C must be positive and finite")
    if not 0 <= gamma < np.inf:
        raise ValueError("gamma must be nonnegative and finite")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    priv.check_aligned(data)
    if _start is not None and (_start.data is not data or _start.C != C):
        # 1'(a + b) = nC is fixed by the start: another C's fit would
        # solve another problem
        raise ValueError("a start must be a fit on the same data at the "
                         "same C")
    if gamma == 0.0:
        return _solve_gamma_zero(data, priv, spec, priv_spec, C, tol,
                                 max_iter, _Q)

    n = data.n
    y = data.y
    # (1/2g) at' Kt at is quadratic in a + b: Kt/g is in every block of H
    Kt = _KernelRows(priv_spec, priv, None, _Kt)
    Q = _KernelRows(spec, data, y, _Q)
    shift = Kt.dot(np.full(n, C / gamma))
    A = np.zeros((2, 2 * n))
    A[0, :n] = y
    A[1] = 1.0
    if _start is None:
        z0 = np.zeros(2 * n)
        z0[n] = n * C
    else:
        z0 = np.concatenate((_start.alpha, _start.beta))
    z, n_iter = solve_qp(_hessian(Q, Kt, gamma),
                         np.concatenate((-1.0 - shift, -shift)), A,
                         np.full(2 * n, np.inf), z0, tol, max_iter)
    alpha, beta = np.split(z, 2)
    at = alpha + beta - C
    return _finish(data, priv, spec, priv_spec, C, gamma, alpha, beta, at,
                   Q.dot(alpha), Kt.dot(at), n_iter)


def _hessian(Q: _KernelRows, Kt: _KernelRows, gamma: float):
    """H over z = (a, b): the dense matrix, every row formed once, when the
    row sources hold Q and Kt whole, else a view that forms each row as
    the core reads it."""
    if Q.whole is None or Kt.whole is None:
        return _HRows(Q, Kt, gamma)
    return _HRows(Q.whole, Kt.whole, gamma).take(np.arange(2 * len(Q)))


@dataclass
class _HRows:
    """H over z = (a, b), one row at a time from Q and Kt (matrices or
    row sources); each row of Kt is divided by g as it is formed, with
    the bits of the matrix Kt/g."""
    Q: np.ndarray
    Kt: np.ndarray
    gamma: float

    def take(self, rows, axis=0):
        rows, n = np.asarray(rows), len(self.Q)
        out = np.empty((rows.size, 2 * n))
        out[:, :n] = out[:, n:] = self.Kt.take(rows % n, 0) / self.gamma
        out[rows < n, :n] += self.Q.take(rows[rows < n], 0)
        return out


def _finish(data, priv, spec, priv_spec, C, gamma, alpha, beta, at,
            q_alpha, kt_at, n_iter) -> SvmPlusModel:
    y = data.y
    gb = kt_at / gamma
    ga = q_alpha - 1.0 + gb
    # the labels are +-1, so f0 has the bits of the same product over K
    f0 = y * q_alpha

    # multiplier of the sum constraint, then the offsets
    sup_b = beta > 1e-12
    sup_a_pos = (alpha > 1e-12) & (y > 0)
    sup_a_neg = (alpha > 1e-12) & (y < 0)
    if sup_b.any():
        mult = float(np.mean(gb[sup_b]))
    elif sup_a_pos.any() and sup_a_neg.any():
        mult = 0.5 * (float(np.mean(ga[sup_a_pos])) + float(np.mean(ga[sup_a_neg])))
    else:
        mult = float(np.min(gb))
    b_tilde = -mult
    xi = gb - mult

    if sup_a_pos.any() or sup_a_neg.any():
        # stationarity on supports: ga_i = lam * y_i + mult with b = -lam
        vals = []
        if sup_a_pos.any():
            vals.append(np.mean(ga[sup_a_pos] - mult))
        if sup_a_neg.any():
            vals.append(-np.mean(ga[sup_a_neg] - mult))
        b = -float(np.mean(vals))
    else:
        # no support vector: the optimal offsets form an interval around
        # the constant classifier
        lo = np.max(1.0 - xi[y > 0]) if np.any(y > 0) else -np.inf
        hi = np.min(xi[y < 0] - 1.0) if np.any(y < 0) else np.inf
        b = _pick_offset((lo, hi))

    quad = float(alpha @ q_alpha)
    quad_t = float(at @ kt_at)
    primal = 0.5 * quad + 0.5 * quad_t / gamma + C * float(np.sum(xi))
    dual = float(np.sum(alpha)) - 0.5 * quad - 0.5 * quad_t / gamma
    return SvmPlusModel(
        data=data, priv=priv, spec=spec, priv_spec=priv_spec, C=C,
        gamma=gamma, alpha=alpha, beta=beta, alpha_tilde=at, b=b,
        b_tilde=b_tilde, xi=xi, objective_primal=primal,
        objective_dual=dual, f0=f0, kt_at=kt_at, n_iter=n_iter,
    )


def _solve_gamma_zero(data, priv, spec, priv_spec, C, tol, max_iter,
                      Q) -> SvmPlusModel:
    """gamma = 0 path: the soft-margin reduction, valid when the privileged
    design has full row rank n (any slack vector is then representable);
    Q is the caller's whole Q = YKY, or None."""
    X = priv.X
    rank = np.linalg.matrix_rank(X) if X.size else 0
    if rank < data.n:
        raise ValueError(
            "gamma = 0 requires a privileged design of full row rank "
            f"(rank {rank} < n = {data.n}); no reduction applies"
        )
    wsvm = solve_wsvm(data, spec, np.full(data.n, C), tol=tol,
                      max_iter=max_iter, _Q=Q)
    at = np.zeros(data.n)
    # correcting function reproducing the slacks: xi = Xt' wt + bt with
    # bt fixed by the weighted-average convention
    b_tilde = float(np.mean(wsvm.xi))
    return SvmPlusModel(
        data=data, priv=priv, spec=spec, priv_spec=priv_spec, C=C,
        gamma=0.0, alpha=wsvm.alpha, beta=wsvm.beta, alpha_tilde=at,
        b=wsvm.b, b_tilde=b_tilde, xi=wsvm.xi.copy(),
        objective_primal=wsvm.objective_primal,
        objective_dual=wsvm.objective_dual, f0=wsvm.f0,
        kt_at=np.zeros(data.n), n_iter=wsvm.n_iter,
    )

