"""The active-set QP core shared by the weighted-SVM and SVM+ duals.

Solves

    min_z  1/2 z' H z + p' z   s.t.  A z = A z0,  0 <= z <= hi

for a symmetric positive semidefinite H, one or two equality rows A with
small integer entries, and upper bounds hi that may be infinite.  The
module is internal: ``solve_wsvm`` and ``solve_svmplus`` are its callers.

Working set.  Variables are grouped into classes by their column of A;
moving one variable up and another of the same class down by the same
amount keeps A z fixed.  With K classes whose columns span K - 1
dimensions there is one more feasible move: the integer null combination
v of the class columns, applied to one variable per class.  The weighted
SVM (A = y') has the classes y = +1 and y = -1 and v = (1, 1); SVM+ over
z = (a, b) (A = [y' 0; 1' 1']) has the classes a+, a- and b and
v = (1, 1, -2).  Each iteration picks every class's best "up" and "down"
candidate once (lowest gradient among variables below their upper bound,
highest among variables above zero) and takes the most violating move
among the same-class pairs and +-v built from those picks.  Each move is
an exact line search clipped to the box; ties go to the first move in
that order and to the lowest index.  The largest violation is the
maximal-violating-pair gap of SMO, and the solver stops when it is <= tol.

Face step.  Pairwise moves can zigzag with tiny steps on an
ill-conditioned or rank-deficient face, so every 64 iterations an exact
minimisation over the variables strictly inside the box replaces the move.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import null_space

__all__ = ["ConvergenceError", "solve_qp"]

FACE_EVERY = 64


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final residual {residual:.3e})")
        self.residual = residual


def _face_step(z: np.ndarray, G: np.ndarray, H: np.ndarray, A: np.ndarray,
               hi: np.ndarray) -> bool:
    """Exact minimization over the variables currently strictly inside the
    box, holding the rest at their bounds.

    Primal active-set inner loop: solve the equality-constrained problem on
    the free set, clip the move to the box with a ratio test, drop pinned
    variables, repeat.  Mutates z and G (= H z + p) in place; returns True
    if anything moved.
    """
    free = (z > 0) & (z < hi)
    r = A.shape[0]
    moved = False
    for _ in range(int(np.sum(free)) + 1):
        F = np.flatnonzero(free)
        m = F.size
        if m == 0:
            break
        g = G[F]
        HFF = H[np.ix_(F, F)]
        AF = A[:, F]
        # With a rank-deficient face Hessian the objective can decrease
        # linearly along a feasible null direction (HFF v = 0, AF v = 0);
        # a least-squares Newton solve is blind to that component, so look
        # for such a direction first and ride it to the nearest bound.
        _, s, Vt = np.linalg.svd(np.vstack([HFF, AF]), full_matrices=False)
        smax = s[0] if s.size else 0.0
        d = None
        cap = 1.0
        for k in range(m - 1, -1, -1):
            if s[k] > max(m, 3) * np.finfo(float).eps * smax:
                break
            v = Vt[k]
            gv = float(g @ v)
            if abs(gv) > 1e-10 * max(1.0, float(np.linalg.norm(g))):
                d = -np.sign(gv) * v
                cap = np.inf
                break
        if d is None:
            kkt = np.block([[HFF, AF.T], [AF, np.zeros((r, r))]])
            d = np.linalg.lstsq(kkt, np.r_[-g, np.zeros(r)], rcond=None)[0][:m]
            if not np.all(np.isfinite(d)):
                break
            # re-project onto the equality null space: feasibility must not drift
            d -= AF.T @ np.linalg.lstsq(AF.T, d, rcond=None)[0]
            if float(g @ d) >= -1e-15 or np.max(np.abs(d)) <= 1e-16:
                break
        cur = z[F]
        with np.errstate(divide="ignore", invalid="ignore"):
            lim = np.where(d < -1e-300, -cur / d,
                           np.where(d > 1e-300, (hi[F] - cur) / d, np.inf))
        tau = min(cap, float(np.min(lim)))
        if not np.isfinite(tau) or tau <= 0:
            break
        new = np.clip(cur + tau * d, 0.0, hi[F])
        G += (new - cur) @ H[F]
        z[F] = new
        moved = True
        if tau >= cap:
            break
        free &= (z > 0) & (z < hi)
    return moved


def solve_qp(H: np.ndarray, p: np.ndarray, A: np.ndarray, hi: np.ndarray,
             z0: np.ndarray, tol: float,
             max_iter: int) -> tuple[np.ndarray, int]:
    """Minimize from the feasible point z0; returns (z, iterations).

    Raises ConvergenceError, carrying the final violation, when max_iter
    iterations do not bring the largest violation down to tol.
    """
    cols, cls = np.unique(A.T, axis=0, return_inverse=True)
    rows = np.arange(len(cols))
    # one row per class: 0 on the class's members, +inf elsewhere
    outside = np.where(cls.ravel() == rows[:, None], 0.0, np.inf)
    null = null_space(cols.T)
    cross_moves = []  # (coefficients, which classes move up)
    if null.shape[1] == 1:
        # A has small integer entries, so v scales to integers
        v = np.rint(null[:, 0] / np.min(np.abs(null[:, 0])))
        cross_moves = [(v, v > 0), (-v, v < 0)]
    pair = np.array([1.0, -1.0])
    z = np.array(z0, dtype=float)
    G = H @ z + p
    viol = np.inf
    for it in range(max_iter):
        up_g = np.where(z < hi, G, np.inf) + outside
        dn_g = np.where(z > 0, G, -np.inf) - outside
        up, dn = np.argmin(up_g, axis=1), np.argmax(dn_g, axis=1)
        up_val, dn_val = up_g[rows, up], dn_g[rows, dn]
        # most violating move: same-class pairs, then +v, then -v; a class
        # without a candidate gives a violation of -inf
        gaps = dn_val - up_val
        k = int(np.argmax(gaps))
        viol, idx, cf = float(gaps[k]), np.array([up[k], dn[k]]), pair
        for sv, use_up in cross_moves:
            cross = -float(sv @ np.where(use_up, up_val, dn_val))
            if cross > viol:
                viol, idx, cf = cross, np.where(use_up, up, dn), sv
        if viol <= tol:
            return z, it
        if it % FACE_EVERY == FACE_EVERY - 1 and _face_step(z, G, H, A, hi):
            continue
        cur = z[idx]
        room = np.where(cf > 0, hi[idx] - cur, cur) / np.abs(cf)
        t_max = float(np.min(room))
        H_idx = H[idx]
        curv = float(cf @ H_idx[:, idx] @ cf)
        t = min(t_max, viol / curv) if curv > 1e-300 else t_max
        if not 0.0 < t < np.inf:
            raise ConvergenceError("QP step stalled", viol)
        new = np.minimum(np.maximum(cur + t * cf, 0.0), hi[idx])
        if t == t_max:  # land the blocking variable exactly on its bound
            j = int(np.argmin(room))
            new[j] = hi[idx[j]] if cf[j] > 0 else 0.0
        G += (new - cur) @ H_idx
        z[idx] = new
    raise ConvergenceError("QP solver did not converge", float(viol))
