"""The active-set QP core shared by the weighted-SVM and SVM+ duals.

Solves

    min_z  1/2 z' H z + p' z   s.t.  A z = A z0,  0 <= z <= hi

for a symmetric positive semidefinite H, one or two equality rows A with
small integer entries, and upper bounds hi that may be infinite.  The
module is internal: ``solve_wsvm`` and ``solve_svmplus`` are its callers.

Working set.  Variables are grouped into classes by their column of A,
numbered in the lexicographic order of the columns; moving one variable
up and another of the same class down by the same amount keeps A z fixed.
With r rows and r + 1 classes there is one more feasible move: the integer
null combination v of the class columns, applied to one variable per class.
Both are derived once per call in closed form: v holds the signed r x r
minors of the class columns (a cross product for r = 2), with its first
entry positive.  The weighted SVM (A = y') has the classes y = -1 and
y = +1 and v = (1, 1); SVM+ over z = (a, b) (A = [y' 0; 1' 1']) has the
classes a-, b and a+ and v = (1, -2, 1).  Each iteration picks every
class's best "up" and "down" candidate once (lowest gradient among
variables below their upper bound, highest among variables above zero)
and takes the most violating move among the same-class pairs, +v and -v
built from those picks.  Each move is an exact line search clipped to the
box; ties go to the first move in that order and to the lowest index.  The
largest violation is the maximal-violating-pair gap of SMO, and the solver
stops when it is <= tol.

Arithmetic.  The candidate search and the gradient update
G += (new - cur) H[idx] run in numpy over all n variables.  Everything
else in a step involves the two or three moved variables only and runs on
Python floats: the gaps, the +-v violations, the room to the bounds, the
curvature, the step length and the blocking variable.  The move
coefficients are +-1 or +-2, so every product in those sums is exact and
only the order of summation can matter; the sums run left to right, the
order of numpy's dot and matrix-vector products at these sizes, so each
step has the bits that numpy would give.

Face step.  Pairwise moves can zigzag with tiny steps on an
ill-conditioned or rank-deficient face, so every 64 iterations an exact
minimisation over the variables strictly inside the box replaces the move.
"""

from __future__ import annotations

import numpy as np

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


def _classes(A: np.ndarray) -> tuple[np.ndarray, int, list]:
    """Class id of every column of A, numbered in the order of
    ``np.unique(A.T, axis=0)``; the number of classes; and the cross moves,
    +v then -v, each with the classes it moves up (none without a v)."""
    r = A.shape[0]
    # A has one or two rows of small integers, and this key orders its
    # columns lexicographically
    key = A[0] if r == 1 else A[0] * (2 * np.abs(A[1]).max() + 1) + A[1]
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    cols = A[:, first].tolist()
    n_cls = len(first)
    # the class columns span r dimensions, so only r + 1 classes have a
    # null combination: the signed minors of the class columns
    if n_cls != r + 1:
        return cls, n_cls, []
    if r == 1:
        (a, b), = cols
        v = [b, -a]
    else:
        (a0, b0, c0), (a1, b1, c1) = cols
        v = [b0 * c1 - c0 * b1, c0 * a1 - a0 * c1, a0 * b1 - b0 * a1]
    if v[0] < 0:  # the sign fixes which of +-v comes first in a tie
        v = [-f for f in v]
    return cls, n_cls, [(v, [f > 0 for f in v]),
                        ([-f for f in v], [f < 0 for f in v])]


def solve_qp(H: np.ndarray, p: np.ndarray, A: np.ndarray, hi: np.ndarray,
             z0: np.ndarray, tol: float,
             max_iter: int) -> tuple[np.ndarray, int]:
    """Minimize from the feasible point z0; returns (z, iterations).

    Raises ConvergenceError, carrying the final violation, when max_iter
    iterations do not bring the largest violation down to tol.
    """
    cls, n_cls, cross_moves = _classes(A)
    inf = np.inf
    # one row per class: 0 on the class's members, +inf elsewhere
    outside = np.where(cls == np.arange(n_cls)[:, None], 0.0, inf)
    z = np.array(z0, dtype=float)
    G = H @ z + p
    # outside, or +inf where a variable cannot move up (down); kept in step
    # with z, so G + up_pen and G - dn_pen are the candidates of each class
    up_pen = np.where(z < hi, outside, inf)
    dn_pen = np.where(z > 0, outside, inf)
    viol = inf
    for it in range(max_iter):
        up_g = G + up_pen
        dn_g = G - dn_pen
        up, dn = up_g.argmin(1).tolist(), dn_g.argmax(1).tolist()
        up_val = [up_g.item(k, i) for k, i in enumerate(up)]
        dn_val = [dn_g.item(k, i) for k, i in enumerate(dn)]
        # most violating move: same-class pairs, then +v, then -v; a class
        # without a candidate gives a violation of -inf
        gaps = [d - u for u, d in zip(up_val, dn_val)]
        viol = max(gaps)
        k = gaps.index(viol)
        idx, cf = [up[k], dn[k]], (1.0, -1.0)
        for sv, use_up in cross_moves:
            # the products are exact, and numpy's dot sums left to right
            cross = 0.0
            for f, u, a, b in zip(sv, use_up, up_val, dn_val):
                cross += f * (a if u else b)
            if -cross > viol:
                viol = -cross
                idx = [a if u else b for u, a, b in zip(use_up, up, dn)]
                cf = sv
        if viol <= tol:
            return z, it
        if it % FACE_EVERY == FACE_EVERY - 1 and _face_step(z, G, H, A, hi):
            up_pen = np.where(z < hi, outside, inf)
            dn_pen = np.where(z > 0, outside, inf)
            continue
        cur = [z.item(i) for i in idx]
        top = [hi.item(i) for i in idx]
        room = [(h - c if f > 0 else c) / abs(f)
                for f, c, h in zip(cf, cur, top)]
        t_max = min(room)
        H_idx = H.take(idx, 0)
        # cf' H[idx, idx] cf, summed in the order of numpy's cf @ M @ cf
        curv = 0.0
        for fj, j in zip(cf, idx):
            w = 0.0
            for row, fi in enumerate(cf):
                w += fi * H_idx.item(row, j)
            curv += w * fj
        t = min(t_max, viol / curv) if curv > 1e-300 else t_max
        if not 0.0 < t < inf:
            raise ConvergenceError("QP step stalled", viol)
        new = [min(max(c + t * f, 0.0), h) for f, c, h in zip(cf, cur, top)]
        if t == t_max:  # land the blocking variable exactly on its bound
            j = room.index(t_max)
            new[j] = top[j] if cf[j] > 0 else 0.0
        G += np.array([a - c for a, c in zip(new, cur)]) @ H_idx
        for i, c, a, h in zip(idx, cur, new, top):
            z[i] = a
            if (a < h) != (c < h):
                up_pen[:, i] = outside[:, i] if a < h else inf
            if (a > 0) != (c > 0):
                dn_pen[:, i] = outside[:, i] if a > 0 else inf
    raise ConvergenceError("QP solver did not converge", float(viol))
