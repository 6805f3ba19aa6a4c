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
stops when it is <= tol.  That gap bounds each move's violation, not the
complementarity errors z_i times a violation, which can reach the gap
times max z; so when gap x max z > tol the solver first polishes once,
with one face step (below) counted as an iteration, and stops at the next
gap <= tol.

Arithmetic.  H is read only as rows, through ``H.take(rows, 0)``, also
for the start gradient, which sums the rows of z0's nonzero entries.  So
H may be a dense array or any object with that ``take``: the weighted
SVM passes one that computes each row of its Q on first use, and SVM+
one that forms each row from Q and Kt.  The candidate search and the
gradient update G += (new - cur) H[idx] run in numpy over all n
variables.  Everything else in a step involves the two or three moved
variables only and runs on Python floats: the gaps, the +-v violations,
the room to the bounds, the curvature, the step length and the blocking
variable.  The move coefficients are +-1 or +-2, so every product in
those sums is exact and only the order of summation can matter; the sums
run left to right, the order of numpy's dot and matrix-vector products
at these sizes, so each step has the bits that numpy would give.

Face step.  Pairwise moves can zigzag with tiny steps on an
ill-conditioned or rank-deficient face, so every 16 iterations, and at the
polish, an exact minimisation over the variables strictly inside the box
replaces the move.
It reads the rows of H for those variables once and takes the face
Hessian from their columns.  It works on one eigendecomposition of the
face Hessian reduced to the null space of the face's equality rows: the
zero eigenvalues give the null directions, which are ridden to the box
while they descend, and the positive part gives the Newton step.  Each
variable that a step pins is taken out of both bases with one
Householder reflection and a rank-one update, so a face step
refactorises only for a variable that neither basis holds well.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ConvergenceError", "solve_qp"]

FACE_EVERY = 16
# A face step takes a pinned variable k out of its bases without a new
# factorisation only when k is well inside one of them.  Either the
# null-basis row N[k] has a squared norm above ABSORB (the update of W
# divides by it, so rounding grows at most 1e3-fold), or N[k] is rounding
# (squared norm at most EPS, so clearing it adds curvature below the null
# threshold) and W[k] has a squared norm above ABSORB times W's largest.
ABSORB = 1e-6
EPS = np.finfo(float).eps


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final residual {residual:.3e})")
        self.residual = residual


def _null_basis(AF: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of the face rows AF, from a QR
    of the transpose of their independent rows.  The entries are small
    integers, so the rank test is exact: a face of SVM+ beta variables has
    a zero y-row, and one of same-label alphas has two proportional rows."""
    rows = AF[AF.any(1)]
    if len(rows) == 2:
        a, b = rows
        j = np.flatnonzero(a)[0]
        if np.array_equal(a * b[j], b * a[j]):
            rows = rows[:1]
    return np.linalg.qr(rows.T, mode="complete")[0][:, len(rows):]


def _drop(B: np.ndarray, u: np.ndarray) -> np.ndarray:
    """B with its columns reflected so that its row u lies in the first
    column alone, and that column dropped: one Householder reflection that
    takes out of span(B) the one direction that reaches u's coordinate."""
    v = u.copy()
    v[0] += np.copysign(np.sqrt(u @ u), v[0])
    return (B - np.outer(B @ v, v * (2.0 / (v @ v))))[:, 1:]


def _face_step(z: np.ndarray, G: np.ndarray, H: np.ndarray, A: np.ndarray,
               hi: np.ndarray) -> bool:
    """Exact minimization over the variables currently strictly inside the
    box, holding the rest at their bounds.

    Primal active-set inner loop over the face F (More & Toraldo 1991).
    With Z an orthonormal basis of null(A_F), one eigendecomposition of
    Z' H_FF Z gives an orthonormal basis N of the face's null directions
    (its zero eigenvalues) and a basis W of the rest with W' H_FF W = I, so
    that -W W' g is the Newton step for the face gradient g.

    While g has a component in N, the direction -N N' g descends linearly
    and is ridden to the nearest bound; then Newton steps are clipped to
    the box by a ratio test, until one is zero or does not descend
    (g' step >= 0; there is no absolute floor, so a polish resolves face
    gradients far below tol).  A ridden or clipped step pins a variable
    k, and since H is PSD, the null space of the shrunken face is the old
    one with coordinate k zero.  So no pin needs a new factorisation when k is
    well inside one basis: if N reaches k, one Householder reflection drops
    the null vector n through k (n_k = 1) from N, and W - n W[k] is zero at
    k and keeps W' H W = I; if N does not reach k, a reflection drops the
    direction r through k (r_k = 1) from W, and N - r N[k] clears the
    rounding that N has at k.  Every step is projected onto null(A_F)
    again, since the rounding of the bases grows with each update.

    H is read once, as the rows R = H[F]: the face gradient moves by the
    m x m block H_FF = R[:, F] between pins, and G (= H z + p) and z are
    updated in place once, at the end, through R.  Returns True if
    anything moved.
    """
    F = np.flatnonzero((z > 0) & (z < hi))
    R = H.take(F, 0)
    HF = R[:, F]
    top = hi[F]
    start = z[F]
    cur = start.copy()
    g = G[F]
    face = np.arange(F.size)  # the variables still strictly inside the box
    N = W = None  # null basis and scaled positive part, over the face
    ride = True
    while face.size:
        AF = A[:, F[face]]
        if N is None:
            Z = _null_basis(AF)
            if Z.shape[1] == 0:
                break
            lam, V = np.linalg.eigh(Z.T @ HF[np.ix_(face, face)] @ Z)
            null = lam <= max(face.size, 3) * EPS * np.abs(lam).max()
            N = Z @ V[:, null]
            W = Z @ (V[:, ~null] / np.sqrt(lam[~null]))
        gf = g[face]
        if ride:
            c = gf @ N
            # sqrt(v @ v) is what np.linalg.norm computes for a vector
            ride = math.sqrt(float(c @ c)) > 1e-10 * max(
                1.0, math.sqrt(float(gf @ gf)))
        if ride:
            step = N @ -c
        else:
            step = W @ -(gf @ W)
            if float(gf @ step) >= 0 or not step.any():
                break
        step -= AF.T @ np.linalg.lstsq(AF.T, step, rcond=None)[0]
        x, h = cur[face], top[face]
        lim = np.full(face.size, np.inf)
        np.divide(-x, step, out=lim, where=step < -1e-300)
        np.divide(h - x, step, out=lim, where=step > 1e-300)
        j = int(np.argmin(lim))
        tau = float(lim[j]) if ride else min(1.0, float(lim[j]))
        if not 0.0 < tau < np.inf:
            break
        new = np.clip(x + tau * step, 0.0, h)
        if tau == lim[j]:  # land the blocking variable exactly on its bound
            new[j] = h[j] if step[j] > 0 else 0.0
        g += (new - x) @ HF[face]
        cur[face] = new
        if tau == 1.0 and not ride:
            break
        pinned = (new <= 0) | (new >= h)
        face = face[~pinned]
        for k in np.flatnonzero(pinned)[::-1].tolist():
            u, w = N[k], W[k]
            uu, ww = float(u @ u), float(w @ w)
            if uu > ABSORB:
                W = W - np.outer(N @ (u / uu), w)
                N = _drop(N, u)
            elif uu <= EPS and ww > ABSORB * (W * W).sum(1).max():
                # r = W w / ww has r_k = 1 and clears N's rounding at k
                N = N - np.outer(W @ (w / ww), u)
                W = _drop(W, w)
            else:  # refactorise the shrunken face
                N = None
                break
            keep = np.ones(len(N), dtype=bool)
            keep[k] = False
            N, W = N[keep], W[keep]
    moved = not np.array_equal(cur, start)
    if moved:
        G += (cur - start) @ R
        z[F] = cur
    return moved


def _classes(A: np.ndarray) -> tuple[np.ndarray, int, list]:
    """Class id of every column of A, numbered in the order of
    ``np.unique(A.T, axis=0)``; the number of classes; and the cross moves,
    +v then -v, each with the classes it moves up (none without a v)."""
    r = A.shape[0]
    # A has one or two rows of small integers, and this key orders its
    # columns lexicographically
    key = A[0] if r == 1 else A[0] * (2 * np.abs(A[1]).max() + 1) + A[1]
    keys = key.tolist()
    vals = sorted(set(keys))  # a handful of keys, cheaper than np.unique
    first = [keys.index(v) for v in vals]
    cls = np.searchsorted(vals, key)
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
    nz = np.flatnonzero(z)
    G = z[nz] @ H.take(nz, 0) + p
    # outside, or +inf where a variable cannot move up (down); kept in step
    # with z, so G + up_pen and G - dn_pen are the candidates of each class
    up_pen = np.where(z < hi, outside, inf)
    dn_pen = np.where(z > 0, outside, inf)
    viol = inf
    polished = False
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
        # a gap within tol can still hide a complementarity error of up to
        # gap x max z: polish once, with a face step, if that can pass tol
        # and an iteration is left (the gap is -inf when nothing can move)
        polish = viol <= tol
        if polish and (polished or it + 1 == max_iter
                       or max(viol, 0.0) * z.max() <= tol):
            return z, it
        if polish or it % FACE_EVERY == FACE_EVERY - 1:
            polished |= polish
            if _face_step(z, G, H, A, hi) or polish:
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
