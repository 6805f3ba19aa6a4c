"""Independent brute-force reference solvers used as test oracles.

Both duals are solved by accelerated projected gradient descent with exact
projections onto their feasible sets.  Each projection is a breakpoint
search on a monotone piecewise-linear function of one multiplier (Kiwiel
2008, *Breakpoint searching algorithms for the continuous quadratic
knapsack problem*): evaluate it at its knots, find the bracketing segment
and interpolate.  There is no tolerance and no iteration.
``tests/test_reference.py`` checks both projections against bisection.
Deliberately slow and simple, and entirely separate from the library's own
solvers: this module imports nothing but numpy.
"""

import numpy as np


def _root(values, *columns):
    """Each column at the first zero of a nondecreasing function that is
    linear between its knots, given the function and the columns at the
    sorted knots (the columns linear there too); at the first knot if the
    function is positive there, at the last if it is negative everywhere.
    """
    if values[-1] < 0.0:
        return [col[-1] for col in columns]
    j = int(np.argmax(values >= 0.0))
    if j == 0:
        return [col[0] for col in columns]
    t = values[j - 1] / (values[j - 1] - values[j])
    return [col[j - 1] + t * (col[j] - col[j - 1]) for col in columns]


def project_box_hyperplane(z, y, c):
    """Project z onto {0 <= a <= c, y'a = 0} (Euclidean).

    a = clip(z + lam*y, 0, c) for the multiplier lam of y'a = 0, and
    y'clip(z + lam*y, 0, c) is nondecreasing in lam, linear between its
    knots -y*z and y*(c - z).
    """
    knots = np.sort(np.concatenate((-y * z, y * (c - z))))
    values = np.clip(z + knots[:, None] * y, 0.0, c) @ y
    lam, = _root(values, knots)
    return np.clip(z + lam * y, 0.0, c)


def _top_sums(u):
    """S_k, the sum of the k largest entries of u, for k = 1, 2, ...; k;
    and the knots S_k - k u_k.

    The s with sum(max(u + s, 0)) = m >= 0 is min_k (m - S_k)/k (at m = 0
    the largest such s, -max(u)), linear in m between those knots: the
    k-th largest entry turns positive at mass S_k - k u_k.
    """
    u = np.sort(u)[::-1]
    k = np.arange(1.0, u.size + 1.0)
    S = np.cumsum(u)
    return S, k, S - k * u


def project_svmplus(za, zb, y, total):
    """Project (za, zb) onto {a >= 0, b >= 0, y'a = 0, 1'(a+b) = total}.

    With multipliers lam for y'a = 0 and mu for the sum, a = max(za + lam*y
    + mu, 0) and b = max(zb + mu, 0).  Let m be the mass of a on either
    label.  Then a on y = +1, a on y = -1 and b are simplex-type
    projections of mass m, m and total - 2m, with shifts s = lam + mu,
    t = mu - lam and mu, and the KKT conditions ask that
    F(m) = (s + t)/2 - mu be 0.  F is increasing and piecewise linear in
    m on [0, total/2]; at its ends, a = 0 (m = 0) or b = 0 (m = total/2).
    Both labels must be present.
    """
    pos = y > 0
    M = 0.5 * total
    (Sp, kp, mp), (Sn, kn, mn), (Sb, kb, mb) = (
        _top_sums(za[pos]), _top_sums(za[~pos]), _top_sums(zb))
    m = np.clip(np.concatenate((mp, mn, M - 0.5 * mb, [0.0, M])), 0.0, M)
    m = np.sort(m)[:, None]
    s = ((m - Sp) / kp).min(axis=1)
    t = ((m - Sn) / kn).min(axis=1)
    mu = ((total - 2.0 * m - Sb) / kb).min(axis=1)
    s, t, mu = _root(0.5 * (s + t) - mu, s, t, mu)
    a = np.maximum(za + np.where(pos, s, t), 0.0)
    return a, np.maximum(zb + mu, 0.0)


def _spectral_norm(H):
    return float(np.linalg.norm(H, 2)) + 1e-12


def reference_wsvm_dual(K, y, c, max_iter=100000):
    """Accelerated projected gradient on 1/2 a'YKYa - 1'a over the box."""
    y = np.asarray(y, dtype=float)
    Q = (y[:, None] * y[None, :]) * K
    L = _spectral_norm(Q)
    a = project_box_hyperplane(np.zeros_like(y), y, c)
    z = a.copy()
    tprev = 1.0
    obj_prev = np.inf
    for it in range(max_iter):
        grad = Q @ z - 1.0
        a_new = project_box_hyperplane(z - grad / L, y, c)
        tnew = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tprev**2))
        z = a_new + ((tprev - 1.0) / tnew) * (a_new - a)
        a, tprev = a_new, tnew
        if it % 100 == 99:
            obj = 0.5 * float(a @ Q @ a) - float(a.sum())
            if obj_prev - obj < 1e-15 * (1.0 + abs(obj)):
                break
            obj_prev = obj
    obj = 0.5 * float(a @ Q @ a) - float(a.sum())
    return a, obj


def reference_svmplus_dual(K, Kt, y, C, gamma, max_iter=200000):
    """Accelerated projected gradient over (a, b) for the coupled dual."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    Q = (y[:, None] * y[None, :]) * K
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = Q + Kt / gamma
    H[:n, n:] = Kt / gamma
    H[n:, :n] = Kt / gamma
    H[n:, n:] = Kt / gamma
    L = _spectral_norm(H)
    total = n * C

    def objective(a, b):
        at = a + b - C
        return (0.5 * float(a @ Q @ a) - float(a.sum())
                + 0.5 * float(at @ Kt @ at) / gamma)

    a, b = project_svmplus(np.zeros(n), np.full(n, C), y, total)
    za, zb = a.copy(), b.copy()
    tprev = 1.0
    obj_prev = objective(a, b)
    obj_checkpoint = obj_prev
    for it in range(max_iter):
        at = za + zb - C
        gcorr = (Kt @ at) / gamma
        ga = Q @ za - 1.0 + gcorr
        gb = gcorr
        an, bn = project_svmplus(za - ga / L, zb - gb / L, y, total)
        obj = objective(an, bn)
        if obj > obj_prev:
            # adaptive restart: drop the momentum when it overshoots
            za, zb, tprev = a.copy(), b.copy(), 1.0
        else:
            tnew = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tprev**2))
            za = an + ((tprev - 1.0) / tnew) * (an - a)
            zb = bn + ((tprev - 1.0) / tnew) * (bn - b)
            a, b, tprev, obj_prev = an, bn, tnew, obj
        if it % 500 == 499:
            # restarts keep the accepted objective monotone, so a flat
            # stretch of 500 iterations is a reliable convergence signal
            if obj_checkpoint - obj_prev < 1e-15 * (1.0 + abs(obj_prev)):
                break
            obj_checkpoint = obj_prev
    return a, b, objective(a, b)
