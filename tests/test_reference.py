"""The oracle of ``tests/reference.py``: its exact projections against
bisection on their multipliers, and its independence from the library."""

import ast
from pathlib import Path

import numpy as np

from reference import project_box_hyperplane, project_svmplus


def _bisect_box_hyperplane(z, y, c):
    def value(lam):
        return float(np.clip(z + lam * y, 0.0, c) @ y)

    span = float(np.max(c)) + float(np.max(np.abs(z))) + 1.0
    lo, hi = -span, span
    # y'a is nondecreasing in lam; expand until bracketed
    while value(lo) > 0:
        lo *= 2.0
    while value(hi) < 0:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if value(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return np.clip(z + 0.5 * (lo + hi) * y, 0.0, c)


def _svmplus_point(za, zb, y, lam, mu):
    a = np.maximum(za + lam * y + mu, 0.0)
    b = np.maximum(zb + mu, 0.0)
    return a, b


def _bisect_svmplus(za, zb, y, total):
    # bisection on lam for y'a = 0 at each mu, nested in bisection on mu
    # for 1'(a+b) = total
    def inner(mu):
        def avalue(lam):
            return float(np.maximum(za + lam * y + mu, 0.0) @ y)

        span = float(np.max(np.abs(za))) + abs(mu) + 1.0
        lo, hi = -span, span
        while avalue(lo) > 0:
            lo *= 2.0
        while avalue(hi) < 0:
            hi *= 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if avalue(mid) >= 0:
                hi = mid
            else:
                lo = mid
        return _svmplus_point(za, zb, y, 0.5 * (lo + hi), mu)

    span = (float(np.max(np.abs(za))) + float(np.max(np.abs(zb)))
            + abs(total) + 1.0)
    lo, hi = -span, span
    while float(np.sum(np.concatenate(inner(lo)))) > total:
        lo *= 2.0
    while float(np.sum(np.concatenate(inner(hi)))) < total:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        a, b = inner(mid)
        if float(np.sum(a) + np.sum(b)) >= total:
            hi = mid
        else:
            lo = mid
    return inner(0.5 * (lo + hi))


def _labels(rng, n):
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    y[:2] = 1.0, -1.0
    return rng.permutation(y)


def _point(rng, n, scale):
    # rounded to a coarse grid, so ties are common; about a quarter zeros
    z = np.round(rng.normal(0.0, scale, n) * 4.0) / 4.0
    return np.where(rng.random(n) < 0.25, 0.0, z)


def test_exact_projections_match_bisection():
    rng = np.random.default_rng(39)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        y = _labels(rng, n)
        c = rng.choice([0.5, 1.0, rng.uniform(0.1, 4.0)], n)
        z = _point(rng, n, float(rng.choice([0.3, 3.0, 30.0])))
        got = project_box_hyperplane(z, y, c)
        assert abs(got @ y) <= 1e-12 * (1.0 + np.sum(c))
        assert np.all((got >= 0.0) & (got <= c))
        np.testing.assert_allclose(
            got, _bisect_box_hyperplane(z, y, c), rtol=0, atol=1e-12)

    # a large shift of za against zb puts the projection at an end: at
    # a = 0 (m = 0) for -20, at b = 0 (m = total/2) for +20
    for shift in (-20.0, 0.0, 20.0) * 5:
        n = int(rng.integers(2, 6))
        y = _labels(rng, n)
        total = n * float(rng.choice([0.25, 1.0, 4.0]))
        za = _point(rng, n, 2.0) + shift
        zb = _point(rng, n, 2.0)
        a, b = project_svmplus(za, zb, y, total)
        ra, rb = _bisect_svmplus(za, zb, y, total)
        assert np.all(a >= 0.0) and np.all(b >= 0.0)
        assert abs(a @ y) <= 1e-12 * (1.0 + total)
        assert abs(np.sum(a) + np.sum(b) - total) <= 1e-12 * (1.0 + total)
        np.testing.assert_allclose(a, ra, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, rb, rtol=0, atol=1e-12)
        if shift < 0.0:
            assert not a.any()
        elif shift > 0.0:
            assert not b.any()


def test_oracle_imports_only_numpy():
    # the oracle judges the library, so it must not share its code
    tree = ast.parse(
        (Path(__file__).parent / "reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"numpy"}
