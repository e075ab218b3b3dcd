"""Timed smoke runs of both selectors on one small planted problem.

pytest-benchmark times each selector over a few rounds (well under a
second in all), and each test also asserts the selected rules, so a
slowdown shows in the timing table and a solver regression fails.
"""

import numpy as np

from dppred.selection import forward_select, lasso_select

PLANTED = [5, 23, 41]


def planted_problem(n=400, pool=60, seed=8):
    """Random 0/1 rules; the label is a noisy logistic function of three."""
    gen = np.random.default_rng(seed)
    X = gen.integers(0, 2, size=(n, pool)).astype(np.uint8)
    z = 3.0 * X[:, PLANTED[0]] - 3.0 * X[:, PLANTED[1]] + 2.5 * X[:, PLANTED[2]] - 1.25
    y = (z + gen.logistic(size=n) * 0.5 > 0).astype(np.int64)
    return X, y


def test_lasso_select_smoke(benchmark):
    X, y = planted_problem()
    res = benchmark.pedantic(lasso_select, args=(X, y, 3, "logistic"), rounds=3, iterations=1)
    assert sorted(res.chosen) == PLANTED


def test_forward_select_smoke(benchmark):
    X, y = planted_problem()
    res = benchmark.pedantic(forward_select, args=(X, y, 3, "logistic"), rounds=3, iterations=1)
    assert sorted(res.chosen) == PLANTED
