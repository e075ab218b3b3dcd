import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dppred.glm import (
    GlmModel,
    fit_glm,
    fit_lasso,
    lambda_max,
    predict_glm,
    predict_proba,
    sigmoid,
    support,
)
from oracles import linear_loss, logistic_loss


def rng(seed=0):
    return np.random.default_rng(seed)


class TestLosses:
    def test_linear_loss_value(self):
        X = np.array([[1.0], [0.0]])
        f, gw, gb = linear_loss(X, np.array([1.0, 0.0]), np.zeros(1), 0.0)
        assert f == 0.5  # residuals (-1, 0): mean square 0.5

    def test_gradients_match_central_differences(self):
        # 100 random instances for both losses, relative error < 1e-4
        h = 1e-5
        gen = rng(12)
        for trial in range(100):
            n = int(gen.integers(2, 50))
            d = int(gen.integers(1, 10))
            X = gen.random((n, d))
            w = gen.normal(size=d)
            b = float(gen.normal())
            for kind in ("linear", "logistic"):
                if kind == "linear":
                    y = gen.normal(size=n)
                    loss = lambda wv, bv: linear_loss(X, y, wv, bv)[0]
                    _, gw, gb = linear_loss(X, y, w, b)
                else:
                    y = gen.integers(0, 2, size=n).astype(np.float64)
                    loss = lambda wv, bv: logistic_loss(X, y, wv, bv)[0]
                    _, gw, gb = logistic_loss(X, y, w, b)
                num = np.empty(d)
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = h
                    num[j] = (loss(w + e, b) - loss(w - e, b)) / (2 * h)
                num_b = (loss(w, b + h) - loss(w, b - h)) / (2 * h)
                denom = max(np.linalg.norm(np.append(gw, gb)), 1e-8)
                err = np.linalg.norm(np.append(gw - num, gb - num_b)) / denom
                assert err < 1e-4, f"{kind} gradient off by {err} on trial {trial}"


class TestFitGlm:
    def test_separable_single_column(self):
        gen = rng(3)
        col = gen.integers(0, 2, size=200).astype(np.float64)
        X = col.reshape(-1, 1)
        y = col.astype(np.int64)
        m = fit_glm(X, y, "logistic")
        assert m.weights[0] > 0
        assert np.mean(predict_glm(m, X) == y) == 1.0
        # several columns, a duplicate and a complement among them: the
        # optimum is at infinity, yet the fit stops with finite weights that
        # classify every training row, for two classes and for three
        X = _planted_columns(gen, 300, 8)
        for y in ((X[:, 0] + X[:, 3] + X[:, 5] >= 2).astype(np.int64),
                  (X[:, 0] + X[:, 3]).astype(np.int64)):
            m = fit_glm(X, y, "logistic")
            assert np.all(np.isfinite(m.weights)) and np.all(np.isfinite(m.intercept))
            assert np.array_equal(predict_glm(m, X), y)

    def test_linear_constant_column_reproduces_mean(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        X = np.ones((4, 1))
        m = fit_glm(X, y, "linear")
        assert abs((m.weights[0] + m.intercept) - y.mean()) < 1e-6
        f, _, _ = linear_loss(X, y, m.weights, m.intercept)
        assert abs(f - y.var()) < 1e-8

    def test_constant_labels_linear(self):
        X = rng(1).random((30, 4))
        m = fit_glm(X, np.full(30, 2.5), "linear")
        assert np.allclose(m.weights, 0.0)
        assert abs(m.intercept - 2.5) < 1e-12

    def test_single_class_logistic_rejected(self):
        X = rng(1).random((10, 2))
        with pytest.raises(ValueError, match="distinct"):
            fit_glm(X, np.zeros(10, dtype=int), "logistic")

    def test_objective_trace_non_increasing(self):
        gen = rng(7)
        X = gen.integers(0, 2, size=(120, 6)).astype(np.float64)
        y = (X[:, 0] + gen.random(120) > 0.8).astype(np.int64)
        for task, labels in (("logistic", y), ("linear", y.astype(float))):
            m = fit_glm(X, labels, task)
            diffs = np.diff(m.objective_trace)
            assert np.all(diffs <= 1e-12)

    def test_multiclass_one_vs_rest(self):
        gen = rng(5)
        y = gen.integers(0, 3, size=150)
        X = np.column_stack([(y == c).astype(float) for c in range(3)])
        m = fit_glm(X, y, "logistic")
        assert m.classes == 3
        assert m.weights.shape == (3, 3)
        assert np.mean(predict_glm(m, X) == y) == 1.0


class TestPredict:
    def test_zero_model_linear(self):
        m = GlmModel(weights=np.zeros(2), intercept=0.0, task="linear")
        assert predict_glm(m, np.ones((3, 2))).tolist() == [0.0, 0.0, 0.0]

    def test_zero_logistic_ties_to_class_zero(self):
        m = GlmModel(weights=np.zeros(2), intercept=0.0, task="logistic", classes=2)
        assert predict_proba(m, np.eye(2)).tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert predict_glm(m, np.eye(2)).tolist() == [0, 0]

    def test_dot_product(self):
        m = GlmModel(weights=np.array([2.0, -1.0]), intercept=0.0, task="linear")
        assert predict_glm(m, np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])).tolist() == [1.0, 2.0, -1.0]

    def test_dimension_mismatch(self):
        m = GlmModel(weights=np.zeros(2), intercept=0.0, task="linear")
        with pytest.raises(ValueError):
            predict_glm(m, np.zeros((4, 3)))
        # a rule vector is not a one-row matrix
        for x in (np.zeros(2), np.zeros(3)):
            with pytest.raises(ValueError, match="rule matrix"):
                predict_glm(m, x)

    def test_probabilities_sum_to_one_binary(self):
        gen = rng(9)
        m = GlmModel(weights=gen.normal(size=4), intercept=0.3, task="logistic", classes=2)
        for _ in range(25):
            p = predict_proba(m, gen.integers(0, 2, size=(1, 4)).astype(float))[0]
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all((p > 0) & (p < 1))
        batch = predict_proba(m, gen.integers(0, 2, size=(25, 4)).astype(float))
        assert batch.shape == (25, 2)
        assert np.all(np.abs(batch.sum(axis=1) - 1.0) < 1e-12)

    def test_multiclass_shapes(self):
        m = GlmModel(weights=rng(4).normal(size=(3, 5)), intercept=np.zeros(3),
                     task="logistic", classes=3)
        X = rng(5).integers(0, 2, size=(7, 5)).astype(float)
        assert predict_proba(m, X[:1]).shape == (1, 3)
        assert predict_proba(m, X).shape == (7, 3)
        assert predict_glm(m, X).shape == (7,)


class TestLambdaMax:
    def test_constant_labels_linear(self):
        X = rng(0).integers(0, 2, size=(40, 5)).astype(np.float64)
        assert lambda_max(X, np.full(40, 1.3), "linear") == 0.0

    def test_hand_computed_aligned_column(self):
        # y = (+1,-1,+1,-1) centered; x = indicator of the positives;
        # gradient at zero weights is 2/n * x_c'(mean-y) with magnitude 1
        X = np.array([[1.0], [0.0], [1.0], [0.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        assert abs(lambda_max(X, y, "linear") - 1.0) < 1e-12

    def test_zero_fixpoint_above_lambda_max(self):
        gen = rng(4)
        for trial in range(8):
            X = gen.integers(0, 2, size=(60, 12)).astype(np.float64)
            task = "linear" if trial % 2 else "logistic"
            if task == "linear":
                y = gen.normal(size=60)
            else:
                y = gen.integers(0, 2, size=60)
            lm = lambda_max(X, y, task)
            if lm == 0.0:
                continue
            m = fit_lasso(X, y, 1.01 * lm, task)
            assert np.all(np.atleast_2d(m.weights) == 0.0), f"trial {trial} ({task})"


def _newton_logistic(X, t, iterations=200):
    # plain damped Newton on the full unpenalized objective, intercept last;
    # a reference that shares no code with the working-set solver
    A = np.column_stack([X, np.ones(len(t))])
    beta = np.zeros(A.shape[1])

    def f(b):
        z = A @ b
        return np.mean(np.logaddexp(0.0, z) - t * z)

    for _ in range(iterations):
        p = sigmoid(A @ beta)
        g = A.T @ (p - t) / len(t)
        H = (A * (p * (1 - p))[:, None]).T @ A / len(t) + 1e-12 * np.eye(A.shape[1])
        step = np.linalg.solve(H, g)
        s = 1.0
        while f(beta - s * step) > f(beta) - 0.25 * s * (g @ step) and s > 1e-10:
            s /= 2
        beta = beta - s * step
    return beta[:-1], beta[-1]


class TestFitLasso:
    def test_zero_penalty_matches_unpenalized_objective(self):
        # at lambda = 0 the lasso reaches the least-squares optimum
        gen = rng(11)
        X = gen.integers(0, 2, size=(80, 5)).astype(np.float64)
        y = (X[:, 0] * 2 + gen.normal(size=80) * 0.1)
        coef = np.linalg.lstsq(np.column_stack([X, np.ones(80)]), y, rcond=None)[0]
        f_ref, _, _ = linear_loss(X, y, coef[:-1], coef[-1])
        for m in (fit_glm(X, y, "linear"), fit_lasso(X, y, 0.0, "linear")):
            f, _, _ = linear_loss(X, y, m.weights, m.intercept)
            assert abs(f - f_ref) < 1e-5

    def test_zero_penalty_matches_unpenalized_logistic(self):
        # at lambda = 0 the lasso reaches the objective of an independent
        # Newton solve, on data whose optimum lies at infinity
        gen = rng(13)
        X = gen.integers(0, 2, size=(100, 4)).astype(np.float64)
        y = ((X[:, 0] + X[:, 1] + gen.random(100)) > 1.4).astype(np.int64)
        t = y.astype(float)
        f_ref, _, _ = logistic_loss(X, t, *_newton_logistic(X, t))
        for m in (fit_glm(X, y, "logistic"), fit_lasso(X, y, 0.0, "logistic")):
            f, _, _ = logistic_loss(X, t, m.weights, m.intercept)
            assert abs(f - f_ref) < 1e-5

    def test_support_shrinks_with_penalty(self):
        gen = rng(17)
        X = gen.integers(0, 2, size=(150, 20)).astype(np.float64)
        w_true = np.zeros(20)
        w_true[:4] = [3.0, -2.0, 1.5, 1.0]
        y = X @ w_true + gen.normal(size=150) * 0.05
        lm = lambda_max(X, y, "linear")
        sizes = []
        for frac in [1.2, 0.5, 0.2, 0.05, 0.01]:
            m = fit_lasso(X, y, lm * frac, "linear")
            sizes.append(len(support(m)))
        assert sizes[0] == 0
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_exact_zeros_not_epsilon_small(self):
        gen = rng(19)
        X = gen.integers(0, 2, size=(60, 8)).astype(np.float64)
        y = X[:, 0] + gen.normal(size=60) * 0.01
        m = fit_lasso(X, y, 0.5 * lambda_max(X, y, "linear"), "linear")
        off = np.atleast_1d(m.weights)[np.atleast_1d(m.weights) != 0.0]
        zeros = np.atleast_1d(m.weights)[np.atleast_1d(m.weights) == 0.0]
        assert len(zeros) > 0 and len(off) > 0

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            fit_lasso(np.ones((4, 1)), np.zeros(4), -0.1, "linear")


def _planted_columns(gen, n, d):
    # random 0/1 rules plus an exact duplicate and an exact complement
    X = gen.integers(0, 2, size=(n, d)).astype(np.float64)
    X[:, 1] = X[:, 0]
    X[:, d - 1] = 1.0 - X[:, 2]
    return X


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["binary", "multiclass", "linear"]),
       n=st.integers(20, 90), d=st.integers(4, 16))
# a rule whose weight rounding left at -2e-16 while its gradient asked for
# the other sign; feature-sign search used to stop there, off the optimum
@example(seed=12423, kind="multiclass", n=20, d=11)
def test_fit_lasso_satisfies_kkt(seed, kind, n, d):
    # KKT certifies the optimum of this convex problem: at each penalty the
    # returned point must be stationary up to 1e-6 * max(1, lam)
    gen = rng(seed)
    X = _planted_columns(gen, n, d)
    score = X @ gen.normal(size=d) + gen.normal(size=n)
    if kind == "linear":
        task, y = "linear", score
    else:
        cuts = [0.5] if kind == "binary" else [1 / 3, 2 / 3]
        task, y = "logistic", np.digitize(score, np.quantile(score, cuts))
        assume(len(np.unique(y)) == len(cuts) + 1)
    lm = lambda_max(X, y, task)
    assume(lm > 0)
    assert np.all(fit_lasso(X, y, 1.01 * lm, task).weights == 0.0)
    for frac in (0.7, 0.3, 0.1, 0.03):
        lam = frac * lm
        m = fit_lasso(X, y, lam, task)
        tol = 1e-6 * max(1.0, lam)
        if task == "linear":
            targets = [y]
        else:
            targets = [(y == c).astype(float) for c in ([1] if kind == "binary" else range(3))]
        for w, b, t in zip(np.atleast_2d(m.weights), np.atleast_1d(m.intercept), targets):
            loss = linear_loss if task == "linear" else logistic_loss
            _, gw, gb = loss(X, t, w, b)
            assert abs(gb) <= tol
            zero = w == 0.0
            assert np.all(np.abs(gw[zero]) <= lam + tol)
            assert np.all(np.abs(gw[~zero] + lam * np.sign(w[~zero])) <= tol)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["binary", "multiclass", "linear"]),
       n=st.integers(20, 90), d=st.integers(4, 16))
def test_fit_glm_is_stationary(seed, kind, n, d):
    # the unpenalized optimum has a zero gradient in every coordinate
    gen = rng(seed)
    X = _planted_columns(gen, n, d)
    score = X @ gen.normal(size=d) + gen.normal(size=n)
    if kind == "linear":
        task, y, labels = "linear", score, [None]
    else:
        cuts = [0.5] if kind == "binary" else [1 / 3, 2 / 3]
        y = np.digitize(score, np.quantile(score, cuts))
        assume(len(np.unique(y)) == len(cuts) + 1)
        # every row again with a different label makes the data
        # non-separable; the first half a third time keeps the optimum
        # away from the all-equal probabilities
        other = (y + 1) % (len(cuts) + 1)
        X = np.vstack([X, X, X[: n // 2]])
        y = np.concatenate([y, other, y[: n // 2]])
        task, labels = "logistic", [1] if kind == "binary" else range(3)
    m = fit_glm(X, y, task)
    loss = linear_loss if task == "linear" else logistic_loss
    for w, b, c in zip(np.atleast_2d(m.weights), np.atleast_1d(m.intercept), labels):
        t = y if c is None else (y == c).astype(float)
        _, gw, gb = loss(X, t, w, b)
        assert np.all(np.isfinite(w))
        assert abs(gb) <= 1e-6
        assert np.all(np.abs(gw) <= 1e-6)


class TestSupportMonotonicityProperty:
    def test_decreasing_grid_mostly_non_decreasing_support(self):
        # over a decreasing penalty grid, support sizes should be
        # non-decreasing in at least 95% of adjacent pairs
        gen = rng(23)
        good = total = 0
        for trial in range(20):
            n = int(gen.integers(40, 120))
            d = int(gen.integers(5, 25))
            X = gen.integers(0, 2, size=(n, d)).astype(np.float64)
            task = "linear" if trial % 2 == 0 else "logistic"
            w_true = np.zeros(d)
            nz = gen.choice(d, size=min(4, d), replace=False)
            w_true[nz] = gen.normal(size=len(nz)) * 2
            if task == "linear":
                y = X @ w_true + gen.normal(size=n) * 0.1
            else:
                y = (sigmoid(X @ w_true - w_true.sum() / 2 + gen.normal(size=n) * 0.3) > 0.5
                     ).astype(np.int64)
                if len(np.unique(y)) < 2:
                    continue
            lm = lambda_max(X, y, task)
            if lm <= 0:
                continue
            grid = lm * np.array([0.9, 0.7, 0.5, 0.35, 0.25, 0.15, 0.1, 0.05, 0.02, 0.01])
            sizes = [len(support(fit_lasso(X, y, lam, task))) for lam in grid]
            for a, b in zip(sizes, sizes[1:]):
                total += 1
                good += a <= b
        assert total > 0
        assert good / total >= 0.95, f"monotone fraction {good}/{total}"
