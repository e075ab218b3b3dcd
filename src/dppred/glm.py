"""Generalized linear models over the binary rule space.

Every fit, for squared error and cross entropy alike, runs one
working-set proximal Newton method on the mean loss plus an L1 penalty:
the full gradient picks the working set (non-zeros plus the strongest KKT
violators), the loss's quadratic model there is minimized exactly with
its L1 term by feature-sign search, and the step is backtracked on the
true objective. The unpenalized refit is the same solver at a penalty of
zero, where each step is a plain Newton step on the working set.
Internally columns are centered and the intercept is an unpenalized
coordinate, which makes the all-zero weight vector an exact fixed point
whenever the penalty is at least ``lambda_max``. Prediction scores an
(n, k) rule matrix, each row alike.
"""

import math
from dataclasses import dataclass, field

import numpy as np

TASK_LOGISTIC = "logistic"
TASK_LINEAR = "linear"

_RTOL = 1e-10         # relative objective change that ends the outer loop
_MAX_OUTER = 1000     # outer-step cap; a guard only, fits stop after tens of steps
_KKT_TOL = 1e-9       # gradient slack, times max(1, lam), before a zero weight violates KKT
_MAX_ENTRANTS = 10    # strongest violators added to the lasso working set per outer step


@dataclass
class GlmModel:
    weights: np.ndarray          # (d,) or (n_classes, d) for one-vs-rest
    intercept: np.ndarray | float
    task: str
    classes: int = 0             # class count for logistic, 0 for linear
    objective_trace: np.ndarray | None = field(default=None, repr=False)


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, e / (1 + e) below
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _rmatvec(X: np.ndarray, r: np.ndarray) -> np.ndarray:
    # float32 matrices get a float32 operand: a mixed-dtype matmul would
    # silently recast the whole matrix on every call
    if X.dtype == np.float32:
        return np.asarray(X.T @ r.astype(np.float32, copy=False), dtype=np.float64)
    return np.asarray(X.T @ np.asarray(r, dtype=np.float64), dtype=np.float64)


def _centered_rmatvec(X: np.ndarray, mu: np.ndarray, r: np.ndarray) -> np.ndarray:
    """X_cᵀ r / n for the column-centered X, without materializing it."""
    return (_rmatvec(X, r) - mu * r.sum()) / len(r)


def _logit(p: float) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return math.log(p / (1.0 - p))


def _class_count(y: np.ndarray) -> int:
    y = np.asarray(y)
    uniq = np.unique(y.astype(np.int64))
    if uniq.size < 2:
        raise ValueError("logistic fitting needs at least 2 distinct labels")
    return int(uniq.max()) + 1


def _targets(y: np.ndarray, task: str) -> tuple[list[np.ndarray], int]:
    """The float64 fit targets of ``y`` (one per one-vs-rest class beyond two
    classes), and the class count (0 for linear)."""
    if task == TASK_LINEAR:
        return [y.astype(np.float64)], 0
    if task != TASK_LOGISTIC:
        raise ValueError(f"unknown task {task!r}")
    n_classes = _class_count(y)
    labels = [1] if n_classes == 2 else range(n_classes)
    return [(y.astype(np.int64) == c).astype(np.float64) for c in labels], n_classes


def lambda_max(Xp, y, task: str) -> float:
    """Smallest penalty making the all-zero weight vector optimal.

    This is the largest coordinate of the unpenalized-loss gradient at
    w = 0 with the intercept at its optimum; the fitters share its
    arithmetic so the zero fixed point is exact.
    """
    Xp = np.asarray(Xp)
    y = np.asarray(y)
    if Xp.size == 0 or len(y) == 0:
        raise ValueError("lambda_max of an empty problem is undefined")
    targets, _ = _targets(y, task)
    mu = Xp.mean(axis=0, dtype=np.float64)
    # squared error's gradient is twice the residual's; doubling is exact
    best = max(float(np.abs(_centered_rmatvec(Xp, mu, np.full(len(y), t.mean()) - t)).max())
               for t in targets)
    return 2.0 * best if task == TASK_LINEAR else best


def _solve(H: np.ndarray, r: np.ndarray) -> np.ndarray:
    """H⁻¹r. A singular H (duplicate, complement or nested rule columns) gets
    a tiny ridge; its huge null-space component is then cut back by the
    caller's line search at the first zero crossing."""
    try:
        x = np.linalg.solve(H, r)
        if np.all(np.isfinite(x)):
            return x
    except np.linalg.LinAlgError:
        pass
    return np.linalg.solve(H + 1e-12 * np.eye(len(r)), r)


def _feature_sign(H, g, x0, lam, tol):
    """Minimize gᵀ(x - x0) + ½(x - x0)ᵀH(x - x0) + lam·|x[1:]|₁ exactly.

    Feature-sign search (Lee et al. 2007): fix the signs of the active
    coordinates, solve that equality-constrained QP, then line-search the
    segment towards its solution over the points where a coefficient
    crosses zero. While the active set is optimal the strongest violator
    enters. Coordinate 0 is the unpenalized intercept, always active.
    """
    x = x0.copy()

    def q(v):
        d = v - x0
        return float(g @ d + 0.5 * d @ H @ d) + lam * float(np.abs(v[1:]).sum())

    # each step lowers the objective, so sign patterns never repeat; the cap
    # only guards against rounding
    for _ in range(20 * len(x0) + 100):
        s = g + H @ (x - x0)
        theta = np.sign(x)
        theta[0] = 0.0
        active = x != 0.0
        active[0] = True
        if np.all(np.abs(s[active] + lam * theta[active]) <= tol):
            excess = np.where(active, -np.inf, np.abs(s) - lam)
            j = int(np.argmax(excess))
            if excess[j] <= tol:
                break
            active[j] = True
            theta[j] = -np.sign(s[j])
        a = np.flatnonzero(active)
        step = np.zeros_like(x)
        step[a] = -_solve(H[np.ix_(a, a)], s[a] + lam * theta[a])
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where((x != 0.0) & (step != 0.0), -x / step, np.inf)
        cross[0] = np.inf
        best, f_best = x, q(x)
        for t in np.append(np.unique(cross[(cross > 0.0) & (cross < 1.0)]), 1.0):
            v = x + t * step
            v[cross == t] = 0.0
            f_v = q(v)
            # a zero crossing that only ties x still zeroes a weight that
            # rounding left near 1e-16 with the wrong sign; taking it lets the
            # rule re-enter with the right sign instead of stopping short
            if f_v < f_best or (f_v == f_best and best is x and t < 1.0):
                best, f_best = v, f_v
        if best is x:
            break
        x = best
    return x


def _lasso_one(X, mu, t, lam, task, w, b):
    """Working-set proximal Newton on the mean loss + lam * l1 for one target.

    Each outer step screens the full centered gradient, takes the non-zeros
    plus the strongest KKT violators as the working set, solves the L1 QP
    of the loss's quadratic model there exactly, and backtracks on the
    true objective. The squared-error model is exact, so one step solves
    the working-set problem.
    """
    n = X.shape[0]
    tol = _KKT_TOL * max(1.0, lam)

    def evaluate(wv, bv):
        nz = np.flatnonzero(wv)
        z = np.asarray(X[:, nz], dtype=np.float64) @ wv[nz] - float(mu[nz] @ wv[nz]) + bv
        if task == TASK_LINEAR:
            loss = float((z - t) @ (z - t)) / n
        else:
            loss = float(np.logaddexp(0.0, z).sum() - t @ z) / n
        return loss + lam * float(np.abs(wv).sum()), z

    f, z = evaluate(w, b)
    trace = [f]
    for _ in range(_MAX_OUTER):
        if task == TASK_LINEAR:
            r, curv = 2.0 * (z - t), np.full(n, 2.0 / n)
        else:
            p = sigmoid(z)
            r, curv = p - t, p * (1.0 - p) / n
        g = _centered_rmatvec(X, mu, r)
        excess = np.where(w == 0.0, np.abs(g) - lam, -np.inf)
        strongest = np.argsort(-excess, kind="stable")[:_MAX_ENTRANTS]
        entrants = strongest[excess[strongest] > tol]
        work = np.union1d(np.flatnonzero(w), entrants)
        A = np.column_stack([np.ones(n), np.asarray(X[:, work], dtype=np.float64) - mu[work]])
        x0 = np.append(b, w[work])
        step = _feature_sign(A.T @ (curv[:, None] * A), A.T @ r / n, x0, lam, tol) - x0

        alpha = 1.0
        while True:
            w_try = w.copy()
            w_try[work] = x0[1:] + alpha * step[1:]
            f_try, z_try = evaluate(w_try, b + alpha * step[0])
            if f_try <= f or alpha < 1e-10:
                break
            alpha *= 0.5
        if f_try > f:
            break
        if not np.isfinite(f_try):
            raise ValueError("objective became non-finite during the lasso fit")
        settled = entrants.size == 0 or np.array_equal(w_try != 0.0, w != 0.0)
        done = settled and f - f_try <= _RTOL * max(1.0, abs(f))
        w, b, f, z = w_try, b + alpha * step[0], f_try, z_try
        trace.append(f)
        if done:
            break
    return w, float(b - mu @ w), trace


def fit_lasso(Xp, y, lam: float, task: str, warm_start: GlmModel | None = None) -> GlmModel:
    """Fit with an L1 penalty of ``lam``; coordinates hit exact zeros.

    Both losses, and each one-vs-rest class, run the working-set proximal
    Newton solver, whose outer steps stop once no KKT violator is left and
    the objective changes by at most 1e-10 relative. ``warm_start`` seeds
    the weights and intercept (in the returned, uncentered form).
    """
    if lam < 0:
        raise ValueError("the L1 penalty must be non-negative")
    Xp = np.asarray(Xp)
    y = np.asarray(y)
    if Xp.shape[0] != len(y):
        raise ValueError("row count of the feature matrix must match the label count")
    targets, n_classes = _targets(y, task)
    mu = Xp.mean(axis=0, dtype=np.float64)
    warm_w = None if warm_start is None else np.atleast_2d(warm_start.weights)
    warm_b = None if warm_start is None else np.atleast_1d(warm_start.intercept)
    weights, intercepts, trace = [], [], []
    for i, t in enumerate(targets):
        if warm_start is None:
            w = np.zeros(Xp.shape[1])
            b = float(t.mean()) if task == TASK_LINEAR else _logit(float(t.mean()))
        else:
            # the warm intercept arrives in uncentered form; recenter
            w = warm_w[i].astype(np.float64)
            b = float(warm_b[i] + mu @ w)
        w, b, tr = _lasso_one(Xp, mu, t, lam, task, w, b)
        weights.append(w)
        intercepts.append(b)
        trace.extend(tr)
    if len(targets) == 1:
        weights, intercepts = weights[0], intercepts[0]
    else:
        weights, intercepts = np.vstack(weights), np.array(intercepts)
    return GlmModel(weights=weights, intercept=intercepts, task=task, classes=n_classes,
                    objective_trace=np.array(trace))


def fit_glm(Xp, y, task: str) -> GlmModel:
    """Fit an unpenalized GLM on the binary rule matrix: the lasso at lam = 0."""
    return fit_lasso(Xp, y, 0.0, task)


def support(model: GlmModel) -> np.ndarray:
    """Indices of rule dimensions carrying a non-zero weight (any class)."""
    w = np.atleast_2d(model.weights)
    return np.flatnonzero(np.any(w != 0.0, axis=0))


def _scores(model: GlmModel, xp: np.ndarray) -> np.ndarray:
    """(n, outputs) scores of an (n, k) rule matrix, as a stack of one-row products.

    Each row runs the BLAS call a lone row runs, so scores do not depend on
    ``n``; a plain ``xp @ w`` switches from dot to gemv beyond one row.
    """
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    w = np.atleast_2d(model.weights)
    if xp.ndim != 2 or xp.shape[1] != w.shape[1]:
        raise ValueError(f"expected an (n, {w.shape[1]}) rule matrix, got shape {xp.shape}")
    return np.matmul(xp[:, None, :], w.T)[:, 0] + np.asarray(model.intercept)


def predict_proba(model: GlmModel, xp: np.ndarray) -> np.ndarray:
    """Per-class probabilities (one-vs-rest sigmoids beyond two classes) of
    each row of an (n, k) rule matrix."""
    if model.task != TASK_LOGISTIC:
        raise ValueError("probabilities are defined for logistic models only")
    p = sigmoid(_scores(model, xp))
    if model.classes == 2:
        p = np.concatenate([1.0 - p, p], axis=1)
    return p


def predict_glm(model: GlmModel, xp: np.ndarray):
    """Real predictions (linear) or class indices (logistic; ties to the lowest
    class) of the rows of an (n, k) rule matrix."""
    if model.task == TASK_LINEAR:
        return _scores(model, xp)[:, 0]
    return np.argmax(predict_proba(model, xp), axis=1)
