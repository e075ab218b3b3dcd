"""Generalized linear models over the binary rule space.

Plain fits run gradient descent (backtracking or fixed step) on the mean
loss; L1-penalized fits use cyclic coordinate descent with soft
thresholding (squared error) or a monotone accelerated proximal gradient
(cross entropy). Internally columns are centered and the intercept is kept
at its conditional optimum, which makes the all-zero weight vector an
exact fixed point whenever the penalty is at least ``lambda_max``.
Prediction scores one rule vector or a whole rule matrix, each row alike.
"""

import math
from dataclasses import dataclass, field

import numpy as np

TASK_LOGISTIC = "logistic"
TASK_LINEAR = "linear"

_ARMIJO = 1e-4
_MIN_STEP = 1e-18


@dataclass
class FitConfig:
    max_iterations: int = 5000
    tolerance: float = 1e-7
    step_policy: str = "backtracking"  # or "fixed"
    step_size: float = 1.0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.step_policy not in ("backtracking", "fixed"):
            raise ValueError(f"unknown step policy {self.step_policy!r}")


@dataclass
class GlmModel:
    weights: np.ndarray          # (d,) or (n_classes, d) for one-vs-rest
    intercept: np.ndarray | float
    task: str
    classes: int = 0             # class count for logistic, 0 for linear
    objective_trace: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_dims(self) -> int:
        w = np.atleast_2d(self.weights)
        return w.shape[1]


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, e / (1 + e) below
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _matvec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    # float32 matrices get a float32 operand: a mixed-dtype matmul would
    # silently recast the whole matrix on every call
    if X.dtype == np.float32:
        return np.asarray(X @ v.astype(np.float32, copy=False), dtype=np.float64)
    return np.asarray(X @ np.asarray(v, dtype=np.float64), dtype=np.float64)


def _rmatvec(X: np.ndarray, r: np.ndarray) -> np.ndarray:
    if X.dtype == np.float32:
        return np.asarray(X.T @ r.astype(np.float32, copy=False), dtype=np.float64)
    return np.asarray(X.T @ np.asarray(r, dtype=np.float64), dtype=np.float64)


def linear_loss(X, y, w, b):
    """Mean squared error and its gradient."""
    X = np.asarray(X, dtype=np.float64)
    r = X @ w + b - y
    n = len(y)
    f = float(r @ r) / n
    return f, (2.0 / n) * (X.T @ r), 2.0 * float(r.mean())


def logistic_loss(X, t, w, b):
    """Mean cross entropy (natural log) and its gradient, targets in {0,1}."""
    X = np.asarray(X, dtype=np.float64)
    z = X @ w + b
    n = len(t)
    f = float(np.logaddexp(0.0, z).sum() - t @ z) / n
    p = sigmoid(z)
    r = p - t
    return f, (X.T @ r) / n, float(r.mean())


def _refit_intercept_logistic(s: np.ndarray, t: np.ndarray, b: float) -> float:
    # 1-d Newton on b for fixed linear part s
    for _ in range(40):
        p = sigmoid(s + b)
        g = float(p.mean() - t.mean())
        h = float((p * (1.0 - p)).mean())
        if h < 1e-14:
            break
        step = g / h
        b -= step
        if abs(step) < 1e-13:
            break
    return b


def _logit(p: float) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return math.log(p / (1.0 - p))


def _fit_gd_binary(X, y, task, cfg: FitConfig):
    """Gradient descent on centered columns; returns (w, intercept, trace)."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    mu = X.mean(axis=0)
    Xc = X - mu
    w = np.zeros(d)

    if task == TASK_LINEAR:
        b = float(y.mean())

        def objective(wv):
            r = Xc @ wv + b - y
            return float(r @ r) / n, r
    else:
        b = _logit(float(y.mean()))

    def eval_logistic(wv, bv):
        z = Xc @ wv + bv
        return float(np.logaddexp(0.0, z).sum() - y @ z) / n

    if task == TASK_LINEAR:
        f, r = objective(w)
    else:
        f = eval_logistic(w, b)
    trace = [f]
    step = cfg.step_size

    for _ in range(cfg.max_iterations):
        if task == TASK_LINEAR:
            grad = (2.0 / n) * (Xc.T @ r)
        else:
            p = sigmoid(Xc @ w + b)
            grad = (Xc.T @ (p - y)) / n
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            break

        if cfg.step_policy == "fixed":
            w = w - cfg.step_size * grad
            if task == TASK_LINEAR:
                f_new, r = objective(w)
            else:
                b = _refit_intercept_logistic(Xc @ w, y, b)
                f_new = eval_logistic(w, b)
            if not np.isfinite(f_new):
                raise ValueError("objective became non-finite; fixed step size too large")
        else:
            while True:
                w_try = w - step * grad
                if task == TASK_LINEAR:
                    f_new, r_try = objective(w_try)
                else:
                    b_try = _refit_intercept_logistic(Xc @ w_try, y, b)
                    f_new = eval_logistic(w_try, b_try)
                if np.isfinite(f_new) and f_new <= f - _ARMIJO * step * gnorm2:
                    break
                step *= 0.5
                if step < _MIN_STEP:
                    break
            if step < _MIN_STEP:
                break
            w = w_try
            if task == TASK_LINEAR:
                r = r_try
            else:
                b = b_try
            step = min(step * 2.0, 1e6)  # optimistic restart for the next step

        trace.append(f_new)
        if abs(f - f_new) <= cfg.tolerance * max(1.0, abs(f)):
            f = f_new
            break
        f = f_new

    intercept = float(b - mu @ w)
    return w, intercept, np.array(trace)


def _class_count(y: np.ndarray) -> int:
    y = np.asarray(y)
    uniq = np.unique(y.astype(np.int64))
    if uniq.size < 2:
        raise ValueError("logistic fitting needs at least 2 distinct labels")
    return int(uniq.max()) + 1


def fit_glm(Xp, y, task: str, cfg: FitConfig | None = None) -> GlmModel:
    """Fit an unpenalized GLM on the binary rule matrix."""
    cfg = cfg or FitConfig()
    Xp = np.asarray(Xp)
    y = np.asarray(y)
    if Xp.shape[0] != len(y):
        raise ValueError("row count of the feature matrix must match the label count")

    if task == TASK_LINEAR:
        w, b, trace = _fit_gd_binary(Xp, y.astype(np.float64), task, cfg)
        return GlmModel(weights=w, intercept=b, task=task, classes=0, objective_trace=trace)
    if task != TASK_LOGISTIC:
        raise ValueError(f"unknown task {task!r}")

    n_classes = _class_count(y)
    if n_classes == 2:
        t = (y.astype(np.int64) == 1).astype(np.float64)
        w, b, trace = _fit_gd_binary(Xp, t, task, cfg)
        return GlmModel(weights=w, intercept=b, task=task, classes=2, objective_trace=trace)

    weights, intercepts, traces = [], [], []
    for c in range(n_classes):
        t = (y.astype(np.int64) == c).astype(np.float64)
        w, b, trace = _fit_gd_binary(Xp, t, task, cfg)
        weights.append(w)
        intercepts.append(b)
        traces.append(trace)
    return GlmModel(
        weights=np.vstack(weights),
        intercept=np.array(intercepts),
        task=task,
        classes=n_classes,
        objective_trace=np.concatenate(traces),
    )


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
    n = len(y)
    mu = Xp.mean(axis=0, dtype=np.float64)

    def centered_grad(resid):
        # X_cᵀ resid without materializing centered columns
        return (_rmatvec(Xp, resid) - mu * resid.sum()) / n

    if task == TASK_LINEAR:
        yf = y.astype(np.float64)
        g = 2.0 * centered_grad(yf.mean() - yf)
        return float(np.abs(g).max())
    if task != TASK_LOGISTIC:
        raise ValueError(f"unknown task {task!r}")

    n_classes = _class_count(y)
    targets = [1] if n_classes == 2 else range(n_classes)
    best = 0.0
    for c in targets:
        t = (y.astype(np.int64) == c).astype(np.float64)
        g = centered_grad(np.full(n, t.mean()) - t)
        best = max(best, float(np.abs(g).max()))
    return best


def _cd_lasso_linear(X, y, lam, cfg: FitConfig):
    """Cyclic coordinate descent on mean squared error + lam * l1."""
    n, d = X.shape
    Xf = np.asfortranarray(X, dtype=np.float64)
    mu = Xf.mean(axis=0)
    y = y.astype(np.float64)
    y_mean = float(y.mean())
    w = np.zeros(d)
    r = y - y_mean  # residual of y against the current centered fit
    col_norm2 = (Xf * Xf).sum(axis=0) - n * mu * mu
    col_norm2 = np.maximum(col_norm2, 0.0)
    thresh = n * lam / 2.0

    def objective():
        return float(r @ r) / n + lam * float(np.abs(w).sum())

    f = objective()
    trace = [f]
    for _ in range(cfg.max_iterations):
        for j in range(d):
            nj = col_norm2[j]
            if nj <= 0.0:
                w[j] = 0.0
                continue
            cj = Xf[:, j]
            rs = float(r.sum())
            a = float(cj @ r) - mu[j] * rs + nj * w[j]
            w_new = math.copysign(max(abs(a) - thresh, 0.0), a) / nj
            if w_new != w[j]:
                delta = w[j] - w_new
                r += delta * cj
                r -= delta * mu[j]
                w[j] = w_new
        f_new = objective()
        trace.append(f_new)
        if abs(f - f_new) <= cfg.tolerance * max(1.0, abs(f)):
            f = f_new
            break
        f = f_new

    intercept = y_mean - float(mu @ w)
    return w, intercept, np.array(trace)


def _power_step_bound(X, mu):
    """Upper bound on the largest eigenvalue of the centered Gram matrix."""
    d = X.shape[1]
    v = np.ones(d) / math.sqrt(d)
    lam = 1.0
    for _ in range(30):
        u = _matvec(X, v) - float(mu @ v)
        g = _rmatvec(X, u) - mu * float(u.sum())
        lam = float(np.linalg.norm(g))
        if lam <= 0.0:
            return 1.0
        v = g / lam
    return 1.2 * lam  # safety margin over the power-iteration estimate


def _fista_monotone(X, mu, t, lam, w, b, eta, max_iters, tol, trace):
    """Monotone FISTA sweep over the given matrix; returns (w, b, f)."""
    n = X.shape[0]

    def linear_part(wv):
        return _matvec(X, wv) - float(mu @ wv)

    def objective(z, wv):
        return float(np.logaddexp(0.0, np.asarray(z, dtype=np.float64)).sum() - t @ z) / n \
            + lam * float(np.abs(wv).sum())

    def grad(z):
        r = sigmoid(z) - t
        return (_rmatvec(X, r) - mu * r.sum()) / n

    s = linear_part(w)
    b = _refit_intercept_logistic(s, t, b)
    f = objective(s + b, w)
    trace.append(f)

    v = w.copy()
    tk = 1.0
    for _ in range(max_iters):
        sv = linear_part(v)
        bv = _refit_intercept_logistic(sv, t, b)
        g = grad(sv + bv)
        w_prop = v - eta * g
        w_prop = np.sign(w_prop) * np.maximum(np.abs(w_prop) - eta * lam, 0.0)
        s_prop = linear_part(w_prop)
        b_prop = _refit_intercept_logistic(s_prop, t, bv)
        f_prop = objective(s_prop + b_prop, w_prop)

        if f_prop > f:
            # momentum overshoot: plain proximal step from the last iterate
            s = linear_part(w)
            b = _refit_intercept_logistic(s, t, b)
            g = grad(s + b)
            w_new = w - eta * g
            w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - eta * lam, 0.0)
            s_new = linear_part(w_new)
            b_new = _refit_intercept_logistic(s_new, t, b)
            f_new = objective(s_new + b_new, w_new)
            tk = 1.0
            v = w_new.copy()
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            v = w_prop + ((tk - 1.0) / t_next) * (w_prop - w)
            tk = t_next
            w_new, b_new, f_new = w_prop, b_prop, f_prop

        if not np.isfinite(f_new):
            raise ValueError("objective became non-finite during proximal descent")
        trace.append(min(f_new, f))
        done = abs(f - f_new) <= tol * max(1.0, abs(f))
        if f_new <= f:
            w, b, f = w_new, b_new, f_new
        if done:
            break
    return w, b, f


def _prox_lasso_logistic(X, t, lam, cfg: FitConfig, w0=None, b0=None, gram_bound=None):
    """Proximal gradient on mean cross entropy + lam * l1, with working sets.

    A capped full-matrix pass locates the likely support; restricted
    high-precision passes then run on the working set, growing it with any
    coordinate whose gradient violates the KKT bound until none remain.
    """
    n, d = X.shape
    mu = X.mean(axis=0, dtype=np.float64)
    t = t.astype(np.float64)

    w = np.zeros(d) if w0 is None else w0.astype(np.float64).copy()
    b = _logit(float(t.mean())) if b0 is None else float(b0)

    if gram_bound is None:
        gram_bound = _power_step_bound(X, mu)
    eta = 1.0 / max(gram_bound / (4.0 * n), 1e-12)

    trace: list[float] = []
    scout_iters = min(cfg.max_iterations, 200)
    w, b, f = _fista_monotone(X, mu, t, lam, w, b, eta, scout_iters, cfg.tolerance, trace)

    polished = False
    for _ in range(20):
        z = _matvec(X, w) - float(mu @ w) + b
        r = sigmoid(z) - t
        g_full = (_rmatvec(X, r) - mu * r.sum()) / n
        active = w != 0.0
        violations = (~active) & (np.abs(g_full) > lam * (1.0 + 1e-9))
        if polished and not violations.any():
            break
        work = np.flatnonzero(active | violations)
        if len(work) == 0:
            break
        sub = X[:, work] if X.dtype == np.float64 \
            else np.ascontiguousarray(np.asarray(X)[:, work], dtype=np.float64)
        mu_sub = mu[work]
        gram_sub = float(np.linalg.eigvalsh((sub - mu_sub).T @ (sub - mu_sub))[-1]) \
            if len(work) <= 400 else _power_step_bound(sub, mu_sub)
        eta_sub = 1.0 / max(gram_sub * 1.0001 / (4.0 * n), 1e-12)
        # the restricted problem is small: solve it hard so the support is
        # identified, not just the objective value
        w_sub, b, f = _fista_monotone(sub, mu_sub, t, lam, w[work].copy(), b,
                                      eta_sub, max(cfg.max_iterations, 20000),
                                      min(cfg.tolerance, 1e-12), trace)
        w = np.zeros(d)
        w[work] = w_sub
        polished = True

    intercept = float(b - mu @ w)
    return w, intercept, np.array(trace)


def fit_lasso(Xp, y, lam: float, task: str, cfg: FitConfig | None = None,
              warm_start: GlmModel | None = None, gram_bound: float | None = None) -> GlmModel:
    """Fit with an L1 penalty of ``lam``; coordinates hit exact zeros.

    ``gram_bound`` optionally caches the centered-Gram spectral bound when
    many penalties are fitted on the same matrix.
    """
    if lam < 0:
        raise ValueError("the L1 penalty must be non-negative")
    cfg = cfg or FitConfig()
    Xp = np.asarray(Xp)
    y = np.asarray(y)
    if Xp.shape[0] != len(y):
        raise ValueError("row count of the feature matrix must match the label count")

    if task == TASK_LINEAR:
        w, b, trace = _cd_lasso_linear(Xp, y, lam, cfg)
        return GlmModel(weights=w, intercept=b, task=task, classes=0, objective_trace=trace)
    if task != TASK_LOGISTIC:
        raise ValueError(f"unknown task {task!r}")

    n_classes = _class_count(y)
    if n_classes == 2:
        t = (y.astype(np.int64) == 1).astype(np.float64)
        w0 = warm_start.weights if warm_start is not None else None
        b0 = warm_start.intercept if warm_start is not None else None
        if b0 is not None and w0 is not None:
            # warm intercept arrives in uncentered form; recenter
            b0 = float(b0 + Xp.mean(axis=0, dtype=np.float64) @ w0)
        w, b, trace = _prox_lasso_logistic(Xp, t, lam, cfg, w0=w0, b0=b0, gram_bound=gram_bound)
        return GlmModel(weights=w, intercept=b, task=task, classes=2, objective_trace=trace)

    weights, intercepts, traces = [], [], []
    for c in range(n_classes):
        t = (y.astype(np.int64) == c).astype(np.float64)
        w0 = warm_start.weights[c] if warm_start is not None else None
        b0 = warm_start.intercept[c] if warm_start is not None else None
        if b0 is not None and w0 is not None:
            b0 = float(b0 + Xp.mean(axis=0, dtype=np.float64) @ w0)
        w, b, trace = _prox_lasso_logistic(Xp, t, lam, cfg, w0=w0, b0=b0, gram_bound=gram_bound)
        weights.append(w)
        intercepts.append(b)
        traces.append(trace)
    return GlmModel(
        weights=np.vstack(weights),
        intercept=np.array(intercepts),
        task=task,
        classes=n_classes,
        objective_trace=np.concatenate(traces),
    )


def support(model: GlmModel) -> np.ndarray:
    """Indices of rule dimensions carrying a non-zero weight (any class)."""
    w = np.atleast_2d(model.weights)
    return np.flatnonzero(np.any(w != 0.0, axis=0))


def _scores(model: GlmModel, xp: np.ndarray) -> np.ndarray:
    """(n, outputs) scores of an (n, k) rule matrix, as a stack of one-row products.

    Each row runs the BLAS call a lone row runs, so scores do not depend on
    ``n``; a plain ``xp @ w`` switches from dot to gemv beyond one row.
    """
    xp = np.ascontiguousarray(np.atleast_2d(xp))
    w = np.atleast_2d(model.weights)
    if xp.shape[1] != w.shape[1]:
        raise ValueError(f"expected {w.shape[1]} rule dimensions, got {xp.shape[1]}")
    return np.matmul(xp[:, None, :], w.T)[:, 0] + np.asarray(model.intercept)


def predict_proba(model: GlmModel, xp: np.ndarray) -> np.ndarray:
    """Per-class probabilities (one-vs-rest sigmoids beyond two classes) of a
    (k,) rule vector or, row by row, of an (n, k) rule matrix."""
    if model.task != TASK_LOGISTIC:
        raise ValueError("probabilities are defined for logistic models only")
    xp = np.asarray(xp, dtype=np.float64)
    p = sigmoid(_scores(model, xp))
    if model.classes == 2:
        p = np.concatenate([1.0 - p, p], axis=1)
    return p[0] if xp.ndim == 1 else p


def predict_glm(model: GlmModel, xp: np.ndarray):
    """Real prediction (linear) or class index (logistic; ties to lowest class):
    a Python float or int for a (k,) rule vector, an array for an (n, k) matrix."""
    xp = np.asarray(xp, dtype=np.float64)
    if model.task == TASK_LINEAR:
        out = _scores(model, xp)[:, 0]
    else:
        out = np.argmax(predict_proba(model, np.atleast_2d(xp)), axis=1)
    return out[0].item() if xp.ndim == 1 else out
