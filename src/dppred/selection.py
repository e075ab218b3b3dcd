"""Top-k rule selection by combined predictive performance.

Both selectors work on the distinct columns of the pool: columns that are
identical on the training rows keep only their lowest pool index, so a
rule never competes with its own copy. Chosen rules, traces and the refit
still refer to pool indices.

Forward selection scores every candidate extension of the incumbent rule
set each round. Regression gains come from exact least-squares updates
(Schur complement against the incumbent Gram matrix), so a candidate's
score is the true refit MSE. Classification scoring compresses the rows
to distinct (incumbent-bits, label) groups, which leaves the likelihood
unchanged, then runs a few damped Newton steps per candidate from the
incumbent warm start with the Hessian frozen at that start. Warm starts
make the per-round training metric non-decreasing by construction.

LASSO selection binary-searches the penalty for the largest support of at
most k rules, warm-starting each fit from the previous one. Each penalized
fit is the working-set proximal Newton solver of ``glm.fit_lasso``: one
full gradient per outer step, an exact feature-sign solve on the
non-zeros plus the strongest KKT violators. Both selectors end with
``glm.fit_glm`` on the chosen columns, the same solver at a penalty of
zero.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .glm import (
    TASK_LINEAR,
    TASK_LOGISTIC,
    GlmModel,
    fit_glm,
    fit_lasso,
    lambda_max,
    sigmoid,
    support,
)

_INNER_TOL = 1e-5
_SCHUR_EPS = 1e-9
_MAX_GROUPS_FULL_BUDGET = 2048
_BLOCK_CELLS = 3e7  # cap on candidate-block * group-count temporaries
_COPY_ROWS = 4096   # rows per block of the work copy: no full-size gather of Xp first


@dataclass
class SelectionResult:
    chosen: list[int]
    model: GlmModel
    trace: list[tuple]

    def write_trace_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if self.trace and len(self.trace[0]) == 3:
                writer.writerow(["round", "pattern_index", "metric"])
                for rnd, idx, metric in self.trace:
                    writer.writerow([rnd, idx, repr(float(metric))])
            else:
                writer.writerow(["lambda", "support_size"])
                for lam, size in self.trace:
                    writer.writerow([repr(float(lam)), size])


def _distinct_columns(Xp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float32 work copy of the distinct columns of ``Xp``, and their pool indices.

    A column equal to another on the training rows adds exactly zero
    information, so each distinct content keeps only its lowest pool index.
    float32 keeps the big candidate matmuls affordable; counts and
    co-occurrence sums stay exact because entries are 0/1.
    """
    keys = np.ascontiguousarray(Xp.T)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    keep = np.sort(np.unique(keys, return_index=True)[1])
    del keys  # as large as the pool itself: free it before the copy
    Xw = np.empty((Xp.shape[0], len(keep)), dtype=np.float32)
    for start in range(0, Xp.shape[0], _COPY_ROWS):
        Xw[start:start + _COPY_ROWS] = Xp[start:start + _COPY_ROWS, keep]
    return Xw, keep


def forward_select(Xp, y, k: int, task: str) -> SelectionResult:
    """Greedy one-rule-at-a-time selection maximizing training performance."""
    if k < 1:
        raise ValueError("k must be >= 1")
    Xp = np.asarray(Xp)
    y = np.asarray(y)
    if Xp.shape[1] == 0:
        raise ValueError("cannot select from an empty pool")
    Xw, keep = _distinct_columns(Xp)
    if k > len(keep):
        warnings.warn(f"k={k} exceeds the {len(keep)} distinct columns of the pool; "
                      "selecting the entire pool")
        k = len(keep)

    if task == TASK_LINEAR:
        chosen, trace = _forward_linear(Xw, y.astype(np.float64), k)
    elif task == TASK_LOGISTIC:
        chosen, trace = _forward_logistic(Xw, y.astype(np.int64), k)
    else:
        raise ValueError(f"unknown task {task!r}")

    chosen = keep[chosen].tolist()
    trace = [(rnd, int(keep[j]), metric) for rnd, j, metric in trace]
    model = fit_glm(Xp[:, chosen].astype(np.float64), y, task)
    return SelectionResult(chosen=chosen, model=model, trace=trace)


def _forward_linear(Xw, y, k):
    """Exact least-squares forward selection via rank-one gain updates."""
    n = Xw.shape[0]
    col_sq = (Xw * Xw).sum(axis=0, dtype=np.float64)

    chosen: list[int] = []
    trace: list[tuple] = []
    design = np.ones((n, 1))
    theta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ theta
    sse = float(resid @ resid)
    last_metric = -np.inf
    # cross[i] = (design column i)ᵀ X for every candidate column
    cross = [Xw.sum(axis=0, dtype=np.float64)]

    for rnd in range(1, k + 1):
        proj = np.asarray(Xw.T @ resid.astype(Xw.dtype), dtype=np.float64)
        B = np.vstack(cross)
        gram = design.T @ design
        try:
            Z = np.linalg.solve(gram, B)
        except np.linalg.LinAlgError:
            Z = np.linalg.lstsq(gram, B, rcond=None)[0]
        schur = col_sq - (B * Z).sum(axis=0)
        gains = np.where(schur > _SCHUR_EPS, proj * proj / np.maximum(schur, _SCHUR_EPS), 0.0)
        metrics = -(sse - gains) / n
        metrics[chosen] = -np.inf
        winner = int(np.argmax(metrics))

        chosen.append(winner)
        col = Xw[:, winner].astype(np.float64)
        design = np.column_stack([design, col])
        theta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid_new = y - design @ theta
        sse_new = float(resid_new @ resid_new)
        if sse_new <= sse:
            resid, sse = resid_new, sse_new
        # else: keep the extended incumbent (new weight 0), which scores sse exactly
        metric = max(-sse / n, last_metric)
        last_metric = metric
        trace.append((rnd, winner, metric))
        cross.append(np.asarray(Xw.T @ col.astype(Xw.dtype), dtype=np.float64))

    return chosen, trace


def _group_rows(selected_bits: np.ndarray, y: np.ndarray):
    """Collapse rows to distinct (incumbent bits, label) combinations."""
    key = np.column_stack([selected_bits, y]).astype(np.int64, copy=False)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(len(uniq)))
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    return uniq[:, :-1].astype(np.float64), uniq[:, -1], counts, order, starts


def _grouped_candidate_counts(Xw, order, starts):
    gathered = Xw[order]
    m1 = np.add.reduceat(gathered, starts, axis=0)
    return np.asarray(m1, dtype=np.float64)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _forward_logistic(Xw, y, k):
    """Grouped warm-started Newton scoring for every candidate each round."""
    n, pool = Xw.shape
    n_classes = int(y.max()) + 1
    class_list = [1] if n_classes == 2 else list(range(n_classes))

    # incumbent per class: weights over chosen columns plus intercept
    inc_w = [np.zeros(0) for _ in class_list]
    p_mean = [float((y == c).mean()) for c in class_list]
    inc_b = [float(np.log(max(p, 1e-12) / max(1.0 - p, 1e-12))) for p in p_mean]

    chosen: list[int] = []
    trace: list[tuple] = []
    last_metric = -np.inf

    for rnd in range(1, k + 1):
        bits = Xw[:, chosen].astype(np.int64)
        Xg, yg, n_g, order, starts = _group_rows(bits, y)
        m1 = _grouped_candidate_counts(Xw, order, starts)  # (G, pool)
        m0 = n_g[:, None] - m1
        n_groups = len(n_g)
        inner_iters = 25 if n_groups <= _MAX_GROUPS_FULL_BUDGET else 8
        block = max(1, int(_BLOCK_CELLS / max(n_groups, 1)))

        total_nll = np.zeros(pool)
        new_w = np.zeros((pool, len(chosen) + 1, len(class_list)))
        new_b = np.zeros((pool, len(class_list)))

        for ci, c in enumerate(class_list):
            t_g = (yg == c).astype(np.float64)
            nll, wfit, vfit, bfit = _score_candidates_one_class(
                Xg, t_g, n_g, m1, m0, inc_w[ci], inc_b[ci], inner_iters, block)
            total_nll += nll
            if len(chosen):
                new_w[:, :-1, ci] = wfit
            new_w[:, -1, ci] = vfit
            new_b[:, ci] = bfit

        metrics = -total_nll / n
        metrics[chosen] = -np.inf
        winner = int(np.argmax(metrics))
        metric = float(metrics[winner])

        if metric >= last_metric:
            for ci in range(len(class_list)):
                inc_w[ci] = new_w[winner, :, ci].copy()
                inc_b[ci] = float(new_b[winner, ci])
        else:
            # regrouping float noise: extend the incumbent with a zero weight
            for ci in range(len(class_list)):
                inc_w[ci] = np.append(inc_w[ci], 0.0)
            metric = last_metric
        chosen.append(winner)
        last_metric = metric
        trace.append((rnd, winner, metric))

    return chosen, trace


def _score_candidates_one_class(Xg, t_g, n_g, m1, m0, w_start, b_start, max_iters, block):
    """Fit every single-column extension for one binary target.

    Groups are exact sufficient statistics; each candidate's parameters are
    updated with damped Newton steps whose Hessian is frozen at the shared
    warm start, solved per candidate through the Schur complement of the
    shared block.
    """
    n_groups, s = Xg.shape
    pool = m1.shape[1]

    z0 = Xg @ w_start + b_start
    mu0 = sigmoid(z0)
    dens = mu0 * (1.0 - mu0)            # per-row curvature density
    phi = np.column_stack([np.ones(n_groups), Xg])  # (G, s+1)
    h_base = phi.T @ ((n_g * dens)[:, None] * phi)
    h_base[np.diag_indices_from(h_base)] += 1e-10
    cross = phi.T @ (dens[:, None] * m1)  # (s+1, pool)
    corner = dens @ m1
    try:
        u_mat = np.linalg.solve(h_base, cross)
    except np.linalg.LinAlgError:
        u_mat = np.linalg.lstsq(h_base, cross, rcond=None)[0]
    schur = corner - (cross * u_mat).sum(axis=0)
    usable = schur > _SCHUR_EPS * np.maximum(corner, 1.0)
    schur_safe = np.where(usable, schur, 1.0)

    W = np.tile(w_start, (pool, 1))
    V = np.zeros(pool)
    B = np.full(pool, float(b_start))
    nll = np.empty(pool)

    def block_nll(sl, Wb, Vb, Bb):
        zs = Wb @ Xg.T + Bb[:, None]
        z1 = zs + Vb[:, None]
        loss1 = m1[:, sl].T * (_softplus(z1) - t_g[None, :] * z1)
        loss0 = m0[:, sl].T * (_softplus(zs) - t_g[None, :] * zs)
        return loss1.sum(axis=1) + loss0.sum(axis=1), zs, z1

    for start in range(0, pool, block):
        sl = slice(start, min(start + block, pool))
        Wb, Vb, Bb = W[sl], V[sl], B[sl]
        f_cur, zs, z1 = block_nll(sl, Wb, Vb, Bb)
        active = np.ones(sl.stop - sl.start, dtype=bool)

        for _ in range(max_iters):
            r1 = m1[:, sl].T * (sigmoid(z1) - t_g[None, :])
            r0 = m0[:, sl].T * (sigmoid(zs) - t_g[None, :])
            r_all = r1 + r0
            g_shared = r_all @ phi  # (B, s+1)
            g_v = r1.sum(axis=1)

            try:
                q = np.linalg.solve(h_base, g_shared.T)
            except np.linalg.LinAlgError:
                q = np.linalg.lstsq(h_base, g_shared.T, rcond=None)[0]
            dv = np.where(usable[sl], (g_v - (cross[:, sl] * q).sum(axis=0)) / schur_safe[sl], 0.0)
            d_shared = q - u_mat[:, sl] * dv[None, :]  # (s+1, B)

            alpha = np.where(active, 1.0, 0.0)
            for _ in range(12):
                W_try = Wb - alpha[:, None] * d_shared[1:].T
                B_try = Bb - alpha * d_shared[0]
                V_try = Vb - alpha * dv
                f_try, zs_try, z1_try = block_nll(sl, W_try, V_try, B_try)
                bad = active & (f_try > f_cur)
                if not bad.any():
                    break
                alpha[bad] *= 0.5
            improved = active & (f_try <= f_cur)
            Wb = np.where(improved[:, None], W_try, Wb)
            Bb = np.where(improved, B_try, Bb)
            Vb = np.where(improved, V_try, Vb)
            f_new = np.where(improved, f_try, f_cur)
            zs = np.where(improved[:, None], zs_try, zs)
            z1 = np.where(improved[:, None], z1_try, z1)
            active = active & (np.abs(f_cur - f_new) > _INNER_TOL * np.maximum(1.0, np.abs(f_cur)))
            f_cur = f_new
            if not active.any():
                break

        W[sl], V[sl], B[sl] = Wb, Vb, Bb
        nll[sl] = f_cur

    return nll, W, V, B


def lasso_select(Xp, y, k: int, task: str, epsilon: float | None = None) -> SelectionResult:
    """Binary search on the L1 penalty for the largest support of size <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    Xp = np.asarray(Xp)
    y = np.asarray(y)
    if Xp.shape[1] == 0:
        raise ValueError("cannot select from an empty pool")
    Xw, keep = _distinct_columns(Xp)

    lam_top = lambda_max(Xw, y, task)
    if lam_top <= 0.0:
        raise ValueError("no support found: the penalty range is degenerate")
    if epsilon is None:
        epsilon = lam_top * 1e-3
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")

    lo, hi = 0.0, 1.05 * lam_top
    recorded: np.ndarray | None = None
    visited: list[tuple[float, np.ndarray]] = []
    warm = None

    while lo + epsilon < hi:
        lam = (lo + hi) / 2.0
        fitted = fit_lasso(Xw, y, lam, task, warm_start=warm)
        warm = fitted
        sup = support(fitted)
        visited.append((lam, sup))
        if len(sup) <= k:
            recorded = sup
            hi = lam
        else:
            lo = lam

    if recorded is None or len(recorded) == 0:
        nonempty = [(lam, sup) for lam, sup in visited if 0 < len(sup) <= k]
        if not nonempty:
            raise ValueError("no support found")
        recorded = min(nonempty, key=lambda item: item[0])[1]

    chosen = keep[recorded].tolist()
    model = fit_glm(Xp[:, chosen].astype(np.float64), y, task)
    trace = [(lam, len(sup)) for lam, sup in visited]
    return SelectionResult(chosen=chosen, model=model, trace=trace)
