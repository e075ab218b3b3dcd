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
unchanged, so each candidate's refit is a logistic fit of s + 2
parameters over at most 2G weighted points (s rules chosen, G groups).
Every candidate gets that exact refit: Newton (IRLS) steps with its own
exact Hessian, batched over blocks of candidates with one gemm for the
Hessians and one batched solve, run until the loss changes by at most
``_TOL`` relative. A candidate's score is thus its converged refit
likelihood, one-vs-rest classes summed. Steps start from the incumbent
with the candidate's weight at zero, which makes the per-round training
metric non-decreasing by construction. The set (row, column) pairs of
the distinct columns are found once, and the group counts of a round are
one integer ``np.bincount`` over them.

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

_TOL = 1e-5         # relative loss change that ends a candidate's Newton steps
_MAX_STEPS = 25     # Newton steps per candidate and class in one round
_SCHUR_EPS = 1e-9
_CANDIDATE_CELLS = 1 << 16  # cap on block candidates * (groups + Hessian cells) each
_BLOCK_ROWS = 4096  # rows per block of the float32 copy: no full-size uint8 gather first


class NoRulesError(ValueError):
    """Training has no rule to fit: the forest made none, or no penalty kept one."""


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

    def prefix(self, v: int, Xp, y, task: str) -> "SelectionResult":
        """The forward selection of ``v`` rules from this forward selection.

        Greedy rounds do not depend on k, so the first ``v`` rounds are the
        selection at k = ``v``; only the refit on their rules is new.
        """
        if v >= len(self.chosen):
            return self
        return _refit(np.asarray(Xp), np.asarray(y), task, self.chosen[:v], self.trace[:v])


def _refit(Xp, y, task, chosen, trace) -> SelectionResult:
    """The selection of pool columns ``chosen``, with the unpenalized GLM on them."""
    return SelectionResult(chosen=chosen, trace=trace,
                           model=fit_glm(Xp[:, chosen].astype(np.float64), y, task))


def _prologue(Xp, y, k):
    """Checked ``Xp`` and ``y``, and the pool indices of the distinct columns of ``Xp``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    Xp = np.asarray(Xp)
    if Xp.shape[1] == 0:
        raise ValueError("cannot select from an empty pool")
    return Xp, np.asarray(y), _distinct_columns(Xp)


def _distinct_columns(Xp: np.ndarray) -> np.ndarray:
    """Pool indices of the distinct columns of the 0/1 matrix ``Xp``, in pool order.

    A column equal to another on the training rows adds exactly zero
    information, so each distinct content keeps only its lowest pool index.
    A column's key is its bits packed along the rows, an eighth of its
    bytes; packing is one-to-one because entries are 0/1.
    """
    bits = Xp if Xp.dtype.kind in "biu" else Xp != 0   # np.packbits takes no floats
    keys = np.ascontiguousarray(np.packbits(bits, axis=0).T)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    return np.sort(np.unique(keys, return_index=True)[1])


def _float_copy(Xp, keep):
    """Float32 copy of the pool columns ``keep``, for the selectors that multiply
    with it. float32 keeps the big matmuls affordable; co-occurrence sums stay
    exact because entries are 0/1."""
    Xw = np.empty((Xp.shape[0], len(keep)), dtype=np.float32)
    for start in range(0, Xp.shape[0], _BLOCK_ROWS):
        Xw[start:start + _BLOCK_ROWS] = Xp[start:start + _BLOCK_ROWS, keep]
    return Xw


def forward_select(Xp, y, k: int, task: str) -> SelectionResult:
    """Greedy one-rule-at-a-time selection maximizing training performance."""
    Xp, y, keep = _prologue(Xp, y, k)
    if k > len(keep):
        warnings.warn(f"k={k} exceeds the {len(keep)} distinct columns of the pool; "
                      "selecting the entire pool")
        k = len(keep)

    if task == TASK_LINEAR:
        chosen, trace = _forward_linear(_float_copy(Xp, keep), y.astype(np.float64), k)
    elif task == TASK_LOGISTIC:
        chosen, trace = _forward_logistic(Xp[:, keep], y.astype(np.int64), k)
    else:
        raise ValueError(f"unknown task {task!r}")

    return _refit(Xp, y, task, keep[chosen].tolist(),
                  [(rnd, int(keep[j]), metric) for rnd, j, metric in trace])


def _forward_linear(Xw, y, k):
    """Exact least-squares forward selection via rank-one gain updates."""
    n = Xw.shape[0]
    chosen: list[int] = []
    trace: list[tuple] = []
    design = np.ones((n, 1))
    theta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ theta
    sse = float(resid @ resid)
    last_metric = -np.inf
    # cross[i] = (design column i)ᵀ X for every candidate column
    cross = [Xw.sum(axis=0, dtype=np.float64)]
    col_sq = cross[0]  # entries are 0/1

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


def _group_rows(X, rows, cols, chosen, y):
    """Collapse rows to distinct (incumbent bits, label) groups.

    Returns each group's incumbent bits, label and size, and the (pool, G)
    counts of its rows that satisfy each candidate, from the set (row,
    column) pairs ``rows``, ``cols`` of ``X``: one integer ``np.bincount``.
    """
    key = np.column_stack([X[:, chosen], y]).astype(np.int64)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    G = len(uniq)
    m1 = np.bincount(cols * G + inverse[rows], minlength=X.shape[1] * G)
    n_g = np.bincount(inverse, minlength=G).astype(np.float64)
    return uniq[:, :-1].astype(np.float64), uniq[:, -1], n_g, m1.reshape(-1, G).astype(np.float64)


def _forward_logistic(X, y, k):
    """Grouped exact-refit scoring for every candidate each round."""
    n, pool = X.shape
    rows, cols = np.nonzero(X)
    n_classes = int(y.max()) + 1
    class_list = [1] if n_classes == 2 else list(range(n_classes))

    # incumbent per class: intercept, then the weights of the chosen columns
    p_mean = [float((y == c).mean()) for c in class_list]
    inc = [np.array([np.log(max(p, 1e-12) / max(1.0 - p, 1e-12))]) for p in p_mean]

    chosen: list[int] = []
    trace: list[tuple] = []
    last_metric = -np.inf

    for rnd in range(1, k + 1):
        Xg, yg, n_g, m1 = _group_rows(X, rows, cols, chosen, y)
        m0 = n_g - m1

        total_nll = np.zeros(pool)
        fits = []
        for ci, c in enumerate(class_list):
            nll, theta = _score_candidates_one_class(Xg, (yg == c).astype(np.float64),
                                                     m1, m0, inc[ci])
            total_nll += nll
            fits.append(theta)

        metrics = -total_nll / n
        metrics[chosen] = -np.inf
        winner = int(np.argmax(metrics))
        metric = float(metrics[winner])

        if metric >= last_metric:
            inc = [theta[winner] for theta in fits]
        else:
            # regrouping float noise: extend the incumbent with a zero weight
            inc = [np.append(w, 0.0) for w in inc]
            metric = last_metric
        chosen.append(winner)
        last_metric = metric
        trace.append((rnd, winner, metric))

    return chosen, trace


def _score_candidates_one_class(Xg, t_g, m1, m0, start):
    """Refit every single-column extension of the incumbent for one binary target.

    A candidate is a logistic fit of s + 2 parameters (intercept, the s
    incumbent weights, its own weight) over 2G weighted points: the rows of
    group g with the candidate's bit set (count ``m1``) or clear (``m0``).
    Exact Newton steps from the incumbent, with the candidate's weight at
    zero, run batched over a block of candidates; a candidate leaves the
    block once its loss change meets the tolerance. Returns each
    candidate's loss and parameters (intercept, weights, its weight).
    """
    phi = np.column_stack([np.ones(len(t_g)), Xg])  # (G, s+1)
    outer = (phi[:, :, None] * phi[:, None, :]).reshape(len(t_g), -1)
    sign = 2.0 * t_g - 1.0  # margins keep tiny losses exact once rows separate
    theta = np.tile(np.append(start, 0.0), (len(m1), 1))
    nll = np.empty(len(m1))
    block = max(1, _CANDIDATE_CELLS // (len(t_g) + theta.shape[1] ** 2))

    def margins(th):  # of the points with the candidate's bit set, and clear
        u0 = sign * (th[:, :-1] @ phi.T)
        return u0 + sign * th[:, -1:], u0

    def losses(th, a1, a0):
        u1, u0 = margins(th)
        return (a1 * np.logaddexp(0.0, -u1) + a0 * np.logaddexp(0.0, -u0)).sum(axis=1)

    def newton_steps(th, a1, a0):
        q1, q0 = (sigmoid(-u) for u in margins(th))  # probabilities of the other label
        r1, d1 = -sign * a1 * q1, a1 * q1 * (1.0 - q1)  # loss gradient and curvature in z
        r, d = r1 - sign * a0 * q0, d1 + a0 * q0 * (1.0 - q0)
        s1 = phi.shape[1]
        hess = np.empty((len(th), s1 + 1, s1 + 1))
        hess[:, :s1, :s1] = (d @ outer).reshape(-1, s1, s1)
        hess[:, :s1, s1] = hess[:, s1, :s1] = d1 @ phi
        hess[:, s1, s1] = d1.sum(axis=1)
        hess += 1e-10 * np.eye(s1 + 1)  # duplicate and complement columns stay solvable
        grad = np.column_stack([r @ phi, r1.sum(axis=1)])
        return np.linalg.solve(hess, grad[:, :, None])[:, :, 0]

    for lo in range(0, len(m1), block):
        th, a1, a0 = theta[lo:lo + block], m1[lo:lo + block], m0[lo:lo + block]
        f = losses(th, a1, a0)
        act = np.arange(len(th))
        for _ in range(_MAX_STEPS):
            step = newton_steps(th[act], a1[act], a0[act])
            trial = th[act] - step
            f_old, f_try = f[act], losses(trial, a1[act], a0[act])
            for _ in range(12):  # halve only the steps whose loss rose
                bad = np.flatnonzero(f_try > f_old)
                if not len(bad):
                    break
                step[bad] *= 0.5
                trial[bad] = th[act[bad]] - step[bad]
                f_try[bad] = losses(trial[bad], a1[act[bad]], a0[act[bad]])
            ok = f_try <= f_old
            th[act[ok]], f[act[ok]] = trial[ok], f_try[ok]
            act = act[ok & (f_old - f_try > _TOL * np.maximum(1.0, np.abs(f_old)))]
            if not len(act):
                break
        nll[lo:lo + block] = f

    return nll, theta


def lasso_select(Xp, y, k: int, task: str) -> SelectionResult:
    """Binary search on the L1 penalty for the largest support of size <= k; the
    search stops once the bracket is narrower than ``1e-3 * lambda_max``. The
    chosen rules are the non-empty support of at most k rules at the smallest
    penalty visited."""
    Xp, y, keep = _prologue(Xp, y, k)
    Xw = _float_copy(Xp, keep)

    lam_top = lambda_max(Xw, y, task)
    if lam_top <= 0.0:
        raise NoRulesError("no support found: the penalty range is degenerate")

    lo, hi = 0.0, 1.05 * lam_top
    visited: list[tuple[float, np.ndarray]] = []
    warm = None

    while lo + 1e-3 * lam_top < hi:
        lam = (lo + hi) / 2.0
        warm = fit_lasso(Xw, y, lam, task, warm_start=warm)
        sup = support(warm)
        visited.append((lam, sup))
        if len(sup) <= k:
            hi = lam
        else:
            lo = lam

    small = [(lam, sup) for lam, sup in visited if 0 < len(sup) <= k]
    if not small:
        raise NoRulesError("no support found")
    chosen = keep[min(small, key=lambda item: item[0])[1]].tolist()
    return _refit(Xp, y, task, chosen, [(lam, len(sup)) for lam, sup in visited])
