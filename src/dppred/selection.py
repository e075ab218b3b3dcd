"""Top-k rule selection by combined predictive performance.

Both selectors work on the distinct columns of the pool: columns that are
identical on the training rows keep only their lowest pool index, so a
rule never competes with its own copy. Chosen rules, traces and the refit
still refer to pool indices.

Forward selection scores the candidate extensions of the incumbent rule
set each round. Regression gains come from exact least-squares updates
(Schur complement against the incumbent Gram matrix), so a candidate's
score is the true refit MSE. Classification scoring compresses the rows
to distinct (incumbent-bits, label) groups, which leaves the likelihood
unchanged, so each candidate's refit is a logistic fit of s + 2
parameters over at most 2G weighted points (s rules chosen, G groups).
The groups are refined, not regrouped: each row keeps the rank of its
incumbent bits, and the winner splits it into 2 * rank + bit, compacted
with a presence count, which keeps the lexicographic order of the bits.
The set (row, column) pairs of the distinct columns are found once, and
the group counts of a round are one integer ``np.bincount`` over them.

Only candidates that can win are refit. A candidate's model is a
function of (incumbent bits, its bit), so no parameters beat the
saturated model of those cells: from the integer counts, each candidate
gets that lower bound on its loss exactly. Candidates are refit in
ascending order of bound, and the round stops at the first bound above
the best loss found (with a relative margin for rounding), so no
candidate left out could have won. Each candidate refit is exact: Newton
(IRLS) steps run until the loss changes by at most ``_TOL`` relative. At
the start, with its weight at zero, every candidate has the incumbent's
probabilities and so shares the incumbent block of the Hessian: one
solve against that block with all the border columns gives every
candidate's first step by the bordered (Schur) formula. Later steps
build each candidate's own Hessian, one gemm and one batched solve per
block of candidates. A candidate's score is thus its converged refit
likelihood, one-vs-rest classes summed. Steps start from the incumbent,
which makes the per-round training metric non-decreasing by
construction.

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
_SCREEN_MARGIN = 1e-9  # relative: a candidate whose loss bound exceeds the best loss cannot win
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


def _compact(key, size):
    """The values of ``key`` (all in ``range(size)``) that occur, ascending, and the
    rank of each entry of ``key`` among them."""
    present = np.bincount(key, minlength=size) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[key]


def _refine(gid, bits, x):
    """Split each incumbent bit group ``gid`` by the winner's bits ``x``.

    Group g becomes 2g + bit; the halves that occur are renumbered in
    order, so the groups stay in the lexicographic order of their bit rows
    ``bits``, chosen rules first to last.
    """
    ids, gid = _compact(2 * gid + x, 2 * len(bits))
    return gid, np.column_stack([bits[ids // 2], ids % 2])


def _label_groups(gid, n_bit_groups, y, n_classes, rows, cols, pool):
    """The distinct (incumbent bits, label) groups, in the order of their keys.

    Returns each group's bit group, label and size, and the (pool, G) counts
    of its rows that satisfy each candidate, from the set (row, column)
    pairs ``rows``, ``cols``: one integer ``np.bincount``.
    """
    ids, inverse = _compact(gid * n_classes + y, n_bit_groups * n_classes)
    G = len(ids)
    m1 = np.bincount(cols * G + inverse[rows], minlength=pool * G).reshape(pool, G)
    return ids // n_classes, ids % n_classes, np.bincount(inverse, minlength=G), m1


def _saturated_bounds(m1, n_g, owner, targets, xlogx):
    """A lower bound on each candidate's summed refit loss over the one-vs-rest targets.

    A candidate's model is a function of the cell (incumbent bits, its own
    bit), so no parameters fit a cell of n rows, p of them in the target
    class, better than its own rate p / n: the cell costs at least
    n log n - p log p - (n - p) log(n - p). ``targets`` are the (bits,
    label) groups whose label is a target, ``owner`` the bit group of each
    group. Integer counts index the table ``xlogx`` of x log x, a block of
    candidates at a time, so no (pool, G) float array is made.
    """
    starts = np.flatnonzero(np.diff(owner, prepend=-1))  # groups of a bit group are adjacent
    cell = owner[targets]
    n_cell, p_all = np.add.reduceat(n_g, starts)[cell], n_g[targets]
    bound = np.empty(len(m1))
    block = max(1, _CANDIDATE_CELLS // len(n_g))
    for lo in range(0, len(m1), block):
        part = m1[lo:lo + block]
        n1, p1 = np.add.reduceat(part, starts, axis=1)[:, cell], part[:, targets]
        n0, p0 = n_cell - n1, p_all - p1
        bound[lo:lo + block] = (xlogx[n1] - xlogx[p1] - xlogx[n1 - p1]
                                + xlogx[n0] - xlogx[p0] - xlogx[n0 - p0]).sum(axis=1)
    return bound


def _forward_logistic(X, y, k):
    """Grouped exact-refit scoring of the candidates that can win each round."""
    n, pool = X.shape
    rows, cols = np.nonzero(X)
    n_classes = int(y.max()) + 1
    class_list = [1] if n_classes == 2 else list(range(n_classes))
    xlogx = np.arange(n + 1) * np.log(np.maximum(np.arange(n + 1), 1))

    # incumbent per class: intercept, then the weights of the chosen columns
    p_mean = [float((y == c).mean()) for c in class_list]
    inc = [np.array([np.log(max(p, 1e-12) / max(1.0 - p, 1e-12))]) for p in p_mean]
    gid, bits = np.zeros(n, dtype=np.int64), np.zeros((1, 0))  # one group of no bits

    chosen: list[int] = []
    trace: list[tuple] = []
    last_metric = -np.inf

    for rnd in range(1, k + 1):
        owner, yg, n_g, m1 = _label_groups(gid, len(bits), y, n_classes, rows, cols, pool)
        phi = np.column_stack([np.ones(len(yg)), bits[owner]])  # (G, s+1)
        t_gs = [(yg == c).astype(np.float64) for c in class_list]
        bound = _saturated_bounds(m1, n_g, owner, np.flatnonzero(np.isin(yg, class_list)), xlogx)
        bound[chosen] = np.inf
        order = np.argsort(bound, kind="stable")[:pool - len(chosen)]
        bound = bound[order]
        n_g = n_g.astype(np.float64)
        block = max(1, _CANDIDATE_CELLS // (len(yg) + (phi.shape[1] + 1) ** 2))

        # the lowest bound first, then every candidate whose bound the best loss allows
        winner, metric, best, done, size = -1, -np.inf, np.inf, 0, 1
        while True:
            stop = min(done + size,
                       np.searchsorted(bound, best * (1.0 + _SCREEN_MARGIN), side="right"))
            if stop <= done:
                break
            idx = order[done:stop]
            a1 = m1[idx].astype(np.float64)
            fits = [_score_candidates_one_class(phi, t_g, n_g, a1, start)
                    for t_g, start in zip(t_gs, inc)]
            total = sum(nll for nll, _ in fits)
            metrics = -total / n
            j = np.lexsort((idx, -metrics))[0]  # the best metric, then the lowest pool index
            if (metrics[j], -idx[j]) > (metric, -winner):
                winner, metric = int(idx[j]), float(metrics[j])
                new_inc = [theta[j] for _, theta in fits]
            best = min(best, float(total.min()))
            done, size = stop, block

        if metric >= last_metric:
            inc = new_inc
        else:
            # regrouping float noise: extend the incumbent with a zero weight
            inc = [np.append(w, 0.0) for w in inc]
            metric = last_metric
        chosen.append(winner)
        last_metric = metric
        trace.append((rnd, winner, metric))
        gid, bits = _refine(gid, bits, X[:, winner] != 0)

    return chosen, trace


def _margins(phi, sign, th):
    """Margins of a candidate's points with its bit set, and clear."""
    u0 = sign * (th[:, :-1] @ phi.T)
    return u0 + sign * th[:, -1:], u0


def _newton_steps(phi, outer, sign, th, a1, a0):
    """Each candidate's Newton step at ``th``, from its own exact Hessian."""
    q1, q0 = (sigmoid(-u) for u in _margins(phi, sign, th))  # probabilities of the other label
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


def _first_steps(phi, sign, n_g, start, a1):
    """Each candidate's first Newton step from the incumbent ``start``, exactly.

    With its own weight at zero, every candidate has the incumbent's
    probabilities, so all share the incumbent block of the Hessian and its
    gradient. One solve against that block with every candidate's border
    column gives each step by the bordered (Schur) formula.
    """
    q = sigmoid(-sign * (phi @ start))
    w, r = q * (1.0 - q), -sign * q
    s1 = phi.shape[1]
    hess = (phi.T * (n_g * w)) @ phi + 1e-10 * np.eye(s1)
    border = (a1 * w) @ phi  # (B, s+1)
    z = np.linalg.solve(hess, np.column_stack([(n_g * r) @ phi, border.T]))
    schur = np.maximum(a1 @ w + 1e-10 - (border * z[:, 1:].T).sum(axis=1), 1e-10)
    own = (a1 @ r - border @ z[:, 0]) / schur
    return np.column_stack([(z[:, :1] - z[:, 1:] * own).T, own])


def _score_candidates_one_class(phi, t_g, n_g, a1, start):
    """Refit a block of single-column extensions of the incumbent for one binary target.

    A candidate is a logistic fit of s + 2 parameters (intercept, the s
    incumbent weights, its own weight) over 2G weighted points: the rows of
    group g with the candidate's bit set (count ``a1``) or clear. Newton
    steps start from the incumbent with the candidate's weight at zero; the
    first is shared (``_first_steps``), the rest use each candidate's own
    Hessian. A candidate stops once its loss change meets the tolerance.
    Returns each candidate's loss and parameters (intercept, weights, its
    weight).
    """
    sign = 2.0 * t_g - 1.0  # margins keep tiny losses exact once rows separate
    a0 = n_g - a1
    theta = np.tile(np.append(start, 0.0), (len(a1), 1))
    outer = None

    def losses(th, b1, b0):
        u1, u0 = _margins(phi, sign, th)
        return (b1 * np.logaddexp(0.0, -u1) + b0 * np.logaddexp(0.0, -u0)).sum(axis=1)

    f = np.full(len(theta), n_g @ np.logaddexp(0.0, -sign * (phi @ start)))  # the incumbent's
    act = np.arange(len(theta))
    step = _first_steps(phi, sign, n_g, start, a1)
    for it in range(_MAX_STEPS):
        if it:
            if outer is None:
                outer = (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), -1)
            step = _newton_steps(phi, outer, sign, theta[act], a1[act], a0[act])
        trial = theta[act] - step
        f_old, f_try = f[act], losses(trial, a1[act], a0[act])
        for _ in range(12):  # halve only the steps whose loss rose
            bad = np.flatnonzero(f_try > f_old)
            if not len(bad):
                break
            step[bad] *= 0.5
            trial[bad] = theta[act[bad]] - step[bad]
            f_try[bad] = losses(trial[bad], a1[act[bad]], a0[act[bad]])
        ok = f_try <= f_old
        theta[act[ok]], f[act[ok]] = trial[ok], f_try[ok]
        act = act[ok & (f_old - f_try > _TOL * np.maximum(1.0, np.abs(f_old)))]
        if not len(act):
            break

    return f, theta


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
