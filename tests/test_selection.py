import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dppred import selection
from dppred.glm import fit_glm, lambda_max, support
from dppred.selection import NoRulesError, forward_select, lasso_select
from oracles import group_rows, logistic_loss


def rng(seed=0):
    return np.random.default_rng(seed)


def planted_problem(seed=1, n=300, pool=25, task="logistic"):
    """Random binary pool with one planted perfectly predictive column."""
    gen = rng(seed)
    X = gen.integers(0, 2, size=(n, pool)).astype(np.uint8)
    target_col = min(7, pool - 1)
    if task == "logistic":
        y = X[:, target_col].astype(np.int64)
    else:
        y = X[:, target_col].astype(np.float64) * 2.0 + 0.25
    return X, y, target_col


class TestForwardSelect:
    def test_planted_pattern_chosen_first(self):
        for task in ("logistic", "linear"):
            X, y, target = planted_problem(task=task)
            res = forward_select(X, y, 3, task)
            assert res.chosen[0] == target, task

    def test_duplicate_columns_never_both_chosen(self):
        gen = rng(3)
        base = gen.integers(0, 2, size=(200, 6)).astype(np.uint8)
        X = np.column_stack([base, base])  # every column duplicated
        y = (base[:, 0] | base[:, 1]).astype(np.int64)
        res = forward_select(X, y, 6, "logistic")
        assert len(set(res.chosen)) == len(res.chosen)
        cols = {tuple(X[:, j]) for j in res.chosen}
        assert len(cols) == len(res.chosen)  # no duplicated column content

    def test_k_equal_pool_size_is_a_permutation(self):
        X, y, _ = planted_problem(pool=8)
        res = forward_select(X, y, 8, "logistic")
        assert sorted(res.chosen) == list(range(8))

    def test_k_exceeding_pool_warns_and_selects_all(self):
        X, y, _ = planted_problem(pool=5)
        with pytest.warns(UserWarning, match="entire pool"):
            res = forward_select(X, y, 9, "logistic")
        assert sorted(res.chosen) == list(range(5))

    def test_trace_monotone_logistic(self):
        X, y, _ = planted_problem(seed=5, n=250, pool=30)
        res = forward_select(X, y, 12, "logistic")
        metrics = [m for _, _, m in res.trace]
        assert all(a <= b for a, b in zip(metrics, metrics[1:]))

    def test_trace_monotone_linear(self):
        gen = rng(8)
        X = gen.integers(0, 2, size=(150, 30)).astype(np.uint8)
        y = X[:, 3] * 1.5 - X[:, 11] * 0.5 + gen.normal(size=150) * 0.2
        res = forward_select(X, y, 10, "linear")
        metrics = [m for _, _, m in res.trace]
        assert all(a <= b for a, b in zip(metrics, metrics[1:]))

    def test_deterministic(self):
        X, y, _ = planted_problem(seed=9, pool=40)
        a = forward_select(X, y, 6, "logistic")
        b = forward_select(X, y, 6, "logistic")
        assert a.chosen == b.chosen
        assert a.trace == b.trace

    def test_multiclass_forward(self):
        gen = rng(21)
        y = gen.integers(0, 3, size=240)
        signal = np.column_stack([(y == c) for c in range(3)]).astype(np.uint8)
        noise = gen.integers(0, 2, size=(240, 10)).astype(np.uint8)
        X = np.column_stack([noise, signal])
        res = forward_select(X, y, 3, "logistic")
        # two class indicators determine the third, so greedy selection only
        # needs (any) two of the planted columns for a perfect model
        assert len(set(res.chosen) & {10, 11, 12}) >= 2
        from dppred.glm import predict_glm
        Xs = X[:, res.chosen].astype(np.float64)
        assert (predict_glm(res.model, Xs) == y).mean() == 1.0

    def test_final_model_dimension(self):
        X, y, _ = planted_problem(pool=15)
        res = forward_select(X, y, 4, "logistic")
        assert np.atleast_2d(res.model.weights).shape[1] == 4


class TestLassoSelect:
    def test_planted_pattern_k1(self):
        X, y, target = planted_problem(seed=2, n=400, pool=20)
        res = lasso_select(X, y, 1, "logistic")
        assert res.chosen == [target]

    def test_support_never_exceeds_k(self):
        for seed in range(6):
            gen = rng(seed + 40)
            X = gen.integers(0, 2, size=(120, 30)).astype(np.uint8)
            y = (X[:, :3].sum(axis=1) >= 2).astype(np.int64)
            if len(np.unique(y)) < 2:
                continue
            k = int(gen.integers(1, 8))
            res = lasso_select(X, y, k, "logistic")
            assert 0 < len(res.chosen) <= k

    def test_k_at_least_pool_converges_to_small_lambda(self):
        X, y, _ = planted_problem(seed=3, n=200, pool=10)
        res = lasso_select(X, y, 10, "logistic")
        lam_top = lambda_max(X, y, "logistic")
        assert res.trace[-1][0] < 0.05 * lam_top
        assert len(res.chosen) <= 10

    def test_refit_beats_penalized_model(self):
        X, y, _ = planted_problem(seed=6, n=300, pool=25)
        res = lasso_select(X, y, 5, "logistic")
        # reconstruct the penalized fit at the final recorded lambda
        from dppred.glm import fit_lasso
        lam = min(lam for lam, size in res.trace if 0 < size <= 5)
        pen = fit_lasso(X, y, lam, "logistic")
        Xs = X[:, res.chosen].astype(np.float64)
        f_refit, _, _ = logistic_loss(Xs, (y == 1).astype(float),
                                      res.model.weights, res.model.intercept)
        f_pen, _, _ = logistic_loss(X.astype(np.float64), (y == 1).astype(float),
                                    pen.weights, pen.intercept)
        assert -f_refit >= -f_pen - 1e-9

    def test_degenerate_labels_error(self):
        X = rng(1).integers(0, 2, size=(30, 5)).astype(np.uint8)
        with pytest.raises(NoRulesError, match="no support found|degenerate"):
            lasso_select(X, np.full(30, 2.0), 3, "linear")

    def test_linear_task(self):
        gen = rng(31)
        X = gen.integers(0, 2, size=(250, 20)).astype(np.uint8)
        y = 2.0 * X[:, 4] - 1.0 * X[:, 9] + gen.normal(size=250) * 0.05
        res = lasso_select(X, y, 2, "linear")
        assert set(res.chosen) == {4, 9}

    def test_deterministic(self):
        X, y, _ = planted_problem(seed=11, pool=30)
        a = lasso_select(X, y, 4, "logistic")
        b = lasso_select(X, y, 4, "logistic")
        assert a.chosen == b.chosen
        assert a.trace == b.trace


def _labels(gen, X, kind):
    score = X @ gen.normal(size=X.shape[1]) + gen.normal(size=len(X))
    if kind == "linear":
        return "linear", score
    cuts = [0.5] if kind == "binary" else [1 / 3, 2 / 3]
    return "logistic", np.digitize(score, np.quantile(score, cuts))


def _first_of_each_content(X):
    return [j for j in range(X.shape[1])
            if not any(np.array_equal(X[:, i], X[:, j]) for i in range(j))]


def _selected(select, X, y, k, task):
    try:
        res = select(X, y, k, task)
    except ValueError as err:  # a degenerate penalty path fails the same way
        return str(err)
    return (res.chosen, res.trace, res.model.weights.tobytes(),
            np.asarray(res.model.intercept).tobytes())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["binary", "multiclass", "linear"]),
       n=st.integers(30, 90), pool=st.integers(2, 14), n_copies=st.integers(1, 10))
def test_appended_copies_change_nothing(seed, kind, n, pool, n_copies):
    # exact copies placed after their originals carry no information, so
    # both selectors must return the pool without them, bit for bit
    gen = rng(seed)
    X = gen.integers(0, 2, size=(n, pool)).astype(np.uint8)
    X_copies = np.column_stack([X, X[:, gen.integers(0, pool, size=n_copies)]])
    task, y = _labels(gen, X, kind)
    assume(task == "linear" or len(np.unique(y)) == (2 if kind == "binary" else 3))
    distinct = _first_of_each_content(X_copies)
    k = int(gen.integers(1, len(distinct) + 1))
    for select in (forward_select, lasso_select):
        assert _selected(select, X, y, k, task) == _selected(select, X_copies, y, k, task)

    # k past the distinct count: one warning, then each distinct column once
    k = int(gen.integers(len(distinct) + 1, X_copies.shape[1] + 1))
    with pytest.warns(UserWarning, match="entire pool"):
        res = forward_select(X_copies, y, k, task)
    assert sorted(res.chosen) == distinct


def _refit_nll(X, y, cols):
    """Summed one-vs-rest training loss of the unpenalized refit on ``cols``."""
    Xc = X[:, cols].astype(np.float64)
    fit = fit_glm(Xc, y, "logistic")
    labels = [1] if fit.classes == 2 else range(fit.classes)
    weights, intercepts = np.atleast_2d(fit.weights), np.atleast_1d(fit.intercept)
    return sum(len(y) * logistic_loss(Xc, (y == c).astype(float), w, b)[0]
               for c, w, b in zip(labels, weights, intercepts))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["binary", "multiclass"]),
       n=st.integers(30, 90), pool=st.integers(2, 6), planted=st.booleans(),
       flip=st.sampled_from([0.0, 0.1]))
def test_forward_logistic_scores_are_exact_refits(seed, kind, n, pool, planted, flip):
    # each round's winner scores its exact refit loss, and no candidate's
    # exact refit beats it, within the stopping tolerance of each class
    gen = rng(seed)
    base = gen.integers(0, 2, size=(n, pool)).astype(np.uint8)
    X = np.column_stack([base, base[:, 0], 1 - base[:, 1]])  # a duplicate, a complement
    _, y = _labels(gen, base, kind)
    if planted:  # labels a function of the pool: the refits separate the rows
        y = base[:, -1] + (kind == "multiclass") * base[:, 0].astype(np.int64)
    y = np.where(gen.random(n) < flip, gen.integers(0, y.max() + 1, size=n), y)
    n_targets = 1 if kind == "binary" else 3
    assume(len(np.unique(y)) == n_targets + (kind == "binary"))
    distinct = _first_of_each_content(X)
    res = forward_select(X, y, min(4, len(distinct)), "logistic")
    for rnd, winner, metric in res.trace:
        incumbent = res.chosen[:rnd - 1]
        refs = {j: _refit_nll(X, y, incumbent + [j]) for j in distinct if j not in incumbent}
        tol = selection._TOL * n_targets * max(1.0, refs[winner])
        assert abs(-metric * n - refs[winner]) <= tol, rnd
        assert min(refs.values()) >= refs[winner] - tol, rnd


@pytest.mark.parametrize("kind", ["binary", "multiclass"])
def test_candidate_blocks_do_not_change_the_selection(kind, monkeypatch):
    gen = rng(17)
    X = gen.integers(0, 2, size=(300, 40)).astype(np.uint8)
    _, y = _labels(gen, X[:, :6], kind)
    want = forward_select(X, y, 8, "logistic")
    for cells in (1, 300):  # one candidate per block; a few per block
        monkeypatch.setattr(selection, "_CANDIDATE_CELLS", cells)
        got = forward_select(X, y, 8, "logistic")
        assert got.chosen == want.chosen
        # gemm rows may round differently with the block height
        np.testing.assert_allclose([m for *_, m in got.trace], [m for *_, m in want.trace],
                                   rtol=1e-12, atol=0)


class TestTraceCsv:
    def test_forward_trace_csv(self, tmp_path):
        X, y, _ = planted_problem(pool=10)
        res = forward_select(X, y, 3, "logistic")
        path = tmp_path / "trace.csv"
        res.write_trace_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "round,pattern_index,metric"
        assert len(lines) == 4

    def test_lasso_trace_csv(self, tmp_path):
        X, y, _ = planted_problem(pool=10)
        res = lasso_select(X, y, 3, "logistic")
        path = tmp_path / "trace.csv"
        res.write_trace_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda,support_size"
        assert len(lines) == len(res.trace) + 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.sampled_from([2, 3]),
       n=st.integers(1, 60), pool=st.integers(1, 12), n_chosen=st.integers(0, 4))
def test_group_counts_equal_a_per_group_loop(seed, n_classes, n, pool, n_chosen):
    gen = rng(seed)
    Xw = gen.integers(0, 2, size=(n, pool)).astype(np.uint8)
    y = gen.integers(0, n_classes, size=n)
    chosen = gen.choice(pool, size=min(n_chosen, pool), replace=False).tolist()
    Xg, yg, n_g, m1 = group_rows(Xw, *np.nonzero(Xw), chosen, y)
    assert m1.shape == (pool, len(yg)) and m1.dtype == np.float64
    assert n_g.sum() == n  # groups are disjoint and cover every row
    for g in range(len(yg)):
        members = np.all(Xw[:, chosen] == Xg[g], axis=1) & (y == yg[g])
        assert n_g[g] == members.sum()
        assert np.array_equal(m1[:, g], Xw[members].sum(axis=0, dtype=np.float64))


def _refined_groups(X, y, n_classes, winners):
    """The library's groups after each winner of ``winners``, as ``group_rows`` returns them."""
    gid, bits = np.zeros(len(y), dtype=np.int64), np.zeros((1, 0))
    for s in range(len(winners) + 1):
        owner, yg, n_g, m1 = selection._label_groups(gid, len(bits), y, n_classes,
                                                     *np.nonzero(X), X.shape[1])
        yield bits[owner], yg, n_g, m1
        if s < len(winners):
            gid, bits = selection._refine(gid, bits, X[:, winners[s]] != 0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.sampled_from([2, 3]),
       n=st.integers(1, 60), pool=st.integers(1, 10), n_rounds=st.integers(1, 6))
def test_refined_groups_equal_regrouping(seed, n_classes, n, pool, n_rounds):
    gen = rng(seed)
    X = gen.integers(0, 2, size=(n, pool)).astype(np.uint8)
    # a copy of the first winner, an all-zero and an all-one column: each is
    # constant inside every group once the first winner is chosen, so no group splits
    X = np.column_stack([X, X[:, 0], np.zeros(n, np.uint8), np.ones(n, np.uint8)])
    y = gen.integers(0, n_classes, size=n)
    winners = [0, pool, pool + 1, pool + 2] + gen.choice(X.shape[1], size=n_rounds).tolist()
    for s, got in enumerate(_refined_groups(X, y, n_classes, winners)):
        want = group_rows(X, *np.nonzero(X), winners[:s], y)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w), s


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["binary", "multiclass"]),
       n=st.integers(20, 80), pool=st.integers(2, 6), n_chosen=st.integers(0, 3),
       planted=st.booleans())
def test_screening_bounds_never_exceed_a_refit(seed, kind, n, pool, n_chosen, planted):
    # no candidate's exact refit loss is below its saturated bound
    gen = rng(seed)
    base = gen.integers(0, 2, size=(n, pool)).astype(np.uint8)
    X = np.column_stack([base, base[:, 0], 1 - base[:, 1]])  # a duplicate, a complement
    _, y = _labels(gen, base, kind)
    if planted:  # labels a function of the pool: some refits separate the rows
        y = base[:, -1] + (kind == "multiclass") * base[:, 0].astype(np.int64)
    n_classes = 2 if kind == "binary" else 3
    assume(len(np.unique(y)) == n_classes)
    chosen = gen.choice(pool, size=min(n_chosen, pool), replace=False).tolist()
    *_, (Xg, yg, n_g, m1) = _refined_groups(X, y, n_classes, chosen)
    owner = np.unique(Xg, axis=0, return_inverse=True)[1].ravel()
    targets = np.flatnonzero(yg >= (n_classes == 2))
    xlogx = np.arange(n + 1) * np.log(np.maximum(np.arange(n + 1), 1))
    bound = selection._saturated_bounds(m1, n_g, owner, targets, xlogx)
    assert np.all(bound >= 0.0)
    for j in range(X.shape[1]):
        assert bound[j] <= _refit_nll(X, y, chosen + [j]) * (1 + 1e-9) + 1e-9, j


@pytest.mark.parametrize("seed", range(6))
def test_first_step_is_the_candidate_newton_step(seed):
    gen = rng(seed)
    G, s = int(gen.integers(4, 30)), int(gen.integers(0, 4))
    phi = np.column_stack([np.ones(G), gen.integers(0, 2, size=(G, s))])
    assert np.linalg.matrix_rank(phi) == s + 1  # well conditioned: no incumbent repeats another
    t_g = gen.integers(0, 2, size=G).astype(np.float64)
    n_g = gen.integers(2, 20, size=G).astype(np.float64)
    a1 = np.floor(gen.random((12, G)) * (n_g + 1))
    start = gen.normal(size=s + 1)
    sign = 2.0 * t_g - 1.0
    outer = (phi[:, :, None] * phi[:, None, :]).reshape(G, -1)
    theta = np.tile(np.append(start, 0.0), (len(a1), 1))
    want = selection._newton_steps(phi, outer, sign, theta, a1, n_g - a1)
    got = selection._first_steps(phi, sign, n_g, start, a1)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())


def _void_key_distinct_columns(Xp):
    """The distinct-column dedupe with keys over the raw column bytes."""
    keys = np.ascontiguousarray(Xp.T)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    return np.sort(np.unique(keys, return_index=True)[1])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 17), pool=st.integers(1, 12),
       n_copies=st.integers(0, 6), n_zero=st.integers(0, 3), density=st.sampled_from([0.1, 0.5, 0.9]))
def test_packed_keys_find_the_raw_distinct_columns(seed, n, pool, n_copies, n_zero, density):
    # most n are not a multiple of 8, so the last packed byte is padded
    gen = rng(seed)
    X = (gen.random((n, pool)) < density).astype(np.uint8)
    X = np.column_stack([X, np.zeros((n, n_zero), dtype=np.uint8),
                         X[:, gen.integers(0, pool, size=n_copies)]])
    X = X[:, gen.permutation(X.shape[1])]
    want = _void_key_distinct_columns(X)
    for matrix in (X, X.astype(bool), X.astype(np.float64)):
        assert np.array_equal(selection._distinct_columns(matrix), want)


@pytest.mark.parametrize("kind", ["binary", "multiclass", "linear"])
def test_count_blocks_do_not_move_bits(kind, monkeypatch):
    # the float32 copy that forward linear and the lasso multiply with is
    # gathered a block of rows at a time
    gen = rng(23)
    X = gen.integers(0, 2, size=(300, 40)).astype(np.uint8)
    task, y = _labels(gen, X[:, :6], kind)
    selects = [lasso_select] + ([forward_select] if task == "linear" else [])
    want = [_selected(select, X, y, 8, task) for select in selects]
    for rows in (1, 7):  # one row per block; blocks that do not divide the rows
        monkeypatch.setattr(selection, "_BLOCK_ROWS", rows)
        assert [_selected(select, X, y, 8, task) for select in selects] == want


def test_forward_logistic_counts_without_a_float_copy(monkeypatch):
    X, y, _ = planted_problem(seed=4, pool=30)
    copies = []
    real_copy = selection._float_copy
    monkeypatch.setattr(selection, "_float_copy",
                        lambda *args: copies.append(args) or real_copy(*args))
    forward_select(X, y, 5, "logistic")
    assert copies == []
    forward_select(X, y.astype(np.float64), 5, "linear")
    assert len(copies) == 1  # the helper is the one that would be caught


def _golden_problem(seed, kind):
    """A seeded pool with exact duplicate and complement columns, and its labels."""
    gen = rng(seed)
    base = gen.integers(0, 2, size=(240, 20)).astype(np.uint8)
    X = np.column_stack([base[:, :12], base[:, 2], 1 - base[:, 5], base[:, 12:],
                         base[:, 9], 1 - base[:, 0]])
    task, y = _labels(gen, base[:, :8], kind)
    return X, y, task


def _digest(res):
    h = hashlib.sha256()
    h.update(repr(res.chosen).encode())
    h.update(repr(res.trace).encode())
    for values in (res.model.weights, res.model.intercept):
        h.update(" ".join(float(v).hex() for v in np.ravel(values)).encode())
    return h.hexdigest()[:16]


# pinned from a known-good run; a bit moved in any selection changes them
GOLDEN_SELECTIONS = {
    ("forward", "binary"): "2522827914f53167:941e322027b559f7:8939facd15383402",
    ("forward", "multiclass"): "5a7c1625b641cd7d:ec70f48f91287ef7:a0b199ddc595dcd4",
    ("forward", "linear"): "d272800b7e7fa048:3a6e8078437585a9:5252fa4cbb8ae9dc",
    ("lasso", "binary"): "06d1d2ea1a4c7f54:8cae424e8a9411d0",
    ("lasso", "multiclass"): "d7d117752fb657fa:71b9fc13388fdb00",
    ("lasso", "linear"): "afd570763bd091df:a8a5e8cef106e393",
}


@pytest.mark.parametrize("method,kind", sorted(GOLDEN_SELECTIONS))
def test_golden_selection_digests(method, kind):
    select = forward_select if method == "forward" else lasso_select
    X, y, task = _golden_problem(31, kind)
    results = [select(X, y, k, task) for k in (1, 6)]
    if method == "forward":  # and the refit of a prefix, as a k sweep makes it
        results.append(results[1].prefix(3, X, y, task))
    assert ":".join(map(_digest, results)) == GOLDEN_SELECTIONS[(method, kind)]
