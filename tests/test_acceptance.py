"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The recovery benchmark
(criterion 1) trains on 20k instances and dominates the runtime.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dppred.data import Dataset, load_csv, read_schema_file
from dppred.glm import fit_lasso, lambda_max, support
from dppred.model import (
    HyperParams,
    evaluate,
    load,
    predict,
    predict_one,
    save,
    train,
)
from dppred.patterns import construct_pattern_space, extract_patterns
from dppred.stratify import StratifyConfig, cluster_patients, predict_stratified, train_stratified
from dppred.synth import SynthConfig, generate_medical, generate_subtyped_regression
from dppred.tree import TreeConfig, fit_forest


from conftest import ACCEPTANCE_LINES
from oracles import (
    for_task,
    linear_loss,
    logistic_loss,
    matches,
    refit_on_patterns,
    route,
    tree_patterns,
)


def report(criterion: int, passed: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)  # echoed after the run, outside capture
    return passed


# --- criterion 1: synthetic recovery --------------------------------------

GENDER_DIMS = {1: "male", 2: "female", 3: "?"}
BLOOD_DIMS = {4: "A", 5: "B", 6: "O", 7: "AB", 8: "?"}
OCCURRING = {"gender": {"male", "female"}, "blood": {"A", "B", "O", "AB"}}


def _semantics(pattern):
    """Pattern content as (age interval, lab interval, per-variable category sets).

    Valid for the diagnosis generator: complete one-hot blocks, no missing
    values, ages on the integer grid.
    """
    age = [-math.inf, math.inf]
    lab = [-math.inf, math.inf]
    possible = {"gender": set(OCCURRING["gender"]), "blood": set(OCCURRING["blood"])}
    for c in pattern.conditions:
        if c.dim == 0:
            age[0 if c.op == "ge" else 1] = c.threshold
        elif c.dim == 9:
            lab[0 if c.op == "ge" else 1] = c.threshold
        else:
            var, cat = ("gender", GENDER_DIMS[c.dim]) if c.dim in GENDER_DIMS \
                else ("blood", BLOOD_DIMS[c.dim])
            if c.op == "ge":
                possible[var] &= {cat}
            else:
                possible[var] -= {cat}
    possible = {v: s & OCCURRING[v] for v, s in possible.items()}
    return age, lab, possible


def _matches_truth(pattern, rule: int) -> bool:
    """Structural match against generating rule 1, 2 or 3.

    Lab thresholds are graded at +-0.05 as stated. Ages are integers, so
    every lower bound in (18, 19] realizes "age > 18" exactly; the age
    condition is graded on that equivalence band.
    """
    age, lab, possible = _semantics(pattern)
    adult = 18.0 < age[0] <= 19.0 and age[1] > 60.0
    minor = age[0] < 1.0 and 18.0 < age[1] <= 19.0
    no_lab_cap = lab[1] > 1.0 or lab[1] == math.inf
    if rule == 1:
        return (adult and possible["gender"] == {"male"} and possible["blood"] == {"AB"}
                and abs(lab[0] - 0.6) <= 0.05 and no_lab_cap)
    if rule == 2:
        return (adult and possible["gender"] == {"female"} and possible["blood"] == {"O"}
                and abs(lab[0] - 0.5) <= 0.05 and no_lab_cap)
    return (minor and possible["gender"] == OCCURRING["gender"]
            and possible["blood"] == OCCURRING["blood"]
            and abs(lab[0] - 0.9) <= 0.05 and no_lab_cap)


def recovery_results(tree_seed: int) -> dict[str, tuple[float, list[bool]]]:
    """Criterion 1's run at one tree seed: per selection method, the test
    accuracy and which of truth rules 1-3 some selected rule matches."""
    cfg = SynthConfig(n_train=20_000, n_test=10_000, noise_rate=0.001, seed=42)
    tr, te, _ = generate_medical(cfg)

    results = {}
    for method in ("forward", "lasso"):
        hp = for_task("classification", seed=tree_seed, method=method)
        assert (hp.tree.n_trees, hp.tree.max_depth, hp.tree.min_bag, hp.k) == (100, 6, 10, 20)
        m = train(tr, hp)
        acc = evaluate(predict(m, te), te.y, "classification")["accuracy"]
        recovered = [any(_matches_truth(p, rule) for p in m.patterns) for rule in (1, 2, 3)]
        results[method] = (acc, recovered)
    return results


def recovery_passes(results) -> bool:
    return all(acc >= 0.995 and all(rec) for acc, rec in results.values())


def test_criterion_1_synthetic_recovery():
    start = time.time()
    results = recovery_results(13)
    elapsed = time.time() - start
    ok = recovery_passes(results) and elapsed <= 600
    detail = ", ".join(f"{meth}: acc={acc:.4f} rules={rec}"
                       for meth, (acc, rec) in results.items())
    assert report(1, ok, f"{detail}, runtime {elapsed:.0f}s (limit 600s)")


# --- criterion 2: pool-size bound ------------------------------------------


def _random_dataset(gen, classification: bool) -> Dataset:
    n = int(gen.integers(30, 501))
    d_num = int(gen.integers(1, 5))
    d_bin = int(gen.integers(0, 4))
    cols = [gen.random(n) * gen.integers(1, 20) for _ in range(d_num)]
    cols += [(gen.random(n) < gen.uniform(0.2, 0.8)).astype(float) for _ in range(d_bin)]
    x = np.column_stack(cols)
    if classification:
        y = gen.integers(0, int(gen.integers(2, 4)), size=n)
        kind, names = "class", [str(c) for c in range(int(y.max()) + 1)]
    else:
        y = gen.normal(size=n)
        kind, names = "real", None
    return Dataset(x=x, y=y, feature_names=[f"f{j}" for j in range(x.shape[1])],
                   feature_sources=[f"f{j}" for j in range(x.shape[1])],
                   binary_dims=np.array([False] * d_num + [True] * d_bin),
                   label_kind=kind, label_names=names)


def test_criterion_2_pool_size_bound():
    gen = np.random.default_rng(202)
    violations = 0
    checked = 0
    for trial in range(50):
        ds = _random_dataset(gen, classification=trial % 2 == 0)
        cfg = TreeConfig(n_trees=int(gen.integers(1, 6)),
                         max_depth=int(gen.integers(1, 8)),
                         min_bag=int(gen.integers(1, 25)),
                         seed=int(gen.integers(0, 10_000)))
        bound = min(2 ** cfg.max_depth, math.ceil(ds.n / cfg.min_bag)) - 1
        for tree in fit_forest(ds, cfg):
            checked += 1
            if len(tree_patterns(tree)) > bound:
                violations += 1
    assert report(2, violations == 0, f"{checked} trees audited, {violations} bound violations")


# --- criterion 3: tree-consistency oracle ----------------------------------


def test_criterion_3_tree_consistency():
    gen = np.random.default_rng(303)
    mismatches = 0
    pairs = 0
    # the routed rule space of each forest, cell by cell against matches()
    cells = 0
    cell_mismatches = 0
    for trial in range(8):
        ds = _random_dataset(gen, classification=trial % 2 == 0)
        ds = Dataset(x=ds.x[:200], y=ds.y[:200], feature_names=ds.feature_names,
                     feature_sources=ds.feature_sources, binary_dims=ds.binary_dims,
                     label_kind=ds.label_kind, label_names=ds.label_names)
        cfg = TreeConfig(n_trees=int(gen.integers(1, 6)), max_depth=4,
                         min_bag=int(gen.integers(2, 12)), seed=int(gen.integers(0, 1000)))
        forest = fit_forest(ds, cfg)
        for tree in forest:
            for pattern, child in tree_patterns(tree):
                for i in range(ds.n):
                    visited = any(node is child for node in route(tree.root, ds.x[i]))
                    pairs += 1
                    if matches(pattern, ds.x[i]) != visited:
                        mismatches += 1
        pool = extract_patterns(forest)
        space = construct_pattern_space(ds, pool)
        for j, pattern in enumerate(pool):
            for i in range(ds.n):
                cells += 1
                if bool(space[i, j]) != matches(pattern, ds.x[i]):
                    cell_mismatches += 1
    assert report(3, mismatches == 0 and cell_mismatches == 0 and cells > 0,
                  f"{pairs} (pattern, instance) pairs, {mismatches} mismatches; "
                  f"{cells} rule-space cells, {cell_mismatches} mismatches")


# --- criterion 4: gradient correctness -------------------------------------


def test_criterion_4_gradient_checks():
    gen = np.random.default_rng(404)
    h = 1e-5
    worst = 0.0
    for trial in range(100):
        n = int(gen.integers(2, 51))
        d = int(gen.integers(1, 11))
        X = gen.random((n, d))
        w = gen.normal(size=d)
        b = float(gen.normal())
        if trial % 2 == 0:
            y = gen.normal(size=n)
            f0, gw, gb = linear_loss(X, y, w, b)
            loss = lambda wv, bv: linear_loss(X, y, wv, bv)[0]
        else:
            y = gen.integers(0, 2, size=n).astype(np.float64)
            f0, gw, gb = logistic_loss(X, y, w, b)
            loss = lambda wv, bv: logistic_loss(X, y, wv, bv)[0]
        num = np.empty(d + 1)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            num[j] = (loss(w + e, b) - loss(w - e, b)) / (2 * h)
        num[d] = (loss(w, b + h) - loss(w, b - h)) / (2 * h)
        analytic = np.append(gw, gb)
        rel = np.linalg.norm(analytic - num) / max(np.linalg.norm(analytic), 1e-10)
        worst = max(worst, rel)
    assert report(4, worst < 1e-4, f"100 instances, worst relative error {worst:.2e}")


# --- criterion 5: LASSO machinery -------------------------------------------


def test_criterion_5_lasso_machinery():
    gen = np.random.default_rng(505)

    # (a) exact zeros at 1.01 * lambda_max
    exact_zero_ok = True
    for trial in range(10):
        n = int(gen.integers(30, 120))
        d = int(gen.integers(3, 20))
        X = gen.integers(0, 2, size=(n, d)).astype(np.float64)
        task = "linear" if trial % 2 == 0 else "logistic"
        y = gen.normal(size=n) if task == "linear" else gen.integers(0, 2, size=n)
        if task == "logistic" and len(np.unique(y)) < 2:
            continue
        lam = lambda_max(X, y, task)
        if lam <= 0:
            continue
        m = fit_lasso(X, y, 1.01 * lam, task)
        if np.any(np.atleast_2d(m.weights) != 0.0):
            exact_zero_ok = False

    # (b) binary search support always <= k
    from dppred.selection import lasso_select
    search_ok = True
    for trial in range(8):
        n = int(gen.integers(60, 200))
        d = int(gen.integers(8, 30))
        X = gen.integers(0, 2, size=(n, d)).astype(np.uint8)
        y = (X[:, :3].sum(axis=1) + gen.random(n) > 1.8).astype(np.int64)
        if len(np.unique(y)) < 2:
            continue
        k = int(gen.integers(1, 7))
        try:
            res = lasso_select(X, y, k, "logistic")
            if not 0 < len(res.chosen) <= k:
                search_ok = False
        except ValueError:
            pass  # "no support found" is a legal outcome for degenerate draws

    # (c) support sizes non-decreasing on >= 95% of adjacent grid pairs
    good = total = 0
    for trial in range(20):
        n = int(gen.integers(40, 140))
        d = int(gen.integers(5, 25))
        X = gen.integers(0, 2, size=(n, d)).astype(np.float64)
        task = "linear" if trial % 2 == 0 else "logistic"
        w_true = np.zeros(d)
        nz = gen.choice(d, size=min(4, d), replace=False)
        w_true[nz] = gen.normal(size=len(nz)) * 2.0
        if task == "linear":
            y = X @ w_true + gen.normal(size=n) * 0.1
        else:
            z = X @ w_true - w_true.sum() / 2
            y = (z + gen.normal(size=n) > np.median(z)).astype(np.int64)
            if len(np.unique(y)) < 2:
                continue
        lam = lambda_max(X, y, task)
        if lam <= 0:
            continue
        grid = lam * np.array([0.9, 0.7, 0.5, 0.35, 0.25, 0.15, 0.1, 0.05, 0.02, 0.01])
        sizes = [len(support(fit_lasso(X, y, v, task))) for v in grid]
        for a, b in zip(sizes, sizes[1:]):
            total += 1
            good += a <= b
    fraction = good / total if total else 0.0
    ok = exact_zero_ok and search_ok and fraction >= 0.95
    assert report(5, ok, f"zero-fixpoint={exact_zero_ok}, search<=k={search_ok}, "
                         f"support monotone {good}/{total} ({fraction:.3f})")


# --- criterion 6: forward monotonicity --------------------------------------


def test_criterion_6_forward_monotonicity():
    datasets = []
    tr, _, _ = generate_medical(SynthConfig(n_train=2000, n_test=10, noise_rate=0.001, seed=3))
    datasets.append(("medical", tr, "classification"))
    str_tr, _ = generate_subtyped_regression(SynthConfig(n_train=1500, n_test=10, seed=4), 3)
    datasets.append(("subtyped", str_tr, "regression"))
    gen = np.random.default_rng(606)
    for i in range(3):
        ds = _random_dataset(gen, classification=i % 2 == 0)
        datasets.append((f"random{i}", ds, "classification" if i % 2 == 0 else "regression"))

    failures = []
    for name, ds, task in datasets:
        try:
            hp = HyperParams(tree=TreeConfig(n_trees=25, seed=7), k=10,
                             method="forward",
                             task=task)
            m = train(ds, hp)
        except ValueError:
            continue  # degenerate random draw (pure labels)
        metrics = [metric for _, _, metric in m.selection.trace]
        if not all(a <= b for a, b in zip(metrics, metrics[1:])):
            failures.append(name)
    assert report(6, not failures, f"traces checked on {len(datasets)} datasets, "
                                   f"violations: {failures or 'none'}")


# --- criterion 7: batch/stream and round-trip equality ----------------------


def test_criterion_7_bitwise_equalities(tmp_path):
    tr, te, _ = generate_medical(SynthConfig(n_train=2500, n_test=900, noise_rate=0.001, seed=8))
    checks = {}
    for method in ("forward", "lasso"):
        hp = HyperParams(tree=TreeConfig(n_trees=40, seed=6), k=12,
                         method=method, task="classification")
        m = train(tr, hp)
        batch = predict(m, te)
        stream = np.array([predict_one(m, te.x[i]) for i in range(te.n)])
        path = tmp_path / f"{method}.model"
        save(m, path)
        reload_preds = predict(load(path), te)
        checks[method] = (np.array_equal(batch, stream),
                          np.array_equal(batch, reload_preds))

    from dppred.data import minmax_normalize_labels
    rtr, rte = generate_subtyped_regression(SynthConfig(n_train=1500, n_test=600, seed=9), 2)
    rtr = minmax_normalize_labels(rtr)
    hp = HyperParams(tree=TreeConfig(n_trees=40, seed=6), k=15,
                     method="forward", task="regression")
    m = train(rtr, hp)
    batch = predict(m, rte)
    stream = np.array([predict_one(m, rte.x[i]) for i in range(rte.n)])
    path = tmp_path / "reg.model"
    save(m, path)
    reload_preds = predict(load(path), rte)
    checks["regression"] = (np.array_equal(batch, stream),
                            np.array_equal(batch, reload_preds))

    ok = all(all(pair) for pair in checks.values())
    assert report(7, ok, f"batch==stream and save/load bitwise: {checks}")


# --- criterion 8: stratification --------------------------------------------


def stratification_results(tree_seed: int) -> tuple[float, float, float]:
    """Criterion 8's run at one tree seed: the G=1 degeneracy RMSE gap, and
    the G=3 stratified and flat test RMSEs."""
    # (a) single-cluster degeneracy: stratified predictions equal the flat
    # model refit on the same rule set
    tr, te = generate_subtyped_regression(SynthConfig(n_train=1200, n_test=600, seed=6), 2)
    hp = HyperParams(tree=TreeConfig(n_trees=40, seed=tree_seed), k=12,
                     method="forward", task="regression")
    cfg1 = StratifyConfig(n_global=10, n_local=5, n_clusters=1,
                          gibbs_iterations=80, seed=5)
    m1 = train_stratified(tr, hp, cfg1)
    flat_equiv = refit_on_patterns(tr, m1.global_patterns + m1.cluster_patterns[0],
                                   "regression")
    a = predict_stratified(m1, te)
    b = predict(flat_equiv, te)
    degeneracy_rmse = math.sqrt(float(np.mean((a - b) ** 2)))

    # (b) three-subtype data: stratified must not lose to the flat model
    tr3, te3 = generate_subtyped_regression(
        SynthConfig(n_train=5000, n_test=2500, noise_rate=0.0, seed=6), 3)
    hp3 = HyperParams(tree=TreeConfig(n_trees=100, seed=tree_seed), k=30,
                      method="forward", task="regression")
    cfg3 = StratifyConfig(n_global=30, n_local=10, n_clusters=3,
                          gibbs_iterations=300, seed=3)
    strat = train_stratified(tr3, hp3, cfg3)
    rmse_strat = evaluate(predict_stratified(strat, te3), te3.y, "regression")["rmse"]
    flat = train(tr3, HyperParams(tree=TreeConfig(n_trees=100, seed=tree_seed), k=40,
                                  method="forward", task="regression"))
    rmse_flat = evaluate(predict(flat, te3), te3.y, "regression")["rmse"]
    return degeneracy_rmse, rmse_strat, rmse_flat


def stratification_passes(degeneracy_rmse, rmse_strat, rmse_flat) -> bool:
    return degeneracy_rmse <= 1e-9 and rmse_strat <= rmse_flat


def test_criterion_8_stratification():
    degeneracy_rmse, rmse_strat, rmse_flat = stratification_results(3)
    ok = stratification_passes(degeneracy_rmse, rmse_strat, rmse_flat)
    assert report(8, ok, f"G=1 degeneracy RMSE diff {degeneracy_rmse:.2e} (<=1e-9), "
                         f"G=3 stratified {rmse_strat:.4f} vs flat {rmse_flat:.4f}")


# --- criterion 9: LDA sanity -------------------------------------------------


def test_criterion_9_lda_sanity():
    gen = np.random.default_rng(909)
    n_per, width = 40, 6
    bits = np.zeros((2 * n_per, 2 * width), dtype=np.uint8)
    for i in range(n_per):
        bits[i, gen.integers(0, width, size=3)] = 1
        bits[n_per + i, width + gen.integers(0, width, size=3)] = 1
    cfg = StratifyConfig(n_clusters=2, gibbs_iterations=200, seed=2)
    assignments, topics = cluster_patients(bits, cfg)

    rows_ok = bool(np.all(np.abs(topics.sum(axis=1) - 1.0) <= 1e-9))

    truth = np.repeat([0, 1], n_per)
    # adjusted Rand index, computed combinatorially
    table = np.array([[np.sum((assignments == i) & (truth == j)) for j in (0, 1)]
                      for i in np.unique(assignments)])
    comb2 = lambda v: v * (v - 1) / 2.0
    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(len(truth))
    max_index = (sum_a + sum_b) / 2.0
    ari = 1.0 if max_index == expected else (sum_ij - expected) / (max_index - expected)

    ok = rows_ok and ari == 1.0
    assert report(9, ok, f"topic rows sum to 1: {rows_ok}, disjoint-block ARI {ari:.3f}")


# --- criterion 10: optional UCI soft check ----------------------------------

UCI_DIR = Path(__file__).parent / "data" / "uci"
UCI_TABLE = {"adult": 85.66, "hypo": 99.58, "sick": 98.35}


def test_criterion_10_uci_soft_check():
    """Non-gating: reports deviations from the published accuracies when the
    UCI files are present; otherwise skipped. Never fails on deviation."""
    available = [name for name in UCI_TABLE
                 if (UCI_DIR / f"{name}_train.csv").exists()
                 and (UCI_DIR / f"{name}_test.csv").exists()
                 and (UCI_DIR / f"{name}_schema.csv").exists()]
    if not available:
        report(10, True, "SKIPPED - UCI datasets not present "
                         f"(place files under {UCI_DIR})")
        pytest.skip("UCI datasets not available")
    lines = []
    for name in available:
        label_task, schema = read_schema_file(UCI_DIR / f"{name}_schema.csv")
        tr = load_csv(UCI_DIR / f"{name}_train.csv", schema, label_task)
        te = load_csv(UCI_DIR / f"{name}_test.csv", tr.schema, label_task)
        hp = for_task("classification", seed=1, method="forward")
        m = train(tr, hp)
        acc = evaluate(predict(m, te), te.y, "classification")["accuracy"] * 100
        delta = acc - UCI_TABLE[name]
        flag = "within +-3" if abs(delta) <= 3 else "outside +-3 (reported, not failed)"
        lines.append(f"{name}: {acc:.2f}% vs {UCI_TABLE[name]}% ({delta:+.2f}, {flag})")
    report(10, True, "; ".join(lines))
