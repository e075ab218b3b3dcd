"""The serving kernel: compiled rule evaluation followed by the GLM scores.

Batch prediction must equal single-row prediction byte for byte for any
rule list and input, and both must equal the per-row reference kept here:
the scalar ``matches`` loop followed by ``w @ bits + b``, the formula the
serving path applied row by row before it was vectorised. Stratified
models must give every row the same bits alone, in the full batch and in
any subset or permutation of it, whatever bags the model already
remembers.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppred import stratify
from dppred.data import Dataset, subset
from dppred.glm import GlmModel, predict_proba, sigmoid
from dppred.model import DppredModel, predict, predict_one, predict_probabilities
from dppred.patterns import Condition, Pattern, rule_matrix
from dppred.stratify import StratifiedModel, StratifyConfig, assign_clusters, predict_stratified
from oracles import matches

# thresholds come from the same grid as most cells, so ties at >= and < occur
GRID = np.array([-1.0, 0.0, 0.25, 0.5, 1.0])
KINDS = ["linear", "linear-bounds", "binary", "3-class"]


def random_x(gen, n, d, nan_share):
    x = gen.choice(GRID, size=(n, d))
    jitter = gen.random((n, d)) < 0.3
    x[jitter] += gen.normal(size=int(jitter.sum()))
    x[gen.random((n, d)) < nan_share] = np.nan
    return x


def random_rule(gen, d, gate=()):
    return Pattern(tuple(Condition(int(gen.integers(d)), str(gen.choice(["lt", "ge"])),
                                   float(gen.choice(GRID)))
                         for _ in range(int(gen.integers(1, 4)))) + gate)


def random_glm(gen, k, kind):
    """(GlmModel, label bounds) over k rule columns."""
    if kind.startswith("linear"):
        glm = GlmModel(weights=gen.normal(size=k), intercept=float(gen.normal()), task="linear")
        return glm, (-3.7, 12.1) if kind == "linear-bounds" else None
    if kind == "binary":
        return GlmModel(weights=3 * gen.normal(size=k), intercept=float(gen.normal()),
                        task="logistic", classes=2), None
    return GlmModel(weights=3 * gen.normal(size=(3, k)), intercept=gen.normal(size=3),
                    task="logistic", classes=3), None


def dataset(x, label_kind):
    d = x.shape[1]
    names = [f"f{j}" for j in range(d)]
    return Dataset(x=x, y=np.zeros(len(x)), feature_names=names, feature_sources=names,
                   binary_dims=np.zeros(d, dtype=bool), label_kind=label_kind)


def random_model(seed, n, d, k, kind, nan_share):
    gen = np.random.default_rng(seed)
    x = random_x(gen, n, d, nan_share)
    rules = [random_rule(gen, d) for _ in range(k)]
    glm, bounds = random_glm(gen, k, kind)
    ds = dataset(x, "real" if glm.task == "linear" else "class")
    m = DppredModel(patterns=rules, glm=glm, schema=None, feature_names=ds.feature_names,
                    feature_sources=ds.feature_sources, label_kind=ds.label_kind,
                    label_bounds=bounds)
    return m, ds


def random_stratified_model(seed, n, d, n_global, n_clusters, kind, iterations):
    """A stratified model whose last row satisfies no global rule.

    Every global rule also requires ``f0 >= -1``, which the last row fails;
    with two or more clusters one cluster has no local rules, like a
    cluster that fell back to the global rules in training.
    """
    gen = np.random.default_rng(seed)
    x = random_x(gen, n, d, 0.1)
    x[-1, 0] = -2.0
    gate = (Condition(0, "ge", -1.0),)
    global_rules = [random_rule(gen, d, gate) for _ in range(n_global)]
    local_counts = gen.integers(0, 5, size=n_clusters)
    if n_clusters > 1:
        local_counts[gen.integers(n_clusters)] = 0
    cluster_rules = [[random_rule(gen, d) for _ in range(c)] for c in local_counts]
    n_local = max(1, int(local_counts.max()))
    # topic rows as training smooths them: (counts + beta) / (row total)
    shape = (n_clusters, n_global)
    counts = gen.integers(0, 30, size=shape) * (gen.random(shape) < 0.5)
    topics = (counts + 0.1) / (counts + 0.1).sum(axis=1, keepdims=True)
    cfg = StratifyConfig(n_global=n_global, n_local=n_local, n_clusters=n_clusters,
                         fold_in_iterations=iterations)
    glm, bounds = random_glm(gen, n_global + n_local, kind)
    ds = dataset(x, "real" if glm.task == "linear" else "class")
    m = StratifiedModel(global_patterns=global_rules, topics=topics, cluster_patterns=cluster_rules,
                        glm=glm, config=cfg,
                        schema=None, feature_names=ds.feature_names,
                        feature_sources=ds.feature_sources, label_kind=ds.label_kind,
                        label_bounds=bounds)
    return m, ds


def reference_row(m, xi):
    """(prediction, probabilities or None) for one row, computed the scalar way."""
    bits = np.array([1.0 if matches(p, xi) else 0.0 for p in m.patterns])
    if m.glm.task == "linear":
        raw = float(m.glm.weights @ bits + m.glm.intercept)
        if m.label_bounds is not None:
            lo, hi = m.label_bounds
            raw = raw * (hi - lo) + lo
        return raw, None
    if m.glm.classes == 2:
        p1 = float(sigmoid(np.array([m.glm.weights @ bits + m.glm.intercept]))[0])
        proba = np.array([1.0 - p1, p1])
    else:
        proba = sigmoid(m.glm.weights @ bits + np.asarray(m.glm.intercept))
    return int(np.argmax(proba)), proba


cases = st.tuples(
    st.integers(0, 2**32 - 1),        # seed
    st.integers(1, 40),               # rows
    st.integers(1, 6),                # features
    st.integers(0, 12),               # rules; a loaded file may say count=0
    st.sampled_from(KINDS),
    st.sampled_from([0.0, 0.2]),      # share of NaN cells
)


@settings(max_examples=150, deadline=None)
@given(cases)
def test_batch_equals_single_row_bytes(case):
    m, ds = random_model(*case)
    batch = predict(m, ds)
    stream = [predict_one(m, ds.x[i]) for i in range(ds.n)]
    assert all(type(v) is (float if m.glm.task == "linear" else int) for v in stream)
    assert batch.tobytes() == np.array(stream, dtype=batch.dtype).tobytes()
    if m.glm.task == "logistic":
        probs = predict_probabilities(m, ds)
        rows = [predict_proba(m.glm, rule_matrix(m.compiled, ds.x[i:i + 1])) for i in range(ds.n)]
        assert probs.tobytes() == np.array(rows).reshape(probs.shape).tobytes()


@settings(max_examples=150, deadline=None)
@given(cases)
def test_batch_equals_scalar_reference(case):
    m, ds = random_model(*case)
    batch = predict(m, ds)
    ref = [reference_row(m, ds.x[i]) for i in range(ds.n)]
    assert batch.tobytes() == np.array([r[0] for r in ref], dtype=batch.dtype).tobytes()
    if m.glm.task == "logistic":
        ref_probs = np.array([r[1] for r in ref]).reshape(ds.n, -1)
        assert predict_probabilities(m, ds).tobytes() == ref_probs.tobytes()


def test_zero_rules_predict_the_intercept():
    m, ds = random_model(3, n=5, d=2, k=0, kind="linear", nan_share=0.0)
    assert predict(m, ds).tolist() == [m.glm.intercept] * 5
    assert m.compiled.operands.shape == m.compiled.thresholds.shape[:2] == (0, 0)


strat_cases = st.tuples(
    st.integers(0, 2**32 - 1),        # seed
    st.integers(2, 30),               # rows
    st.integers(1, 5),                # features
    st.integers(1, 12),               # global rules
    st.integers(1, 4),                # clusters
    st.sampled_from(KINDS),
    st.sampled_from([1, 7, 50]),      # fold-in steps
)


@settings(max_examples=60, deadline=None)
@given(strat_cases, st.integers(0, 2**32 - 1))
def test_stratified_rows_alone_or_in_any_subset_match_the_batch(case, pick):
    m, ds = random_stratified_model(*case)
    gen = np.random.default_rng(pick)
    rows = gen.permutation(ds.n)[:int(gen.integers(1, ds.n + 1))]
    part = subset(ds, rows)
    # the model remembers every bag it serves: the subset first meets a
    # cold memory, then one that the full batch has filled
    part_before = predict_stratified(m, part)
    batch = predict_stratified(m, ds)
    clusters = assign_clusters(m, ds)
    assert clusters[-1] == 0                    # the empty bag
    assert part_before.tobytes() == batch[rows].tobytes()
    assert predict_stratified(m, part).tobytes() == batch[rows].tobytes()
    assert assign_clusters(m, part).tolist() == clusters[rows].tolist()
    cold = [predict_stratified(replace(m), subset(ds, [i])) for i in range(ds.n)]
    warm = [predict_stratified(m, subset(ds, [i])) for i in range(ds.n)]
    assert np.concatenate(cold).tobytes() == batch.tobytes()
    assert np.concatenate(warm).tobytes() == batch.tobytes()
    if m.glm.task == "logistic":
        # the probabilities come from the same unified block as the classes
        probs = predict_probabilities(m, ds)
        unified = stratify._unified_matrix(rule_matrix(m.compiled[0], ds.x), clusters, ds.x,
                                           m.compiled[1], m.config.n_global, m.config.n_local)
        assert probs.tobytes() == predict_proba(m.glm, unified).tobytes()
        assert batch.tolist() == np.argmax(probs, axis=1).tolist()
        for model in (replace(m), m):
            assert predict_probabilities(model, part).tobytes() == probs[rows].tobytes()
        alone = [predict_probabilities(m, subset(ds, [i])) for i in range(ds.n)]
        assert np.concatenate(alone).tobytes() == probs.tobytes()


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_capped_memory_serves_the_bits_of_a_cold_model(cap, seed):
    m, ds = random_stratified_model(seed, n=30, d=4, n_global=8, n_clusters=3, kind="linear",
                                    iterations=7)
    assert len(np.unique(rule_matrix(m.compiled[0], ds.x), axis=0)) > cap
    want = predict_stratified(replace(m), ds)
    order = np.random.default_rng(seed).permutation(ds.n)
    with mock.patch.object(stratify, "_KNOWN_BAGS", cap):
        assert predict_stratified(m, ds).tobytes() == want.tobytes()
        assert len(m.known_bags) <= cap
        for i in order:
            assert predict_stratified(m, subset(ds, [i])).tobytes() == want[i:i + 1].tobytes()
            assert len(m.known_bags) <= cap
        # a full memory meets a batch of remembered and new bags
        assert predict_stratified(m, ds).tobytes() == want.tobytes()
        assert len(m.known_bags) <= cap
