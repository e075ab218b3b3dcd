"""The serving kernel: compiled rule evaluation followed by the GLM scores.

Batch prediction must equal single-row prediction byte for byte for any
rule list and input, and both must equal the per-row reference kept here:
the scalar ``matches`` loop followed by ``w @ bits + b``, the formula the
serving path applied row by row before it was vectorised.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dppred.data import Dataset
from dppred.glm import GlmModel, predict_proba, sigmoid
from dppred.model import DppredModel, predict, predict_one, predict_probabilities
from dppred.patterns import Condition, Pattern, matches, rule_matrix

# thresholds come from the same grid as most cells, so ties at >= and < occur
GRID = np.array([-1.0, 0.0, 0.25, 0.5, 1.0])
KINDS = ["linear", "linear-bounds", "binary", "3-class"]


def random_model(seed, n, d, k, kind, nan_share):
    gen = np.random.default_rng(seed)
    x = gen.choice(GRID, size=(n, d))
    jitter = gen.random((n, d)) < 0.3
    x[jitter] += gen.normal(size=int(jitter.sum()))
    x[gen.random((n, d)) < nan_share] = np.nan
    rules = [Pattern(tuple(Condition(int(gen.integers(d)), str(gen.choice(["lt", "ge"])),
                                     float(gen.choice(GRID)))
                           for _ in range(int(gen.integers(1, 4)))))
             for _ in range(k)]
    bounds = None
    if kind.startswith("linear"):
        glm = GlmModel(weights=gen.normal(size=k), intercept=float(gen.normal()), task="linear")
        bounds = (-3.7, 12.1) if kind == "linear-bounds" else None
    elif kind == "binary":
        glm = GlmModel(weights=3 * gen.normal(size=k), intercept=float(gen.normal()),
                       task="logistic", classes=2)
    else:
        glm = GlmModel(weights=3 * gen.normal(size=(3, k)), intercept=gen.normal(size=3),
                       task="logistic", classes=3)
    names = [f"f{j}" for j in range(d)]
    label_kind = "real" if glm.task == "linear" else "class"
    m = DppredModel(patterns=rules, glm=glm, schema=None, feature_names=names,
                    feature_sources=names, label_kind=label_kind, label_bounds=bounds)
    ds = Dataset(x=x, y=np.zeros(n), feature_names=names, feature_sources=names,
                 binary_dims=np.zeros(d, dtype=bool), label_kind=label_kind)
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
        rows = [predict_proba(m.glm, rule_matrix(m.compiled, ds.x[i:i + 1])[0]) for i in range(ds.n)]
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
    assert m.compiled.starts.shape == (0,)
