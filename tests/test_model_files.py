"""Model files: both kinds share one section codec, and a damaged file fails
at load time with a ValueError that names the file and the damaged section."""

import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppred.data import minmax_normalize_labels, subset
from dppred.model import HyperParams, load, predict, save, train
from dppred.stratify import (
    StratifyConfig,
    load_stratified,
    predict_stratified,
    save_stratified,
    train_stratified,
)
from dppred.synth import SynthConfig, generate_medical, generate_subtyped_regression
from dppred.tree import TreeConfig
from oracles import refit_on_patterns

NAMES_A_SECTION = re.compile(r"section '\w+'|header")


def malformed(path, pattern):
    """A ``match`` pattern: the error of a malformed section of the file ``path``."""
    return f"^{re.escape(str(path))}: malformed model file: {pattern}"


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """(loader, predictor, file text, test data) per model kind, plus a temporary directory."""
    out = tmp_path_factory.mktemp("model_files")
    med_tr, med_te, _ = generate_medical(SynthConfig(n_train=300, n_test=30, noise_rate=0.001, seed=2))
    binary = train(med_tr, HyperParams(tree=TreeConfig(n_trees=10, seed=1), k=5))
    three = replace(med_tr, y=np.arange(med_tr.n) % 3, label_names=["a", "b", "c"])
    multiclass = refit_on_patterns(three, binary.patterns[:3], "classification")
    sub_tr, sub_te = generate_subtyped_regression(SynthConfig(n_train=400, n_test=30, seed=6), 2)
    strat = train_stratified(
        minmax_normalize_labels(sub_tr),
        HyperParams(tree=TreeConfig(n_trees=15, seed=3), k=6, task="regression"),
        StratifyConfig(n_global=6, n_local=3, n_clusters=2, gibbs_iterations=40,
                       fold_in_iterations=10, seed=4))
    kinds = {}
    for name, m, writer, loader, predictor, te in [
            ("binary", binary, save, load, predict, med_te),
            ("multiclass", multiclass, save, load, predict, med_te),
            ("stratified", strat, save_stratified, load_stratified, predict_stratified, sub_te)]:
        path = out / f"{name}.model"
        writer(m, path)
        kinds[name] = (loader, predictor, path.read_text(encoding="utf-8"), te)
    return kinds, out


def mutate(text, action, where, replacement):
    lines = text.split("\n")
    i = where % len(lines)
    if action == "drop":
        del lines[i]
    elif action == "truncate":
        lines = lines[:i]
    elif action == "cut":
        lines[i] = lines[i][: len(lines[i]) // 2]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = replacement
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["binary", "multiclass", "stratified"]),
       action=st.sampled_from(["drop", "truncate", "cut", "duplicate", "replace"]),
       where=st.integers(0, 10_000),
       replacement=st.text(max_size=30))
def test_damaged_file_loads_or_names_its_section(model_files, kind, action, where, replacement):
    kinds, out = model_files
    loader, predictor, text, te = kinds[kind]
    path = out / "damaged.model"
    path.write_text(mutate(text, action, where, replacement), encoding="utf-8")
    try:
        m = loader(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: "), str(err)
        assert NAMES_A_SECTION.search(str(err)), str(err)
        return
    # a file that still loads must still serve, or refuse the data by name
    try:
        preds = predictor(m, te)
    except ValueError as err:
        assert "schema mismatch" in str(err)
    else:
        assert len(preds) == te.n


def test_round_trip_is_byte_identical(model_files, tmp_path):
    kinds, _ = model_files
    for name, (loader, _, text, _) in kinds.items():
        path = tmp_path / f"{name}.model"
        path.write_text(text, encoding="utf-8")
        again = tmp_path / f"{name}.again"
        (save_stratified if name == "stratified" else save)(loader(path), again)
        assert again.read_text(encoding="utf-8") == text


def test_served_bags_never_reach_the_file(model_files, tmp_path):
    kinds, _ = model_files
    _, _, text, te = kinds["stratified"]
    path = tmp_path / "strat.model"
    path.write_text(text, encoding="utf-8")
    m = load_stratified(path)
    assert m.known_bags == {}
    predict_stratified(m, te)
    for i in (3, 0, 3):
        predict_stratified(m, subset(te, [i]))
    assert m.known_bags
    again = tmp_path / "strat.again"
    save_stratified(m, again)
    assert again.read_bytes() == path.read_bytes()
    loaded = load_stratified(again)
    assert loaded.known_bags == {}
    shown = repr(m)
    assert "known_bags" not in shown
    assert not any(repr(key) in shown for key in m.known_bags)


def edit(model_files, tmp_path, kind, old, new):
    kinds, _ = model_files
    text = kinds[kind][2]
    assert old in text
    path = tmp_path / "edited.model"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return kinds[kind][0], path


def test_glm_task_is_required(model_files, tmp_path):
    # a missing task= once turned a logistic model into a linear one silently
    loader, path = edit(model_files, tmp_path, "binary", "task=logistic\n", "")
    with pytest.raises(ValueError, match=malformed(path, "section 'glm'.*task=")):
        loader(path)


def test_glm_classes_are_required(model_files, tmp_path):
    loader, path = edit(model_files, tmp_path, "multiclass", "classes=3\n", "")
    with pytest.raises(ValueError, match=malformed(path, "section 'glm'")):
        loader(path)


@pytest.mark.parametrize("kind, section", [("binary", "patterns"), ("stratified", "global_patterns")])
@pytest.mark.parametrize("bad_dim", ["-1", "9999"])
def test_condition_dims_outside_features_rejected(model_files, tmp_path, kind, section, bad_dim):
    kinds, _ = model_files
    loader, _, text, _ = kinds[kind]
    lines = text.split("\n")
    start = lines.index(f"[{section}]")
    i = next(j for j in range(start + 2, len(lines)) if not lines[j].startswith("#"))
    lines[i] = bad_dim + lines[i][lines[i].index(":"):]
    path = tmp_path / "dims.model"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=malformed(path, f"section '{section}'")):
        loader(path)


@pytest.mark.parametrize("kind, section", [("binary", "patterns"), ("stratified", "global_patterns"),
                                           ("stratified", "cluster_patterns")])
@pytest.mark.parametrize("op", ["lt", "ge"])
@pytest.mark.parametrize("bad", ["-inf", "inf", "nan"])
def test_non_finite_condition_thresholds_rejected(model_files, tmp_path, kind, section, op, bad):
    kinds, _ = model_files
    loader, _, text, _ = kinds[kind]
    lines = text.split("\n")
    start = lines.index(f"[{section}]")
    i = next(j for j in range(start + 2, len(lines))
             if not lines[j].startswith(("#", "cluster=")))
    token = lines[i].split()[0]
    bad_token = f"{token.split(':')[0]}:{op}:{bad}"
    lines[i] = lines[i].replace(token, bad_token, 1)
    path = tmp_path / "thresholds.model"
    path.write_text("\n".join(lines), encoding="utf-8")
    want = f"section '{section}'.*condition {re.escape(repr(bad_token))} has a non-finite threshold"
    with pytest.raises(ValueError, match=malformed(path, want)):
        loader(path)


def _line(model_files, kind, prefix):
    """The first line of a model file of ``kind`` that starts with ``prefix``."""
    return next(ln for ln in model_files[0][kind][2].split("\n") if ln.startswith(prefix))


# a non-finite weight or intercept once loaded, and prediction wrote nan with exit 0
@pytest.mark.parametrize("kind", ["binary", "multiclass", "stratified"])
@pytest.mark.parametrize("field", ["weights", "intercept"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_glm_values_rejected(model_files, tmp_path, kind, field, bad):
    line = _line(model_files, kind, field + " ")
    loader, path = edit(model_files, tmp_path, kind, line, " ".join([field, bad] + line.split()[2:]))
    want = f"section 'glm': {field} '.*' holds a non-finite value$"
    with pytest.raises(ValueError, match=malformed(path, want)):
        loader(path)


# a NaN median would be imputed into every missing cell of the served data
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_median_rejected(model_files, tmp_path, bad):
    line = _line(model_files, "binary", '{"categories": null, "kind": "numeric"')
    column = json.loads(line)
    loader, path = edit(model_files, tmp_path, "binary", line, line.replace(column["median"], bad))
    want = f"section 'schema': column {column['name']!r}: non-finite median {bad!r}"
    with pytest.raises(ValueError, match=malformed(path, f"{re.escape(want)}$")):
        loader(path)


@pytest.mark.parametrize("bounds, message", [
    ("nan 0x1.0p+0", "holds a non-finite value"),
    ("0x0.0p+0 inf", "holds a non-finite value"),
    ("-inf 0x1.0p+0", "holds a non-finite value"),
    ("0x1.0p+0 0x1.0p+0", "holds a lower bound not below its upper bound"),
    ("0x1.0p+1 0x1.0p+0", "holds a lower bound not below its upper bound"),
])
def test_label_bounds_must_be_finite_and_ordered(model_files, tmp_path, bounds, message):
    line = _line(model_files, "stratified", "bounds=")
    loader, path = edit(model_files, tmp_path, "stratified", line, f"bounds={bounds}")
    want = f"section 'label': bounds {re.escape(repr(bounds))} {message}$"
    with pytest.raises(ValueError, match=malformed(path, want)):
        loader(path)


@pytest.mark.parametrize("bad", ["0x0.0p+0", "-0x1.0p-4", "nan", "inf"])
def test_topic_weights_must_be_positive_and_finite(model_files, tmp_path, bad):
    kinds, _ = model_files
    loader, _, text, _ = kinds["stratified"]
    lines = text.split("\n")
    i = lines.index("[topics]") + 1
    lines[i] = " ".join([bad] + lines[i].split()[1:])
    path = tmp_path / "topics.model"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=malformed(path, "section 'topics'.*positive and finite")):
        loader(path)


def test_config_priors_must_be_positive(model_files, tmp_path):
    loader, path = edit(model_files, tmp_path, "stratified", '"lda_beta": 0.1', '"lda_beta": 0.0')
    with pytest.raises(ValueError, match=malformed(path, "section 'config'.*lda_beta must be positive")):
        loader(path)


def test_empty_rule_list_loads(model_files, tmp_path):
    kinds, _ = model_files
    m = load_from_text(kinds["binary"][2], tmp_path)
    empty = replace(m, patterns=[], glm=replace(m.glm, weights=np.zeros(0)))
    path = tmp_path / "empty.model"
    save(empty, path)
    assert "count=0" in path.read_text(encoding="utf-8")
    te = kinds["binary"][3]
    assert np.array_equal(predict(load(path), te), predict(empty, te))


def load_from_text(text, tmp_path):
    path = tmp_path / "from_text.model"
    path.write_text(text, encoding="utf-8")
    return load(path)



# --- golden model files -----------------------------------------------------
#
# sha256 of a saved model file, then of the bytes of its predictions on the
# test rows. They cover what the golden forest, pool, selection and
# clustering digests do not: the file codec, the refit and unified GLMs, the
# local rules and serving. Pinned before the stratified global bits moved to
# the compiled rule kernel; the file digests were re-pinned when [provenance]
# lost the split-search counts and, in stratified files, its copies of
# [config] settings.

def _golden_model(case):
    if case == "stratified":
        tr, te = generate_subtyped_regression(SynthConfig(n_train=500, n_test=200, seed=7), 3)
        m = train_stratified(
            minmax_normalize_labels(tr),
            HyperParams(tree=TreeConfig(n_trees=10, seed=3), k=8, task="regression"),
            StratifyConfig(n_global=8, n_local=4, n_clusters=3, gibbs_iterations=50, seed=5))
        return m, save_stratified, predict_stratified, te
    tr, te, _ = generate_medical(SynthConfig(n_train=500, n_test=200, noise_rate=0.001, seed=7))
    m = train(tr, HyperParams(tree=TreeConfig(n_trees=10, seed=3), k=8, method=case))
    return m, save, predict, te


GOLDEN_MODEL_FILES = {
    "forward": ("f191e60dc499a61c366b8103cb241b0f75a5f7b1c9a76df2bcec38dfc785e0fd",
                "57509ffe00e59e3a18b3df942db195963e21cc1d5c0e842dfac367aae375e9cb"),
    "lasso": ("0628355806761e938b1ba9cf987b7c64ab4a6a1320270549ea071dc86e87c530",
              "779a5f9a1e1021585c00c9d3f18178f363fd81e23a7d381c4e7e45975ab3948e"),
    "stratified": ("370f302bcc081b8fe360c56bb37064753f615419717122818de10b65d7e4f8ae",
                   "f41e652667ea4389f2a03a1a554ccbaa0440396297769f1cc43b612076c5d636"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_MODEL_FILES))
def test_golden_model_file(case, tmp_path):
    m, writer, predictor, te = _golden_model(case)
    path = tmp_path / f"{case}.model"
    writer(m, path)
    file_digest = hashlib.sha256(path.read_bytes()).hexdigest()
    preds_digest = hashlib.sha256(predictor(m, te).tobytes()).hexdigest()
    assert (file_digest, preds_digest) == GOLDEN_MODEL_FILES[case]


def test_stratified_provenance_repeats_no_config_setting(tmp_path):
    """[config] holds the stratification settings and [provenance] only how
    the global rules were trained, as in a plain model file. The one name in
    both is ``seed``: the tree seed there (3 here) and the LDA seed in
    [config] (5 here)."""
    m, *_ = _golden_model("stratified")
    path = tmp_path / "stratified.model"
    save_stratified(m, path)
    text = path.read_text(encoding="utf-8")
    head, rest = text.split("[provenance]\n", 1)[1].split("[config]\n", 1)
    provenance = dict(ln.split("=", 1) for ln in head.splitlines())
    config = json.loads(rest.splitlines()[0])
    assert set(provenance) == {"n_trees", "max_depth", "min_bag", "seed", "k", "method", "task"}
    assert set(config) & set(provenance) == {"seed"}
    assert (provenance["seed"], config["seed"]) == ("3", 5)
