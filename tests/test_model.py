import dataclasses
import re

import numpy as np
import pytest

from dppred.data import Dataset
from dppred.model import (
    DppredModel,
    HyperParams,
    ModelKindError,
    evaluate,
    load,
    predict,
    predict_one,
    render_model,
    save,
    train,
    train_sweep,
)
from dppred.patterns import Condition, Pattern
from dppred.selection import NoRulesError
from dppred.stratify import load_stratified
from dppred.synth import SynthConfig, generate_medical
from dppred.tree import TreeConfig
from oracles import refit_on_patterns


def small_medical(n_train=1500, n_test=700, seed=5):
    return generate_medical(SynthConfig(n_train=n_train, n_test=n_test,
                                        noise_rate=0.001, seed=seed))


def small_hp(method="forward", task="classification", seed=2, **tree_kw):
    defaults = dict(n_trees=30, seed=seed)
    defaults.update(tree_kw)
    k = 12 if task == "classification" else 15
    return HyperParams(tree=TreeConfig(**defaults), k=k, method=method, task=task)


class TestTrain:
    def test_recovers_most_of_the_signal(self):
        tr, te, _ = small_medical()
        m = train(tr, small_hp())
        acc = evaluate(predict(m, te), te.y, "classification")["accuracy"]
        assert acc >= 0.98

    def test_pure_labels_give_no_patterns(self):
        tr, _, _ = small_medical(n_train=200, n_test=10)
        pure = Dataset(x=tr.x, y=np.zeros(tr.n, dtype=np.int64),
                       feature_names=tr.feature_names, feature_sources=tr.feature_sources,
                       binary_dims=tr.binary_dims, label_kind="class",
                       label_names=["no", "yes"], schema=tr.schema)
        with pytest.raises(NoRulesError, match="no patterns generated"):
            train(pure, small_hp())

    def test_task_label_mismatch(self):
        tr, _, _ = small_medical(n_train=120, n_test=10)
        with pytest.raises(ValueError, match="labels"):
            train(tr, small_hp(task="regression"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["train", "train_sweep"])
    def test_non_finite_feature_is_named(self, value, entry):
        tr, _, _ = small_medical(n_train=600, n_test=10)
        x = tr.x.copy()
        x[9, 0] = x[5, 9] = value  # the first bad row is named, not the first bad column
        bad = dataclasses.replace(tr, x=x)
        want = f"row 5 holds the non-finite value {value} in feature {tr.feature_names[9]!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            if entry == "train":
                train(bad, small_hp())
            else:
                next(train_sweep(bad, small_hp(), "k", [3]))

    def test_deterministic_model_bytes(self, tmp_path):
        tr, _, _ = small_medical(n_train=600, n_test=10)
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save(train(tr, small_hp()), p1)
        save(train(tr, small_hp()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_size_contract(self):
        tr, _, _ = small_medical(n_train=800, n_test=10)
        hp = small_hp()
        m = train(tr, hp)
        assert len(m.patterns) <= hp.k
        assert all(p.m <= hp.tree.max_depth for p in m.patterns)

    def test_lasso_method(self):
        tr, te, _ = small_medical()
        m = train(tr, small_hp(method="lasso"))
        acc = evaluate(predict(m, te), te.y, "classification")["accuracy"]
        assert acc >= 0.97
        assert len(m.patterns) <= 12


class TestPredict:
    def test_constant_model(self):
        tr, _, _ = small_medical(n_train=100, n_test=10)
        always = Pattern((Condition(0, "ge", -1.0),))
        m = refit_on_patterns(tr, [always], "classification")
        preds = predict(m, tr)
        assert len(set(preds.tolist())) == 1

    def test_batch_equals_streaming_bitwise(self):
        tr, te, _ = small_medical(n_train=900, n_test=250)
        m = train(tr, small_hp())
        batch = predict(m, te)
        stream = np.array([predict_one(m, te.x[i]) for i in range(te.n)])
        assert np.array_equal(batch, stream)

    def test_order_preserving_length(self):
        tr, te, _ = small_medical(n_train=500, n_test=120)
        m = train(tr, small_hp())
        assert len(predict(m, te)) == te.n

    def test_schema_mismatch(self):
        tr, _, _ = small_medical(n_train=300, n_test=10)
        m = train(tr, small_hp())
        other = Dataset(x=np.zeros((2, 3)), y=np.zeros(2),
                        feature_names=["a", "b", "c"], feature_sources=["a", "b", "c"],
                        binary_dims=np.zeros(3, dtype=bool), label_kind="class",
                        label_names=["no", "yes"])
        with pytest.raises(ValueError, match="schema mismatch"):
            predict(m, other)

    @pytest.mark.parametrize("case", ["two-extra-values", "one-short", "one-row-matrix"])
    def test_predict_one_needs_one_row_of_every_feature(self, case):
        tr, _, _ = small_medical(n_train=100, n_test=10)
        m = refit_on_patterns(tr, [Pattern((Condition(0, "ge", 30.0),))], "classification")
        x = {"two-extra-values": np.append(tr.x[0], [1.0, 1.0]), "one-short": tr.x[0, :-1],
             "one-row-matrix": tr.x[:1]}[case]
        want = f"expected a vector of {tr.d} feature values, got an array of shape {x.shape}"
        with pytest.raises(ValueError, match=re.escape(want)):
            predict_one(m, x)

    def test_condition_budget_per_instance(self):
        # serving makes k x width tests per row, width being the longest rule's
        # length: k x width <= k * D
        tr, _, _ = small_medical(n_train=800, n_test=10)
        hp = small_hp()
        m = train(tr, hp)
        width = max(p.m for p in m.patterns)
        assert m.compiled.operands.shape == m.compiled.thresholds.shape[:2] == (m.k, width)
        assert m.k * width <= hp.k * hp.tree.max_depth


class TestEvaluate:
    def test_perfect_predictions(self):
        assert evaluate(np.array([1, 0, 1]), np.array([1, 0, 1]), "classification")["accuracy"] == 1.0
        assert evaluate(np.array([1.0, 2.0]), np.array([1.0, 2.0]), "regression")["rmse"] == 0.0

    def test_all_wrong_binary(self):
        res = evaluate(np.array([1, 0]), np.array([0, 1]), "classification")
        assert res["accuracy"] == 0.0

    def test_rmse_hand_value(self):
        # residuals (0.3, -0.4): sqrt((0.09 + 0.16) / 2) = 0.35355...
        res = evaluate(np.array([1.3, 0.6]), np.array([1.0, 1.0]), "regression")
        assert abs(res["rmse"] - 0.3535533905932738) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            evaluate(np.zeros(3), np.zeros(4), "classification")

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_no_rows(self, task):
        # once a NaN accuracy or RMSE, with numpy's empty-mean warnings
        with pytest.raises(ValueError, match="no rows"):
            evaluate(np.zeros(0), np.zeros(0), task)


class TestPersistence:
    def test_round_trip_predictions_bitwise(self, tmp_path):
        tr, te, _ = small_medical(n_train=800, n_test=200)
        m = train(tr, small_hp())
        path = tmp_path / "m.model"
        save(m, path)
        m2 = load(path)
        assert np.array_equal(predict(m, te), predict(m2, te))

    def test_round_trip_regression_bitwise(self, tmp_path):
        from dppred.synth import generate_subtyped_regression
        from dppred.data import minmax_normalize_labels
        tr, te = generate_subtyped_regression(
            SynthConfig(n_train=900, n_test=200, seed=3), 2)
        tr = minmax_normalize_labels(tr)
        m = train(tr, small_hp(task="regression"))
        path = tmp_path / "m.model"
        save(m, path)
        m2 = load(path)
        assert np.array_equal(predict(m, te), predict(m2, te))

    def test_truncated_file_names_section(self, tmp_path):
        tr, _, _ = small_medical(n_train=300, n_test=10)
        m = train(tr, small_hp())
        path = tmp_path / "m.model"
        save(m, path)
        text = path.read_text()
        cut = text[: text.index("[glm]")]
        bad = tmp_path / "trunc.model"
        bad.write_text(cut)
        with pytest.raises(ValueError, match="truncated"):
            load(bad)

    def test_newer_version_rejected(self, tmp_path):
        tr, _, _ = small_medical(n_train=300, n_test=10)
        m = train(tr, small_hp())
        path = tmp_path / "m.model"
        save(m, path)
        text = path.read_text().replace("dppred model format 1", "dppred model format 2", 1)
        bad = tmp_path / "v2.model"
        bad.write_text(text)
        with pytest.raises(ValueError, match="version 2"):
            load(bad)

    def test_not_a_model_file(self, tmp_path):
        bad = tmp_path / "junk.model"
        bad.write_text("hello world\n")
        with pytest.raises(ValueError, match="not a recognized"):
            load(bad)

    @pytest.mark.parametrize("header,reader,message", [
        ("dppred stratified model format 1", load, "a stratified model, not a plain model"),
        ("dppred model format 1", load_stratified, "a plain model, not a stratified model"),
    ])
    def test_model_of_the_other_kind_names_the_file_and_kind(self, header, reader, message,
                                                             tmp_path):
        path = tmp_path / "other.model"
        path.write_text(f"{header}\n[end]\n")
        with pytest.raises(ModelKindError) as err:
            reader(path)
        assert str(err.value) == f"{path} holds {message}"

    def test_render_lists_every_pattern(self):
        tr, _, _ = small_medical(n_train=400, n_test=10)
        m = train(tr, small_hp())
        text = render_model(m)
        assert text.count("::") == len(m.patterns)


class TestGeneralizationGap:
    def test_train_test_accuracy_close(self):
        tr, te, _ = small_medical(n_train=4000, n_test=2000, seed=9)
        m = train(tr, small_hp(n_trees=60, seed=4))
        acc_tr = evaluate(predict(m, tr), tr.y, "classification")["accuracy"]
        acc_te = evaluate(predict(m, te), te.y, "classification")["accuracy"]
        assert abs(acc_tr - acc_te) <= 0.01
