import argparse
import builtins
import csv
import re
from unittest import mock

import pytest

from dppred import cli
from dppred import model as model_mod
from dppred import stratify as strat_mod
from dppred.cli import build_parser, main
from dppred.data import load_csv, read_schema_file
from dppred.model import HyperParams
from dppred.synth import N_SUBTYPES, SynthConfig, write_subtyped_csv
from dppred.tree import TreeConfig
from oracles import for_task


@pytest.fixture(scope="module")
def medical_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("medical")
    train, test, schema = root / "train.csv", root / "test.csv", root / "schema.csv"
    code = main(["synth", "--kind", "medical", "--n-train", "1200", "--n-test", "600",
                 "--noise", "0.001", "--seed", "5",
                 "--out-train", str(train), "--out-test", str(test),
                 "--out-schema", str(schema)])
    assert code == 0
    return {"train": train, "test": test, "schema": schema, "root": root}


@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    # the k-sweep shape needs enough data that test accuracy is not
    # dominated by small-sample noise
    root = tmp_path_factory.mktemp("sweep_data")
    train, test, schema = root / "train.csv", root / "test.csv", root / "schema.csv"
    code = main(["synth", "--kind", "medical", "--n-train", "2500", "--n-test", "1250",
                 "--noise", "0.001", "--seed", "5",
                 "--out-train", str(train), "--out-test", str(test),
                 "--out-schema", str(schema)])
    assert code == 0
    return {"train": train, "test": test, "schema": schema}


@pytest.fixture(scope="module")
def subtyped_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("subtyped")
    train, test, schema = root / "train.csv", root / "test.csv", root / "schema.csv"
    code = main(["synth", "--kind", "subtyped", "--groups", "3",
                 "--n-train", "1500", "--n-test", "600", "--seed", "6",
                 "--out-train", str(train), "--out-test", str(test),
                 "--out-schema", str(schema)])
    assert code == 0
    return {"train": train, "test": test, "schema": schema, "root": root}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def argparse_error(capsys):
    """The error line of a usage error that argparse reports: the last stderr
    line, after the command's usage."""
    err = capsys.readouterr().err
    assert err.startswith("usage: dppred ")
    return err.strip().splitlines()[-1]


class TestTrainCommand:
    def test_train_writes_model_with_default_k(self, medical_files, tmp_path, capsys):
        out = tmp_path / "m.model"
        code = main(["train", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]),
                     "--out", str(out), "--trees", "30", "--seed", "2"])
        assert code == 0
        text = out.read_text()
        assert text.startswith("dppred model format 1")
        assert text.count("\n# ") <= 20  # default k for classification
        printed = capsys.readouterr().out
        assert "train accuracy" in printed

    def test_missing_data_flag_is_usage_error(self):
        assert main(["train", "--schema", "s", "--out", "m"]) == 2

    def test_zero_k_is_usage_error(self, medical_files, tmp_path):
        code = main(["train", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]),
                     "--out", str(tmp_path / "m.model"), "--k", "0"])
        assert code == 2

    def test_missing_file_is_runtime_error(self, medical_files, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--schema", str(medical_files["schema"]),
                     "--out", str(tmp_path / "m.model")])
        assert code == 1

    def test_byte_identical_model_files(self, medical_files, tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        args = ["train", "--data", str(medical_files["train"]),
                "--schema", str(medical_files["schema"]),
                "--trees", "25", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_file(self, medical_files, tmp_path):
        out, trace = tmp_path / "m.model", tmp_path / "trace.csv"
        code = main(["train", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]),
                     "--out", str(out), "--trees", "25", "--seed", "3",
                     "--k", "8", "--trace", str(trace)])
        assert code == 0
        rows = read_csv(trace)
        assert rows[0] == ["round", "pattern_index", "metric"]
        assert len(rows) == 9


@pytest.mark.parametrize("command,flag", [
    *((command, flag) for command in ("train", "sweep", "stratify-train")
      for flag in ("--trees", "--depth", "--min-bag")),
    ("train", "--k"), ("sweep", "--k"), ("sweep", "--values")])
def test_zero_count_is_reported_before_any_file_is_read(command, flag, tmp_path, capsys):
    args = [command, "--data", str(tmp_path / "missing.csv"),
            "--schema", str(tmp_path / "missing_schema.csv"), "--out", str(tmp_path / "out")]
    if command == "sweep":
        args += ["--test", str(tmp_path / "missing_test.csv"), "--param", "k", "--values", "5"]
    assert main(args + [flag, "0"]) == 2
    rule = "a non-empty list of counts >= 1" if flag == "--values" else ">= 1"
    assert argparse_error(capsys) == f"dppred {command}: error: argument {flag}: must be {rule}"
    assert list(tmp_path.iterdir()) == []


# an in-range and an out-of-range value for each range-checking flag type
_RANGE_CASES = {cli._count: ("1", "0"), cli._non_negative: ("0", "-1"),
                cli._prior: ("1", "0"), cli._noise: ("0", "0.5"), cli._counts: ("1", "1,0")}


def _subcommands():
    """Each command's name and parser."""
    action, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _typed_flags():
    """(command, flag) for every option of every command that has a type."""
    return [(command, action.option_strings[0])
            for command, parser in sorted(_subcommands().items())
            for action in parser._actions if action.type is not None]


@pytest.mark.parametrize("command,flag", _typed_flags())
def test_every_typed_flag_is_range_checked_as_it_is_parsed(command, flag, tmp_path, monkeypatch,
                                                          capsys):
    # a flag typed plain int or float has no entry in _RANGE_CASES and fails here
    argv = [command]
    for action in _subcommands()[command]._actions:
        name = action.option_strings[0]
        if action.required:
            value = (_RANGE_CASES[action.type][0] if action.type is not None
                     else action.choices[0] if action.choices else str(tmp_path / name[2:]))
            argv += [name, value]
        if name == flag:
            bad = _RANGE_CASES[action.type][1]
    opened = []
    monkeypatch.setattr(builtins, "open", lambda *args, **kw: opened.append(args))
    assert main(argv + [flag, bad]) == 2
    # an alias reports the name of the command it stands for
    prog = _subcommands()[command].prog
    assert argparse_error(capsys).startswith(f"{prog}: error: argument {flag}: must be ")
    assert opened == []
    assert list(tmp_path.iterdir()) == []


def test_sweep_over_k_rejects_k_before_any_file_is_read(tmp_path, capsys):
    assert main(["sweep", "--data", str(tmp_path / "missing.csv"),
                 "--schema", str(tmp_path / "missing_schema.csv"),
                 "--test", str(tmp_path / "missing_test.csv"), "--out", str(tmp_path / "out"),
                 "--param", "k", "--values", "5", "--k", "3"]) == 2
    assert (capsys.readouterr().err.strip()
            == "error: --k cannot be used with --param k: --values sets k")


def test_default_k_is_the_library_default(subtyped_files, tmp_path):
    out = tmp_path / "m.model"
    assert main(["train", "--data", str(subtyped_files["train"]),
                 "--schema", str(subtyped_files["schema"]),
                 "--out", str(out), "--trees", "10", "--seed", "2"]) == 0
    assert model_mod.load(out).provenance["k"] == str(for_task("regression").k)


class TestPredictEvaluate:
    def test_predict_then_evaluate(self, medical_files, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert main(["train", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]),
                     "--out", str(model), "--trees", "30", "--seed", "2"]) == 0
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model),
                     "--data", str(medical_files["test"]), "--out", str(preds)]) == 0
        rows = read_csv(preds)
        assert rows[0] == ["row_index", "prediction", "probability"]
        assert len(rows) == 601
        assert rows[1][1] in ("yes", "no")

        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(preds),
                     "--data", str(medical_files["test"]),
                     "--schema", str(medical_files["schema"])]) == 0
        printed = capsys.readouterr().out
        acc = float(printed.split("accuracy:")[1].strip())
        assert acc >= 0.97

    def test_classification_predict_evaluates_the_rules_once(self, medical_files, tmp_path):
        model = tmp_path / "m.model"
        assert main(["train", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]),
                     "--out", str(model), "--trees", "5", "--seed", "2"]) == 0
        with mock.patch.object(model_mod, "rule_matrix", wraps=model_mod.rule_matrix) as rules:
            assert main(["predict", "--model", str(model), "--data", str(medical_files["test"]),
                         "--out", str(tmp_path / "preds.csv")]) == 0
        assert rules.call_count == 1

    def test_evaluate_reads_only_the_label_column(self, medical_files, tmp_path, capsys):
        # feature cells are never parsed: an all-empty categorical column and
        # a non-numeric age would both fail a full load of this file
        data = tmp_path / "two.csv"
        data.write_text("age,gender,blood_type,lab_score,disease\n"
                        "abc,,A,0.5,yes\n"
                        "40,,B,0.1,no\n")
        preds = tmp_path / "preds.csv"
        preds.write_text("row_index,prediction\n0,yes\n1,yes\n")
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(preds), "--data", str(data),
                     "--schema", str(medical_files["schema"])]) == 0
        assert capsys.readouterr().out == "accuracy: 0.500000\n"

    def test_evaluate_counts_a_class_the_file_lacks_as_a_miss(self, tmp_path, capsys):
        # a schema file lists no classes, so evaluate knows only the classes
        # of the file it reads; a valid prediction of another class is a miss
        train, test, schema = (tmp_path / f"{name}.csv" for name in ("train", "test", "schema"))
        assert main(["synth", "--kind", "medical", "--n-train", "50", "--n-test", "50",
                     "--seed", "1", "--out-train", str(train), "--out-test", str(test),
                     "--out-schema", str(schema)]) == 0
        header, *rows = test.read_text().splitlines()
        test.write_text("\n".join([header] + [r for r in rows if r.endswith(",no")][:2]) + "\n")
        preds = tmp_path / "preds.csv"
        for cells, out in [("yes,no", "accuracy: 0.500000\n"), ("maybe,no", "accuracy: 0.500000\n")]:
            first, second = cells.split(",")
            preds.write_text(f"row_index,prediction\n0,{first}\n1,{second}\n")
            capsys.readouterr()
            assert main(["evaluate", "--predictions", str(preds), "--data", str(test),
                         "--schema", str(schema)]) == 0
            assert capsys.readouterr().out == out
        preds.write_text("row_index,prediction\n0,no\n1,\n")  # an empty cell still fails
        assert main(["evaluate", "--predictions", str(preds), "--data", str(test),
                     "--schema", str(schema)]) == 1
        assert capsys.readouterr().err == f"error: {preds}, row 3: missing prediction ''\n"

    @pytest.mark.parametrize("files", ["medical_files", "subtyped_files"])
    def test_evaluate_header_only_data(self, files, request, tmp_path, capsys):
        # once a division by zero for classes and "rmse: nan" for real labels
        paths = request.getfixturevalue(files)
        data = tmp_path / "header.csv"
        data.write_text(paths["test"].read_text().split("\n")[0] + "\n")
        preds = tmp_path / "preds.csv"
        preds.write_text("row_index,prediction\n")
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(preds), "--data", str(data),
                     "--schema", str(paths["schema"])]) == 1
        assert capsys.readouterr().err.strip() == f"error: {data}: there are no rows to evaluate"

    def test_evaluate_regression_prints_the_library_rmse(self, subtyped_files, tmp_path, capsys):
        model, preds = tmp_path / "m.model", tmp_path / "preds.csv"
        assert main(["train", "--data", str(subtyped_files["train"]),
                     "--schema", str(subtyped_files["schema"]),
                     "--out", str(model), "--trees", "10", "--seed", "4", "--k", "8"]) == 0
        assert main(["predict", "--model", str(model),
                     "--data", str(subtyped_files["test"]), "--out", str(preds)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(preds), "--data", str(subtyped_files["test"]),
                     "--schema", str(subtyped_files["schema"])]) == 0
        m = model_mod.load(model)
        ds = load_csv(subtyped_files["test"], m.schema, m.label_kind)
        rmse = model_mod.evaluate(model_mod.predict(m, ds), ds.y, "regression")["rmse"]
        assert capsys.readouterr().out == f"rmse: {rmse:.6f}\n"

    def test_evaluate_names_both_counts_when_a_row_is_missing(self, subtyped_files, tmp_path,
                                                              capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(_prediction_lines("0.5", n_rows=599)) + "\n")
        assert main(["evaluate", "--predictions", str(preds), "--data", str(subtyped_files["test"]),
                     "--schema", str(subtyped_files["schema"])]) == 1
        assert (capsys.readouterr().err.strip()
                == f"error: {preds}: prediction count 599 does not match data rows 600")

    def test_regression_predictions_numeric(self, subtyped_files, tmp_path):
        model = tmp_path / "m.model"
        assert main(["train", "--data", str(subtyped_files["train"]),
                     "--schema", str(subtyped_files["schema"]),
                     "--out", str(model), "--trees", "30", "--seed", "4",
                     "--k", "15"]) == 0
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model),
                     "--data", str(subtyped_files["test"]), "--out", str(preds)]) == 0
        rows = read_csv(preds)
        assert rows[0] == ["row_index", "prediction"]
        float(rows[1][1])  # parses as a number


def _prediction_lines(cell, n_rows=600):
    return ["row_index,prediction"] + [f"{i},{cell}" for i in range(n_rows)]


def _blank_first_line(lines):
    return [""] + lines, 1


def _missing_cell(lines):
    lines[5] = "4"
    return lines, 6


def _bad_row_index(lines):
    lines[1] = "zero," + lines[1].split(",")[1]
    return lines, 2


def _unparsable(lines):
    lines[10] = "9,1.5x"
    return lines, 11


class TestEvaluateMalformedPredictions:
    # each case returns the faulty lines and the file row (1-based) at fault
    @pytest.mark.parametrize("data,cell,fault", [
        ("medical", "yes", _blank_first_line),
        ("medical", "yes", _missing_cell),
        ("medical", "yes", _bad_row_index),
        ("medical", "0.73", lambda lines: (lines, 2)),
        ("subtyped", "nan", lambda lines: (lines, 2)),
        ("subtyped", "0.5", _unparsable),
    ])
    def test_error_names_file_and_row(self, data, cell, fault, medical_files, subtyped_files,
                                      tmp_path, capsys):
        files = medical_files if data == "medical" else subtyped_files
        lines, row = fault(_prediction_lines(cell))
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(preds), "--data", str(files["test"]),
                     "--schema", str(files["schema"])]) == 1
        out, err = capsys.readouterr()
        assert re.match(rf"error: {re.escape(str(preds))}, row {row}\b", err)
        assert out == ""


class TestSynthCommand:
    def test_files_exist_and_parse(self, medical_files):
        rows = read_csv(medical_files["train"])
        assert rows[0] == ["age", "gender", "blood_type", "lab_score", "disease"]
        assert len(rows) == 1201

    def test_deterministic_output(self, tmp_path):
        args = lambda d: ["synth", "--n-train", "50", "--n-test", "20", "--seed", "3",
                          "--out-train", str(d / "tr.csv"), "--out-test", str(d / "te.csv"),
                          "--out-schema", str(d / "s.csv")]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        assert main(args(d1)) == 0
        assert main(args(d2)) == 0
        assert (d1 / "tr.csv").read_bytes() == (d2 / "tr.csv").read_bytes()

    def test_bad_noise_rate(self, tmp_path, capsys):
        assert main(["synth", "--noise", "0.7", "--n-train", "10", "--n-test", "5",
                     "--out-train", str(tmp_path / "a"), "--out-test", str(tmp_path / "b"),
                     "--out-schema", str(tmp_path / "c")]) == 2
        assert argparse_error(capsys) == "dppred synth: error: argument --noise: must be in [0, 0.5)"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("groups", ["0", "3"])
    def test_groups_with_medical_data_is_a_usage_error(self, groups, tmp_path, capsys):
        assert main(["synth", "--kind", "medical", "--groups", groups, "--n-train", "10",
                     "--n-test", "5", "--out-train", str(tmp_path / "a"),
                     "--out-test", str(tmp_path / "b"), "--out-schema", str(tmp_path / "c")]) == 2
        # a count below 1 fails its own check first, as it is parsed
        assert (capsys.readouterr().err.strip().splitlines()[-1]
                == ("dppred synth: error: argument --groups: must be >= 1" if groups == "0"
                    else "error: --groups applies to --kind subtyped only"))
        assert list(tmp_path.iterdir()) == []

    def test_default_groups_is_the_library_default(self, tmp_path):
        names = ("tr.csv", "te.csv", "s.csv")
        assert main(["synth", "--kind", "subtyped", "--n-train", "30", "--n-test", "10",
                     "--seed", "4", "--out-train", str(tmp_path / "tr.csv"),
                     "--out-test", str(tmp_path / "te.csv"),
                     "--out-schema", str(tmp_path / "s.csv")]) == 0
        lib = tmp_path / "lib"
        lib.mkdir()
        write_subtyped_csv(SynthConfig(n_train=30, n_test=10, seed=4), N_SUBTYPES,
                           *(lib / name for name in names))
        for name in names:
            assert (tmp_path / name).read_bytes() == (lib / name).read_bytes()
        header = read_csv(tmp_path / "tr.csv")[0]
        assert sum(col.startswith("marker_") for col in header) == N_SUBTYPES == 3


class TestSweepCommand:
    def test_k_sweep_metric_not_degrading(self, sweep_files, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--data", str(sweep_files["train"]),
                     "--schema", str(sweep_files["schema"]),
                     "--test", str(sweep_files["test"]),
                     "--param", "k", "--values", "1,5,20",
                     "--trees", "50", "--seed", "2", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["value", "train_metric", "test_metric"]
        assert len(rows) == 4
        test_metrics = {int(r[0]): float(r[2]) for r in rows[1:]}
        assert test_metrics[20] >= test_metrics[5]

    def test_tree_sweep_single_tree_is_no_better(self, sweep_files, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--data", str(sweep_files["train"]),
                     "--schema", str(sweep_files["schema"]),
                     "--test", str(sweep_files["test"]),
                     "--param", "trees", "--values", "1,100",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        metrics = {int(r[0]): float(r[2]) for r in rows[1:]}
        assert metrics[1] <= metrics[100]

    @pytest.mark.parametrize("param,values,method", [
        ("k", [1, 4, 9], "forward"),
        ("k", [2, 6], "lasso"),
        ("trees", [3, 1, 8], "forward"),
        # unsorted, repeated, and past the 87 distinct rules of this pool
        ("k", [5, 2, 5, 90], "forward"),
    ])
    def test_sweep_rows_equal_separate_training(self, param, values, method, medical_files,
                                                tmp_path, monkeypatch):
        grown, selected = [], []
        fit_forest = model_mod.fit_forest
        monkeypatch.setattr(model_mod, "fit_forest",
                            lambda ds, cfg: grown.append(cfg.n_trees) or fit_forest(ds, cfg))
        for name in ("forward_select", "lasso_select"):
            select = getattr(model_mod, name)
            monkeypatch.setattr(model_mod, name, lambda space, y, k, task, select=select:
                                selected.append(k) or select(space, y, k, task))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]),
                     "--test", str(medical_files["test"]), "--method", method,
                     "--param", param, "--values", ",".join(map(str, values)),
                     "--trees", "6", "--seed", "4", "--out", str(out)]) == 0
        # one forest for the whole sweep, the largest one, and one forward
        # selection for a k sweep: its first v rounds are the selection at v
        assert grown == [max(values) if param == "trees" else 6]
        assert selected == ([20] * len(values) if param == "trees" else
                            [max(values)] if method == "forward" else values)

        label_task, schema = read_schema_file(medical_files["schema"])
        train = load_csv(medical_files["train"], schema, label_task)
        test = load_csv(medical_files["test"], train.schema, label_task)
        want = [["value", "train_metric", "test_metric"]]
        for v in values:
            tree = TreeConfig(n_trees=v if param == "trees" else 6, seed=4)
            hp = HyperParams(tree=tree, k=v if param == "k" else 20, method=method)
            m = model_mod.train(train, hp)
            want.append([str(v)] + [repr(model_mod.evaluate(model_mod.predict(m, d), d.y,
                                                            "classification")["accuracy"])
                                    for d in (train, test)])
        assert read_csv(out) == want

    @pytest.mark.parametrize("flags", [[], ["--no-normalize-labels"]])
    def test_regression_sweep_rows_equal_train_then_predict(self, flags, subtyped_files,
                                                            tmp_path):
        common = ["--data", str(subtyped_files["train"]),
                  "--schema", str(subtyped_files["schema"]),
                  "--trees", "10", "--seed", "4", *flags]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *common, "--test", str(subtyped_files["test"]),
                     "--param", "k", "--values", "3,8", "--out", str(out)]) == 0

        # both files are scored against their labels as read, normalized or not
        label_task, schema = read_schema_file(subtyped_files["schema"])
        data = [load_csv(subtyped_files[name], schema, label_task) for name in ("train", "test")]
        want = [["value", "train_metric", "test_metric"]]
        for k in (3, 8):
            path = tmp_path / f"k{k}.model"
            assert main(["train", *common, "--k", str(k), "--out", str(path)]) == 0
            m = model_mod.load(path)
            want.append([str(k)] + [repr(model_mod.evaluate(model_mod.predict(m, d), d.y,
                                                            "regression")["rmse"])
                                    for d in data])
        assert read_csv(out) == want

    @pytest.mark.parametrize("param", ["k", "trees"])
    def test_zero_value_names_values(self, param, medical_files, tmp_path, capsys):
        assert main(["sweep", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]),
                     "--test", str(medical_files["test"]),
                     "--param", param, "--values", "0,5",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert (argparse_error(capsys) == "dppred sweep: error: argument --values: "
                                          "must be a non-empty list of counts >= 1")

    def test_header_only_test_file(self, medical_files, tmp_path, capsys):
        # once a nan test_metric, two numpy warnings and exit code 0
        test = tmp_path / "header.csv"
        test.write_text(medical_files["test"].read_text().split("\n")[0] + "\n")
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]), "--test", str(test),
                     "--param", "k", "--values", "2", "--trees", "5", "--seed", "2",
                     "--out", str(out)]) == 1
        assert "there are no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_values_usage_error(self, medical_files, tmp_path):
        assert main(["sweep", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]),
                     "--test", str(medical_files["test"]),
                     "--param", "k", "--values", ",",
                     "--out", str(tmp_path / "s.csv")]) == 2


class TestStratifyCommands:
    def test_stratify_train_predict_importance(self, subtyped_files, tmp_path):
        model = tmp_path / "strat.model"
        code = main(["stratify-train", "--data", str(subtyped_files["train"]),
                     "--schema", str(subtyped_files["schema"]),
                     "--out", str(model), "--trees", "40", "--seed", "3",
                     "--global-patterns", "12", "--local-patterns", "5",
                     "--groups", "3", "--gibbs-iterations", "120"])
        assert code == 0
        assert model.read_text().startswith("dppred stratified model format 1")

        preds = tmp_path / "preds.csv"
        assert main(["stratify-predict", "--model", str(model),
                     "--data", str(subtyped_files["test"]), "--out", str(preds)]) == 0
        assert len(read_csv(preds)) == 601

        imp = tmp_path / "importance.csv"
        assert main(["importance", "--model", str(model), "--out", str(imp)]) == 0
        rows = read_csv(imp)
        assert rows[0] == ["variable", "cluster", "frequency"]
        assert any(r[1] == "global" for r in rows[1:])

    def test_stratified_classification_writes_the_predicted_class_probability(
            self, medical_files, tmp_path):
        model, preds = tmp_path / "strat.model", tmp_path / "preds.csv"
        assert main(["stratify-train", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]), "--out", str(model),
                     "--trees", "10", "--seed", "3", "--global-patterns", "8",
                     "--local-patterns", "4", "--groups", "2", "--gibbs-iterations", "20"]) == 0
        assert main(["predict", "--model", str(model), "--data", str(medical_files["test"]),
                     "--out", str(preds)]) == 0
        header, *rows = read_csv(preds)
        assert header == ["row_index", "prediction", "probability"]
        m = strat_mod.load_stratified(model)
        ds = load_csv(medical_files["test"], m.schema, m.label_kind)
        probs = model_mod.predict_probabilities(m, ds)
        assert len(rows) == ds.n
        for (_, cell, prob), p in zip(rows, probs):
            assert cell == m.label_names[p.argmax()]
            assert prob == repr(float(p.max()))

    @pytest.mark.parametrize("flag", ["--global-patterns", "--local-patterns", "--groups",
                                      "--gibbs-iterations", "--fold-in-iterations"])
    def test_zero_count_names_its_flag(self, flag, subtyped_files, tmp_path, capsys):
        assert main(["stratify-train", "--data", str(subtyped_files["train"]),
                     "--schema", str(subtyped_files["schema"]),
                     "--out", str(tmp_path / "m"), flag, "0"]) == 2
        assert argparse_error(capsys) == f"dppred stratify-train: error: argument {flag}: must be >= 1"

    def test_zero_count_is_reported_before_the_data_is_read(self, tmp_path, capsys):
        assert main(["stratify-train", "--data", str(tmp_path / "missing.csv"),
                     "--schema", str(tmp_path / "missing_schema.csv"),
                     "--out", str(tmp_path / "m"), "--gibbs-iterations", "0"]) == 2
        assert (argparse_error(capsys)
                == "dppred stratify-train: error: argument --gibbs-iterations: must be >= 1")

    @pytest.mark.parametrize("flag", ["--lda-alpha", "--lda-beta"])
    def test_zero_prior_names_its_flag(self, flag, subtyped_files, tmp_path, capsys):
        assert main(["stratify-train", "--data", str(subtyped_files["train"]),
                     "--schema", str(subtyped_files["schema"]),
                     "--out", str(tmp_path / "m"), flag, "0"]) == 2
        assert (argparse_error(capsys)
                == f"dppred stratify-train: error: argument {flag}: must be positive and finite")
        assert not (tmp_path / "m").exists()

    def test_negative_seed_rejected(self, subtyped_files, tmp_path):
        assert main(["stratify-train", "--data", str(subtyped_files["train"]),
                     "--schema", str(subtyped_files["schema"]),
                     "--out", str(tmp_path / "m"), "--seed", "-1"]) == 2


@pytest.fixture(scope="module")
def both_model_kinds(subtyped_files):
    """A plain and a stratified model file trained on the subtyped fixture."""
    root = subtyped_files["root"]
    common = ["--data", str(subtyped_files["train"]), "--schema", str(subtyped_files["schema"]),
              "--trees", "5", "--seed", "1"]
    plain, strat = root / "plain.model", root / "strat.model"
    assert main(["train", "--out", str(plain)] + common) == 0
    assert main(["stratify-train", "--out", str(strat), "--gibbs-iterations", "10"] + common) == 0
    return {"plain": plain, "stratified": strat}


@pytest.mark.parametrize("command,kind", [("predict", "stratified"), ("stratify-predict", "plain")])
def test_either_predict_name_serves_either_model_kind(command, kind, both_model_kinds,
                                                      subtyped_files, tmp_path):
    outs = []
    for name in ("predict", "stratify-predict"):
        outs.append(tmp_path / f"{name}.csv")
        assert main([name, "--model", str(both_model_kinds[kind]),
                     "--data", str(subtyped_files["test"]), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert read_csv(outs[0])[0] == ["row_index", "prediction"]


def test_model_of_the_other_kind_is_named(both_model_kinds, tmp_path, capsys):
    path = both_model_kinds["plain"]
    out = tmp_path / "out.csv"
    assert main(["importance", "--model", str(path), "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"error: {path}: holds a plain model, not a stratified model\n")
    assert not out.exists()


def test_threads_flag_is_gone(medical_files, tmp_path):
    # the flag never changed the computation and was removed; argparse rejects it
    assert main(["train", "--data", str(medical_files["train"]),
                 "--schema", str(medical_files["schema"]),
                 "--out", str(tmp_path / "m.model"), "--threads", "2"]) == 2


def _copy_with_cell(src, dest, row, column, cell):
    """A copy of the CSV file ``src`` whose data row ``row`` (1-based) holds
    ``cell`` in ``column``."""
    header, *rows = src.read_text().splitlines()
    cells = rows[row - 1].split(",")
    cells[header.split(",").index(column)] = cell
    rows[row - 1] = ",".join(cells)
    dest.write_text("\n".join([header] + rows) + "\n")
    return dest


class TestLoadErrorsNameTheirFile:
    def test_predict_names_its_data_file(self, both_model_kinds, subtyped_files, tmp_path, capsys):
        data = _copy_with_cell(subtyped_files["test"], tmp_path / "bad.csv", 2, "signal_0", "xx")
        out = tmp_path / "preds.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(both_model_kinds["plain"]), "--data", str(data),
                     "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == f"error: {data}: row 2, column 'signal_0': cannot parse 'xx' as a number\n")
        assert not out.exists()

    def test_sweep_names_its_test_file(self, medical_files, tmp_path, capsys):
        test = _copy_with_cell(medical_files["test"], tmp_path / "m_test.csv", 2, "age", "xx")
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--data", str(medical_files["train"]),
                     "--schema", str(medical_files["schema"]), "--test", str(test),
                     "--param", "k", "--values", "2", "--trees", "5", "--seed", "2",
                     "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == f"error: {test}: row 2, column 'age': cannot parse 'xx' as a number\n")
        assert not out.exists()

    def test_evaluate_names_its_data_file(self, medical_files, tmp_path, capsys):
        data = _copy_with_cell(medical_files["test"], tmp_path / "labels.csv", 3, "disease", "")
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(_prediction_lines("yes")) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(preds), "--data", str(data),
                     "--schema", str(medical_files["schema"])]) == 1
        assert capsys.readouterr().err == f"error: {data}: row 3: missing label value\n"

    def test_predict_names_the_line_of_an_oversized_cell(self, both_model_kinds, subtyped_files,
                                                          tmp_path, capsys):
        limit = csv.field_size_limit()
        data = _copy_with_cell(subtyped_files["test"], tmp_path / "wide.csv", 3, "signal_0",
                               "1" * 200_000)
        out = tmp_path / "preds.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(both_model_kinds["plain"]), "--data", str(data),
                     "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == f"error: {data}: line 4: field larger than field limit ({limit})\n")
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["data", "plain model", "stratified model", "predictions"])
    def test_a_file_that_is_not_utf8_is_named(self, reader, medical_files, both_model_kinds,
                                              subtyped_files, tmp_path, capsys):
        # one Latin-1 byte; the text is decoded in chunks, so no line is claimed
        bad = tmp_path / "latin1.txt"
        if reader == "data":
            _copy_with_cell(medical_files["train"], bad, 2, "gender", "m\xe4le")
            bad.write_bytes(bad.read_text().encode("latin-1"))
            args = ["train", "--data", str(bad), "--schema", str(medical_files["schema"]),
                    "--out", str(tmp_path / "out")]
        elif reader == "predictions":
            bad.write_bytes(b"row_index,prediction\n0,m\xe4le\n")
            args = ["evaluate", "--predictions", str(bad), "--data", str(medical_files["test"]),
                    "--schema", str(medical_files["schema"])]
        else:
            kind = reader.split()[0]
            head, rest = both_model_kinds[kind].read_bytes().split(b"\n", 1)
            bad.write_bytes(head + b"\n# m\xe4le\n" + rest)
            args = ["predict" if kind == "plain" else "stratify-predict", "--model", str(bad),
                    "--data", str(subtyped_files["test"]), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(bad))}: 'utf-8' codec can't decode byte 0xe4 "
                            r"in position \d+: invalid continuation byte\n", err), err
        assert not (tmp_path / "out").exists()

    def test_train_names_its_schema_file(self, medical_files, tmp_path, capsys):
        schema = tmp_path / "schema.csv"
        lines = medical_files["schema"].read_text().splitlines()
        schema.write_text("\n".join(lines[:1] + ["age"] + lines[1:]) + "\n")
        out = tmp_path / "m.model"
        capsys.readouterr()
        assert main(["train", "--data", str(medical_files["train"]), "--schema", str(schema),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {schema}: schema line 2: expected 'name,kind'\n"
        assert not out.exists()
