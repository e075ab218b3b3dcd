"""Command-line surface: train, predict, evaluate, synth, stratify, sweep.

Exit codes: 0 success, 2 usage error, 1 runtime failure. Every numeric
flag is range-checked as it is parsed: a value out of range exits 2 with an
error naming the flag, before any file is read or written. All randomness
flows from --seed, so identical invocations produce byte-identical output
files.
"""

import argparse
import csv
import math
import sys

import numpy as np

from . import model as model_mod
from . import stratify as strat_mod
from .data import (
    LABEL_CLASS,
    MISSING_TOKENS,
    _parse_number,
    decode_errors_name,
    load_csv,
    load_labels,
    minmax_normalize_labels,
    read_schema_file,
)
from .model import METHODS, HyperParams, TASK_CLASSIFICATION, TASK_REGRESSION, default_k
from .stratify import StratifyConfig
from .synth import N_SUBTYPES, SynthConfig, write_medical_csv, write_subtyped_csv
from .tree import TreeConfig


class UsageError(Exception):
    """A rule that ties two flags together; a single flag is checked by its type."""


def _ranged(parse, holds, rule, name=None):
    """An argparse type: ``parse`` the text, then reject a value that fails
    ``holds``, so argparse exits 2 with "argument --trees: must be >= 1"."""
    def convert(text):
        value = parse(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}")
        return value
    convert.__name__ = name or parse.__name__
    return convert


# the config classes check the same bounds for library callers
_count = _ranged(int, lambda v: v >= 1, ">= 1")
_non_negative = _ranged(int, lambda v: v >= 0, ">= 0")
_prior = _ranged(float, lambda v: 0 < v < math.inf, "positive and finite")
_noise = _ranged(float, lambda v: 0 <= v < 0.5, "in [0, 0.5)")
_counts = _ranged(lambda text: [int(v) for v in text.split(",") if v.strip()],
                  lambda vs: vs and min(vs) >= 1, "a non-empty list of counts >= 1",
                  name="int list")


def _add_common(p):
    p.add_argument("--seed", type=_non_negative, default=0)


def _add_tree_flags(p):
    p.add_argument("--trees", type=_count, default=TreeConfig.n_trees)
    p.add_argument("--depth", type=_count, default=TreeConfig.max_depth)
    p.add_argument("--min-bag", type=_count, default=TreeConfig.min_bag)
    p.add_argument("--method", choices=METHODS, default=HyperParams.method)
    p.add_argument("--no-normalize-labels", action="store_true",
                   help="keep regression labels on their original scale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppred",
        description="Train and serve concise threshold-rule models mined from random tree ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from CSV data")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_count, default=None)
    p.add_argument("--trace", default=None, help="write the selection trace CSV here")
    _add_tree_flags(p)
    _add_common(p)

    p = sub.add_parser("predict", help="predict with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("evaluate", help="score a prediction file against labeled data")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    _add_common(p)

    p = sub.add_parser("synth", help="generate synthetic benchmark data")
    p.add_argument("--kind", choices=["medical", "subtyped"], default="medical")
    p.add_argument("--n-train", type=_count, default=SynthConfig.n_train)
    p.add_argument("--n-test", type=_non_negative, default=SynthConfig.n_test)
    p.add_argument("--noise", type=_noise, default=SynthConfig.noise_rate)
    p.add_argument("--groups", type=_count, default=None,
                   help=f"subtypes of --kind subtyped data (default: {N_SUBTYPES})")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--out-schema", required=True)
    _add_common(p)

    p = sub.add_parser("stratify-train", help="train the cluster-stratified model")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--global-patterns", type=_count, default=StratifyConfig.n_global)
    p.add_argument("--local-patterns", type=_count, default=StratifyConfig.n_local)
    p.add_argument("--groups", type=_count, default=StratifyConfig.n_clusters)
    p.add_argument("--lda-alpha", type=_prior, default=StratifyConfig.lda_alpha,
                   help="Dirichlet prior on each row's topic mix in LDA training and the "
                        "fold-in (default: 1 / --groups)")
    p.add_argument("--lda-beta", type=_prior, default=StratifyConfig.lda_beta,
                   help="Dirichlet prior on each topic's rule distribution (default: %(default)s)")
    p.add_argument("--gibbs-iterations", type=_count, default=StratifyConfig.gibbs_iterations,
                   help="collapsed Gibbs sweeps that fit the topics; the second half is "
                        "averaged (default: %(default)s)")
    p.add_argument("--fold-in-iterations", type=_count, default=StratifyConfig.fold_in_iterations,
                   help="steps of the deterministic EM fold-in that assigns each training and "
                        "predicted row to a cluster: a row gets the same cluster alone or in any "
                        "batch, and a row satisfying no global rule goes to cluster 0 "
                        "(default: %(default)s)")
    _add_tree_flags(p)
    _add_common(p)

    p = sub.add_parser("stratify-predict", help="predict with a stratified model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("importance", help="per-variable rule frequency report")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("sweep", help="train across a parameter grid and report metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--param", choices=["k", "trees"], required=True)
    p.add_argument("--values", type=_counts, required=True, help="comma-separated integers")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_count, default=None)
    _add_tree_flags(p)
    _add_common(p)

    return parser


def _resolve_task(label_task):
    """The training task that the schema's label kind fixes."""
    return TASK_CLASSIFICATION if label_task == LABEL_CLASS else TASK_REGRESSION


def _load_training_data(args):
    """The training set (real labels rescaled unless --no-normalize-labels),
    its task, and its labels as read from the file, which predictions are
    scored against."""
    label_task, schema = read_schema_file(args.schema)
    task = _resolve_task(label_task)
    ds = load_csv(args.data, schema, label_task)
    labels = ds.y
    if task == TASK_REGRESSION and not args.no_normalize_labels:
        ds = minmax_normalize_labels(ds)
    return ds, task, labels


def _hyperparams(args, task, k=None):
    if k is None:
        k = args.k if args.k is not None else default_k(task)
    tree = TreeConfig(n_trees=args.trees, max_depth=args.depth,
                      min_bag=args.min_bag, seed=args.seed)
    return HyperParams(tree=tree, k=k, method=args.method, task=task)


def _print_train_metric(preds, labels, task):
    if task == TASK_CLASSIFICATION:
        print(f"train accuracy: {model_mod.evaluate(preds, labels, task)['accuracy']:.6f}")
    else:
        print(f"train RMSE: {model_mod.evaluate(preds, labels, task)['rmse']:.6f}")


def cmd_train(args) -> int:
    ds, task, labels = _load_training_data(args)
    hp = _hyperparams(args, task)
    m = model_mod.train(ds, hp)
    model_mod.save(m, args.out)
    if args.trace and m.selection is not None:
        m.selection.write_trace_csv(args.trace)
    print(model_mod.render_model(m))
    _print_train_metric(model_mod.predict(m, ds), labels, task)
    print(f"model written to {args.out}")
    return 0


def _write_predictions(path, m, preds, probs=None):
    """``row_index,prediction[,probability]``: class names, or reals in repr form."""
    if m.task == TASK_CLASSIFICATION:
        cells = [m.label_names[p] if m.label_names else str(p) for p in preds]
    else:
        cells = [repr(float(p)) for p in preds]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_index", "prediction"] + ([] if probs is None else ["probability"]))
        for i, cell in enumerate(cells):
            writer.writerow([i, cell] + ([] if probs is None else [repr(float(probs[i]))]))
    print(f"wrote {len(preds)} predictions to {path}")


def _load(loader, path, other_readers: str):
    """The model ``loader`` reads from ``path``; a model of the other kind
    names the commands that read it."""
    try:
        return loader(path)
    except model_mod.ModelKindError as exc:
        raise ValueError(f"{exc}; read it with {other_readers}") from None


def cmd_predict(args) -> int:
    m = _load(model_mod.load, args.model, "dppred stratify-predict or importance")
    ds = load_csv(args.data, m.schema, m.label_kind, allow_missing_labels=True)
    preds = model_mod.predict(m, ds)
    top = None
    if m.task == TASK_CLASSIFICATION:
        top = model_mod.predict_probabilities(m, ds)[np.arange(len(preds)), preds]
    _write_predictions(args.out, m, preds, top)
    return 0


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_predictions(path, classes: list[str] | None) -> list:
    """Prediction cells of a ``row_index,prediction[,probability]`` file: class
    names when ``classes`` (the class labels of the evaluated data) is given,
    or numbers when it is None. A class name the data lacks is kept: it can
    only be a miss, since a schema file lists no classes and a file need not
    hold every class. A malformed row, a missing cell, or a number against
    class labels that are names raises a ValueError naming the row."""
    cells = []
    names_only = classes is not None and not any(map(_is_number, classes))
    with decode_errors_name(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:2] != ["row_index", "prediction"]:
            raise ValueError(f"{path}, row 1: expected the header row_index,prediction")
        for row in reader:
            where = f"{path}, row {reader.line_num}"
            if len(row) < 2:
                raise ValueError(f"{where}: expected row_index and prediction cells")
            if row[0] != str(len(cells)):
                raise ValueError(f"{where}: row_index {row[0]!r}, expected {len(cells)}")
            if classes is None:
                try:
                    cells.append(_parse_number(row[1], reader.line_num, "prediction"))
                except ValueError as err:
                    raise ValueError(f"{path}, {err}") from None
            elif row[1] in MISSING_TOKENS:
                raise ValueError(f"{where}: missing prediction {row[1]!r}")
            elif names_only and _is_number(row[1]):
                raise ValueError(f"{where}: prediction {row[1]!r} is a number, "
                                 "but the class labels of the data are names")
            else:
                cells.append(row[1])
    return cells


def cmd_evaluate(args) -> int:
    label_task, schema = read_schema_file(args.schema)
    ds = load_labels(args.data, schema, label_task)
    if ds.n == 0:
        raise ValueError(f"{args.data}: there are no rows to evaluate")
    pred_cells = _read_predictions(args.predictions, ds.label_names)
    if len(pred_cells) != ds.n:
        raise ValueError(f"{args.predictions}: prediction count {len(pred_cells)} "
                         f"does not match data rows {ds.n}")

    if label_task == LABEL_CLASS:
        truth = [ds.label_names[int(v)] for v in ds.y]
        hits = sum(p == t for p, t in zip(pred_cells, truth))
        print(f"accuracy: {hits / ds.n:.6f}")
    else:
        res = model_mod.evaluate(np.array(pred_cells), ds.y, TASK_REGRESSION)
        print(f"rmse: {res['rmse']:.6f}")
    return 0


def cmd_synth(args) -> int:
    if args.kind == "medical" and args.groups is not None:
        raise UsageError("--groups applies to --kind subtyped only")
    cfg = SynthConfig(n_train=args.n_train, n_test=args.n_test,
                      noise_rate=args.noise, seed=args.seed)
    if args.kind == "medical":
        write_medical_csv(cfg, args.out_train, args.out_test, args.out_schema)
    else:
        groups = N_SUBTYPES if args.groups is None else args.groups
        write_subtyped_csv(cfg, groups, args.out_train, args.out_test, args.out_schema)
    print(f"wrote {args.out_train}, {args.out_test}, {args.out_schema}")
    return 0


def cmd_stratify_train(args) -> int:
    ds, task, labels = _load_training_data(args)
    hp = _hyperparams(args, task, k=args.global_patterns)
    cfg = StratifyConfig(
        n_global=args.global_patterns, n_local=args.local_patterns,
        n_clusters=args.groups, lda_alpha=args.lda_alpha, lda_beta=args.lda_beta,
        gibbs_iterations=args.gibbs_iterations,
        fold_in_iterations=args.fold_in_iterations, seed=args.seed)
    m = strat_mod.train_stratified(ds, hp, cfg)
    strat_mod.save_stratified(m, args.out)
    print(f"global rules: {len(m.global_patterns)}")
    # training assigned its rows by this fold-in, which also fills the bag
    # memory that the train-metric prediction below then serves from
    sizes = np.bincount(strat_mod.assign_clusters(m, ds), minlength=len(m.cluster_patterns))
    for c, rules in enumerate(m.cluster_patterns):
        print(f"cluster {c}: {sizes[c]} instances, {len(rules)} local rules")
    _print_train_metric(strat_mod.predict_stratified(m, ds), labels, task)
    print(f"model written to {args.out}")
    return 0


def cmd_stratify_predict(args) -> int:
    m = _load(strat_mod.load_stratified, args.model, "dppred predict")
    ds = load_csv(args.data, m.schema, m.label_kind, allow_missing_labels=True)
    _write_predictions(args.out, m, strat_mod.predict_stratified(m, ds))
    return 0


def cmd_importance(args) -> int:
    m = _load(strat_mod.load_stratified, args.model, "dppred predict")
    strat_mod.write_importance_csv(m, args.out)
    print(f"wrote importance report to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    if args.param == "k" and args.k is not None:
        raise UsageError("--k cannot be used with --param k: --values sets k")

    train_ds, task, train_labels = _load_training_data(args)
    test_ds = load_csv(args.test, train_ds.schema, train_ds.label_kind)
    hp = _hyperparams(args, task, k=min(args.values) if args.param == "k" else None)

    key = "accuracy" if task == TASK_CLASSIFICATION else "rmse"
    rows = [(v, *(model_mod.evaluate(model_mod.predict(m, d), labels, task)[key]
                  for d, labels in ((train_ds, train_labels), (test_ds, test_ds.y))))
            for v, m in model_mod.train_sweep(train_ds, hp, args.param, args.values)]

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "train_metric", "test_metric"])
        for v, tr, te in rows:
            writer.writerow([v, repr(float(tr)), repr(float(te))])
    print(f"wrote sweep results to {args.out}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "synth": cmd_synth,
    "stratify-train": cmd_stratify_train,
    "stratify-predict": cmd_stratify_predict,
    "importance": cmd_importance,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
