"""The benchmark's workloads and the jobs a dppred user runs on them.

Each job mirrors the CLI command a user would run (``dppred train``,
``stratify-train``, ``predict``, ``stratify-predict``), done in process
through the public functions of dppred. dppred only ever sees the CSV
files that the synth writers produce from the workload seed.

Why these three workloads: each makes a different layer dominate training.

- ``medical-forward``: the paper's diagnosis data with greedy forward
  selection; forward logistic scoring is most of the training time and the
  lasso code never runs.
- ``medical-lasso``: the same generator with L1 selection; the lasso search
  is most of the training time and forward scoring never runs.
- ``subtyped-stratify``: subtyped regression through the stratified
  pipeline; it grows four forests, so trees dominate training, it is the
  only user of least-squares selection, the linear GLM and LDA, and its
  serving cost is fold-in rather than rule evaluation.

Training sets have 1000 rows, not the paper's 20k, so that every run
trains on several datasets and averages over them.
"""

import hashlib
from dataclasses import dataclass, field

from dppred import data, model, patterns, stratify, synth
from dppred.tree import TreeConfig


@dataclass(frozen=True)
class Size:
    n_train: int
    n_test: int
    train_jobs: int          # datasets per run; each is written, trained on and served
    # quality bounds on the run's median model: 1 - accuracy or RMSE in label
    # units, and ground-truth rules recovered
    max_test_error: float
    min_rules_recovered: int = 0
    # single-row requests cycle over this many test rows of each model (0: all);
    # every one of them is asked in each run, and a stratified request takes
    # about 10 ms
    stream_rows: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "medical" or "subtyped"
    method: str
    k: int
    sizes: dict = field(default_factory=dict)
    noise: float = 0.001
    groups: int = 3
    local_patterns: int = 10

    @property
    def task(self):
        return "classification" if self.kind == "medical" else "regression"

    @property
    def stratified(self):
        return self.kind == "subtyped"


# Training time varies up to twofold between datasets of one size (the
# pool of rules and the solvers' convergence differ), so every run trains on
# as many datasets as fit in a 30-second run and averages their training
# times; on a shared 2-vCPU x86-64 virtual machine, the quartile spread of
# train_s over ten seeds was 0.33 of its median with four 2000-row datasets
# per run and 0.11-0.18 with eight of 1000 rows. Training rows stay at or below
# 2048, the group count above which forward scoring switches to a smaller
# Newton budget, so that runs do not straddle the two regimes.
WORKLOADS = {w.name: w for w in [
    Workload("medical-forward", "medical", "forward", k=20, sizes={
        "full": Size(1000, 5000, 8, max_test_error=0.02, min_rules_recovered=1),
        "tiny": Size(600, 300, 2, max_test_error=0.1),
    }),
    Workload("medical-lasso", "medical", "lasso", k=20, sizes={
        "full": Size(1000, 5000, 6, max_test_error=0.06, min_rules_recovered=1),
        "tiny": Size(400, 300, 2, max_test_error=0.1),
    }),
    Workload("subtyped-stratify", "subtyped", "forward", k=30, sizes={
        "full": Size(1000, 2500, 4, max_test_error=0.6, stream_rows=250),
        "tiny": Size(500, 100, 2, max_test_error=1.5),
    }),
]}


def data_seed(seed, index):
    """Seed of the index-th dataset of a run; a run trains on several."""
    return seed * 1000 + index


@dataclass
class Files:
    train: str
    test: str
    schema: str
    model: str

    @classmethod
    def under(cls, directory, prefix):
        return cls(*(str(directory / f"{prefix}.{name}")
                     for name in ("train.csv", "test.csv", "schema.csv", "model.txt")))


def write_inputs(w, size, seed, files):
    """The set-up step: generate one dataset's CSV files with the synth writers."""
    cfg = synth.SynthConfig(n_train=size.n_train, n_test=size.n_test, noise_rate=w.noise, seed=seed)
    if w.kind == "medical":
        synth.write_medical_csv(cfg, files.train, files.test, files.schema)
    else:
        synth.write_subtyped_csv(cfg, w.groups, files.train, files.test, files.schema)


def hyperparams(w, seed):
    return model.HyperParams(tree=TreeConfig(seed=seed), k=w.k, method=w.method, task=w.task)


def stratify_config(w, seed):
    return stratify.StratifyConfig(n_global=w.k, n_local=w.local_patterns,
                                   n_clusters=w.groups, seed=seed)


def train_job(w, files, seed):
    """One training job as ``dppred train`` / ``stratify-train`` does it."""
    label_task, schema = data.read_schema_file(files.schema)
    ds = data.load_csv(files.train, schema, label_task)
    if w.task == "regression":
        ds = data.minmax_normalize_labels(ds)
    if w.stratified:
        m = stratify.train_stratified(ds, hyperparams(w, seed), stratify_config(w, seed))
        stratify.save_stratified(m, files.model)
    else:
        m = model.train(ds, hyperparams(w, seed))
        model.save(m, files.model)
    return m


def load_test(m, path):
    return data.load_csv(path, m.schema, m.label_kind, allow_missing_labels=True)


def predict_batch(w, m, ds):
    """Predictions (and class probabilities) for every row of ``ds``."""
    if w.stratified:
        return stratify.predict_stratified(m, ds), None
    preds = model.predict(m, ds)
    probs = model.predict_probabilities(m, ds) if w.task == "classification" else None
    return preds, probs


def load_model(w, path):
    return stratify.load_stratified(path) if w.stratified else model.load(path)


def batch_job(w, files):
    """One batch job as ``dppred predict`` / ``stratify-predict`` does it."""
    m = load_model(w, files.model)
    ds = load_test(m, files.test)
    preds, probs = predict_batch(w, m, ds)
    return preds, probs, ds.n


def predict_row(w, m, ds, i):
    """Single-row serving: ``predict_one``, or a one-row stratified batch."""
    if w.stratified:
        return stratify.predict_stratified(m, data.subset(ds, [i]))[0]
    return model.predict_one(m, ds.x[i])


def test_error(w, preds, ds):
    """1 - accuracy for classification; RMSE on the original label scale for regression."""
    result = model.evaluate(preds, ds.y, w.task)
    return 1.0 - result["accuracy"] if w.task == "classification" else result["rmse"]


def _truth_rules(feature_names):
    """The generating rules over ``feature_names``.

    ``synth.medical_ground_truth`` indexes the generator's own encoding; a
    CSV load learns the categories in another order, so map by name.
    """
    synth_names = data.encoded_feature_names(synth.medical_schema())[0]
    dims = [feature_names.index(name) for name in synth_names]
    return [patterns.Pattern(tuple(patterns.Condition(dims[c.dim], c.op, c.threshold)
                                   for c in rule.conditions))
            for rule in synth.medical_ground_truth()]


def rules_recovered(m, ds):
    """Ground-truth rules matched by a selected rule (test-set Jaccard >= 0.9)."""
    truth = patterns.pattern_matrix(ds.x, _truth_rules(list(ds.feature_names))).astype(bool)
    chosen = patterns.pattern_matrix(ds.x, m.patterns).astype(bool)
    found = 0
    for t in truth.T:
        inter = (chosen & t[:, None]).sum(axis=0)
        union = (chosen | t[:, None]).sum(axis=0)
        jaccard = inter / union.clip(min=1)
        found += bool((jaccard >= 0.9).any())
    return found


def cli_commands(w, size, seed, out):
    """The README quickstart commands for this workload, at its sizes."""
    common = ["--seed", str(seed)]
    synth_cmd = ["synth", "--kind", w.kind, "--n-train", str(size.n_train),
                 "--n-test", str(size.n_test), "--noise", str(w.noise),
                 "--out-train", out.train, "--out-test", out.test, "--out-schema", out.schema]
    if w.stratified:
        return [
            ("synth", synth_cmd + ["--groups", str(w.groups)] + common),
            ("stratify-train", ["stratify-train", "--data", out.train, "--schema", out.schema,
                                "--out", out.model, "--global-patterns", str(w.k),
                                "--local-patterns", str(w.local_patterns),
                                "--groups", str(w.groups)] + common),
            ("stratify-predict", ["stratify-predict", "--model", out.model, "--data", out.test,
                                  "--out", out.model + ".preds.csv"] + common),
            ("importance", ["importance", "--model", out.model,
                            "--out", out.model + ".importance.csv"] + common),
        ]
    preds = out.model + ".preds.csv"
    return [
        ("synth", synth_cmd + common),
        ("train", ["train", "--data", out.train, "--schema", out.schema, "--out", out.model,
                   "--method", w.method, "--k", str(w.k)] + common),
        ("predict", ["predict", "--model", out.model, "--data", out.test, "--out", preds] + common),
        ("evaluate", ["evaluate", "--predictions", preds, "--data", out.test,
                      "--schema", out.schema] + common),
        # one value: the sweep trains once per value, and its cost over the
        # train job is the CLI overhead of interest
        ("sweep", ["sweep", "--data", out.train, "--schema", out.schema, "--test", out.test,
                   "--param", "k", "--values", str(w.k), "--method", w.method,
                   "--out", out.model + ".sweep.csv"] + common),
    ]


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
