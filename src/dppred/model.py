"""End-to-end training, prediction, evaluation and model persistence.

A trained model is the selected rule list plus the GLM fitted over it,
bundled with the fitted column schema so new CSV files encode identically.
Serving has one path: the rule list is compiled once per model, a batch is
evaluated against it in a few array operations and scored by the GLM
kernel; a single row is the batch of one, so both give the same bits.

The on-disk format is versioned, human-readable text: rendered rules next
to machine-exact hex thresholds and weights, so the model file doubles as
the report and round-trips predictions bit for bit. The section codecs
here (provenance, schema and label, rule blocks, GLM) also write and read
the stratified model files.
"""

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import (
    LABEL_CLASS,
    LABEL_REAL,
    ColumnSchema,
    Dataset,
    check_finite_features,
    decode_errors_name,
    denormalize_labels,
    encoded_feature_names,
)
from .glm import TASK_LINEAR, TASK_LOGISTIC, GlmModel, predict_glm, predict_proba
from .patterns import (
    CompiledRules,
    Condition,
    Pattern,
    RulePool,
    compile_rules,
    construct_pattern_space,
    extract_patterns,
    render_pattern,
    rule_matrix,
)
from .selection import NoRulesError, SelectionResult, forward_select, lasso_select
from .tree import TreeConfig, fit_forest

TASK_CLASSIFICATION = "classification"
TASK_REGRESSION = "regression"

METHOD_FORWARD = "forward"
METHOD_LASSO = "lasso"
METHODS = (METHOD_FORWARD, METHOD_LASSO)

FORMAT_VERSION = 1
_HEADER = "dppred model format"
_STRAT_HEADER = "dppred stratified model format"
_MODEL_KINDS = {_HEADER: "a plain model", _STRAT_HEADER: "a stratified model"}


class ModelKindError(ValueError):
    """The file holds the other kind of dppred model: plain where a
    stratified one was asked for, or the reverse."""


@dataclass
class HyperParams:
    tree: TreeConfig
    k: int
    method: str = METHOD_FORWARD
    task: str = TASK_CLASSIFICATION

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown selection method {self.method!r}")
        if self.task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")


def default_k(task: str) -> int:
    """Rules selected when no k is given: 20 for classification, 30 for regression."""
    return 20 if task == TASK_CLASSIFICATION else 30


@dataclass(kw_only=True)
class _ModelCore:
    """What a plain and a stratified model share: the GLM that scores its
    rule bits, the schema and label fields of its training data, and the
    settings it was trained with."""

    glm: GlmModel
    schema: list[ColumnSchema] | None
    feature_names: list[str]
    feature_sources: list[str]
    label_kind: str
    label_names: list[str] | None = None
    label_bounds: tuple[float, float] | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def task(self) -> str:
        return TASK_CLASSIFICATION if self.glm.task == TASK_LOGISTIC else TASK_REGRESSION


@dataclass
class DppredModel(_ModelCore):
    patterns: list[Pattern]
    selection: SelectionResult | None = field(default=None, repr=False)
    compiled: CompiledRules = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.compiled = compile_rules(self.patterns)

    @property
    def k(self) -> int:
        return len(self.patterns)


def _glm_task(task: str) -> str:
    return TASK_LOGISTIC if task == TASK_CLASSIFICATION else TASK_LINEAR


def _check_labels(ds: Dataset, task: str) -> None:
    want = "class" if task == TASK_CLASSIFICATION else "real"
    if ds.label_kind != want:
        raise ValueError(f"{task} training needs {want!r} labels, dataset has {ds.label_kind!r}")


def _data_fields(ds: Dataset) -> dict:
    """The schema and label fields a model copies from its training data."""
    return {"schema": ds.schema, "feature_names": list(ds.feature_names),
            "feature_sources": list(ds.feature_sources), "label_kind": ds.label_kind,
            "label_names": list(ds.label_names) if ds.label_names else None,
            "label_bounds": ds.label_bounds}


def train(ds: Dataset, hp: HyperParams) -> DppredModel:
    """Grow the forest, pool its rules, select top-k, and refit the GLM."""
    _check_training_data(ds, hp)
    return _select(ds, hp, *_rule_space(ds, fit_forest(ds, hp.tree)))


def train_sweep(ds: Dataset, hp: HyperParams, param: str, values: list[int]):
    """Yield ``(v, train(ds, hp'))`` for each v, where hp' is ``hp`` with ``param``
    ("k" or "trees") set to v, growing one forest for the whole sweep.

    With "k" the forest and the rule space are shared. Forward selection
    runs once, at the largest k, and each value refits its first v rules
    (greedy rounds are nested); the lasso reselects per value. With "trees"
    the largest forest is grown once: tree t depends only on (seed, t), so
    its first v trees are the forest of v trees.
    """
    if param not in ("k", "trees"):
        raise ValueError(f"unknown sweep parameter {param!r}")
    hps = [replace(hp, k=v) if param == "k" else replace(hp, tree=replace(hp.tree, n_trees=v))
           for v in values]
    if not hps:
        return
    _check_training_data(ds, hp)
    if param == "k":
        pool, space = _rule_space(ds, fit_forest(ds, hp.tree))
        largest = None
        if hp.method == METHOD_FORWARD:
            largest = forward_select(space, ds.y, max(values), _glm_task(hp.task))
        for v, hp_v in zip(values, hps):
            result = largest.prefix(v, space, ds.y, _glm_task(hp.task)) if largest else None
            yield v, _select(ds, hp_v, pool, space, result)
    else:
        forest = fit_forest(ds, replace(hp.tree, n_trees=max(values)))
        for v, hp_v in zip(values, hps):
            yield v, _select(ds, hp_v, *_rule_space(ds, forest[:v]))


def _check_training_data(ds: Dataset, hp: HyperParams) -> None:
    if ds.n == 0:
        raise ValueError("cannot train on an empty dataset")
    check_finite_features(ds)
    _check_labels(ds, hp.task)


def _rule_space(ds: Dataset, forest) -> tuple:
    """The forest's deduplicated rule pool, and its rule matrix on ``ds`` built
    by routing the rows of ``ds`` through the forest."""
    pool = extract_patterns(forest)
    if not pool:
        raise NoRulesError("no patterns generated")
    return pool, construct_pattern_space(ds, pool)


def _select(ds: Dataset, hp: HyperParams, pool: RulePool, space,
            result: SelectionResult | None = None) -> DppredModel:
    """Select ``hp.k`` rules of the pool, unless ``result`` already holds them,
    and build the model on them."""
    if result is None:
        select = forward_select if hp.method == METHOD_FORWARD else lasso_select
        result = select(space, ds.y, hp.k, _glm_task(hp.task))

    return DppredModel(
        patterns=[pool[j] for j in result.chosen],
        glm=result.model,
        **_data_fields(ds),
        provenance={**asdict(hp.tree), "k": hp.k, "method": hp.method, "task": hp.task},
        selection=result,
    )


def _check_compatible(m, ds: Dataset) -> None:
    if list(ds.feature_names) != list(m.feature_names):
        raise ValueError("schema mismatch: dataset features do not match the model's schema")


def glm_predictions(glm: GlmModel, bits: np.ndarray, label_bounds) -> np.ndarray:
    """Class indices, or real predictions on the original label scale, for an (n, k) rule matrix."""
    preds = predict_glm(glm, bits)
    if glm.task == TASK_LINEAR and label_bounds is not None:
        preds = denormalize_labels(preds, label_bounds)
    return preds


def _serve(m: DppredModel, x: np.ndarray) -> np.ndarray:
    return glm_predictions(m.glm, rule_matrix(m.compiled, x), m.label_bounds)


def predict_one(m: DppredModel, x: np.ndarray):
    """Prediction for a single feature vector: the batch of one row, as a Python int or float."""
    x = np.asarray(x)
    if x.shape != (len(m.feature_names),):
        raise ValueError(f"expected a vector of {len(m.feature_names)} feature values, "
                         f"got an array of shape {x.shape}")
    return _serve(m, x[None, :])[0].item()


def predict(m: DppredModel, ds: Dataset) -> np.ndarray:
    """Order-preserving predictions; bitwise identical to ``predict_one`` row by row."""
    _check_compatible(m, ds)
    return _serve(m, ds.x)


def predict_probabilities(m: DppredModel, ds: Dataset) -> np.ndarray:
    _check_compatible(m, ds)
    return predict_proba(m.glm, rule_matrix(m.compiled, ds.x))


def evaluate(preds: np.ndarray, truth: np.ndarray, task: str) -> dict:
    """``{"accuracy": ...}`` for class indices or ``{"rmse": ...}`` for real values."""
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    if len(preds) != len(truth):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(truth)} truths")
    if len(truth) == 0:
        raise ValueError("cannot evaluate: there are no rows")
    if task == TASK_CLASSIFICATION:
        return {"accuracy": float((preds.astype(np.int64) == truth.astype(np.int64)).mean())}
    if task == TASK_REGRESSION:
        r = preds.astype(np.float64) - truth.astype(np.float64)
        return {"rmse": float(np.sqrt(np.mean(r * r)))}
    raise ValueError(f"unknown task {task!r}")


def render_model(m: DppredModel) -> str:
    """Human-readable rule listing with the GLM weights."""
    lines = [f"{m.task} model with {m.k} rules"]
    w = np.atleast_2d(m.glm.weights)
    for j, p in enumerate(m.patterns):
        weight = w[0, j] if w.shape[0] == 1 else w[:, j]
        lines.append(f"  [{j}] weight={np.round(weight, 6)} :: {render_pattern(p, m.feature_names)}")
    return "\n".join(lines)


# --- persistence ----------------------------------------------------------
#
# A model file is a header line with the format version, named sections and
# an [end] marker. Plain and stratified files share the section codecs
# below; readers run through _read, so each failure names its section.


def _hex_row(values) -> str:
    return " ".join(float(v).hex() for v in values)


def _unhex_row(text: str) -> list[float]:
    return [float.fromhex(tok) for tok in text.split()]


def _finite_row(text: str, what: str) -> list[float]:
    """``_unhex_row``, raising when a value is a NaN or an infinity."""
    values = _unhex_row(text)
    if not np.isfinite(values).all():
        raise ValueError(f"{what} {text!r} holds a non-finite value")
    return values


def _write_model_file(path, header: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([f"{header} {FORMAT_VERSION}", *lines, "[end]"]) + "\n")


def _read_sections(path, header: str) -> dict[str, list[str]]:
    """The non-empty lines of each [section], after checking header, version and [end]."""
    with decode_errors_name(path), open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(header):
        other = _STRAT_HEADER if header == _HEADER else _HEADER
        if lines and lines[0].startswith(other):
            raise ModelKindError(f"{path} holds {_MODEL_KINDS[other]}, not {_MODEL_KINDS[header]}")
        raise ValueError("not a recognized model file: bad header line")
    try:
        version = int(lines[0][len(header):])
    except ValueError:
        raise ValueError("not a recognized model file: malformed version in header") from None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version} in header "
                         f"(this build reads version {FORMAT_VERSION})")
    sections: dict[str, list[str]] = {}
    current = None
    for ln in lines[1:]:
        if ln.startswith("[") and ln.endswith("]"):
            current = ln[1:-1]
            sections[current] = []
        elif current is not None and ln:
            sections[current].append(ln)
    if "end" not in sections:
        raise ValueError(f"truncated model file: no [end] marker after section '{current or 'header'}'")
    return sections


def _read(sections: dict, name: str, parse, *args):
    """``parse(lines, *args)`` on one section; any failure is a ValueError naming it."""
    if name not in sections:
        raise ValueError(f"truncated model file: missing section '{name}'")
    try:
        return parse(sections[name], *args)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, OverflowError) as err:
        raise ValueError(f"malformed model file: section '{name}': {err}") from err


def _parse_fields(lines: list[str]) -> dict[str, str]:
    fields = {}
    for ln in lines:
        key, sep, value = ln.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {ln!r}")
        fields[key] = value
    return fields


def _provenance_lines(provenance: dict) -> list[str]:
    return ["[provenance]"] + [f"{key}={provenance[key]}" for key in sorted(provenance)]


def _data_lines(m) -> list[str]:
    """[schema] and [label]: fitted column encodings, then label names or bounds."""
    if m.schema is None:
        raise ValueError("model carries no schema; cannot serialize")
    lines = ["[schema]", f"label_task={m.label_kind}"]
    lines += [json.dumps({"name": c.name, "kind": c.kind, "categories": c.categories,
                          "median": None if c.median is None else float(c.median).hex()}, sort_keys=True)
              for c in m.schema]
    lines.append("[label]")
    if m.label_names is not None:
        lines.append("names=" + json.dumps(m.label_names))
    if m.label_bounds is not None:
        lines.append("bounds=" + _hex_row(m.label_bounds))
    return lines


def _parse_column(line: str) -> ColumnSchema:
    col = json.loads(line)
    median = float.fromhex(col["median"]) if col["median"] else None
    # a NaN median would be imputed into every missing cell
    if median is not None and not np.isfinite(median):
        raise ValueError(f"column {col['name']!r}: non-finite median {col['median']!r}")
    return ColumnSchema(name=col["name"], kind=col["kind"], categories=col["categories"],
                        median=median)


def _parse_schema(lines: list[str]) -> dict:
    label_kind = _parse_fields(lines[:1]).get("label_task")
    if label_kind not in (LABEL_CLASS, LABEL_REAL):
        raise ValueError("missing or unknown label_task")
    schema = [_parse_column(ln) for ln in lines[1:]]
    names, sources, _ = encoded_feature_names(schema)
    return {"schema": schema, "feature_names": names, "feature_sources": sources,
            "label_kind": label_kind}


def _parse_label(lines: list[str]) -> dict:
    fields = _parse_fields(lines)
    names = json.loads(fields.pop("names", "null"))
    bounds = fields.pop("bounds", None)
    if fields or not (names is None or isinstance(names, list)
                      and all(isinstance(v, str) for v in names)):
        raise ValueError("expects only names= (a list of strings) and bounds=")
    if bounds is not None:
        lo, hi = _finite_row(bounds, "bounds")
        if not lo < hi:
            raise ValueError(f"bounds {bounds!r} holds a lower bound not below its upper bound")
        bounds = (lo, hi)
    return {"label_names": names, "label_bounds": bounds}


def _read_data_fields(sections: dict) -> dict:
    """Schema, feature and label fields, as keyword arguments of either model class."""
    return {**_read(sections, "schema", _parse_schema), **_read(sections, "label", _parse_label)}


def _rule_block(rules: list[Pattern], feature_names: list[str], prefix: str = "") -> list[str]:
    """A count line, then each rule rendered as a comment and as machine-exact conditions."""
    lines = [f"{prefix}count={len(rules)}"]
    for p in rules:
        lines.append("# " + render_pattern(p, feature_names))
        lines.append(" ".join(f"{c.dim}:{c.op}:{float(c.threshold).hex()}" for c in p.conditions))
    return lines


def _parse_condition(token: str, n_features: int) -> Condition:
    dim, op, thr = token.split(":")
    cond = Condition(int(dim), op, float.fromhex(thr))
    if cond.dim >= n_features:
        raise ValueError(f"condition dimension {cond.dim} outside the {n_features} features")
    # training never writes one, and the compiled kernel's < test is exact for finite thresholds
    if not np.isfinite(cond.threshold):
        raise ValueError(f"condition {token!r} has a non-finite threshold")
    return cond


def _parse_rule_block(lines: list[str], n_features: int, limit: int | None = None,
                      prefix: str = "") -> list[Pattern]:
    head = prefix + "count="
    if not lines or not lines[0].startswith(head):
        raise ValueError(f"missing its {head} line")
    machine = [ln for ln in lines[1:] if not ln.startswith("#")]
    if len(machine) != int(lines[0][len(head):]):
        raise ValueError(f"{lines[0]!r} but {len(machine)} rules listed")
    if limit is not None and len(machine) > limit:
        raise ValueError(f"{len(machine)} rules, more than the configured {limit}")
    return [Pattern(tuple(_parse_condition(tok, n_features) for tok in ln.split()))
            for ln in machine]


def _glm_lines(glm: GlmModel) -> list[str]:
    return (["[glm]", f"task={glm.task}", f"classes={glm.classes}",
             "intercept " + _hex_row(np.atleast_1d(glm.intercept))]
            + ["weights " + _hex_row(row) for row in np.atleast_2d(glm.weights)])


def _parse_glm(lines: list[str], n_dims: int) -> GlmModel:
    vectors = [ln.split(" ", 1) for ln in lines if ln.startswith(("intercept ", "weights "))]
    fields = _parse_fields([ln for ln in lines if not ln.startswith(("intercept ", "weights "))])
    intercepts = [_finite_row(v, key) for key, v in vectors if key == "intercept"]
    weights = [_finite_row(v, key) for key, v in vectors if key == "weights"]
    if "task" not in fields or "classes" not in fields:
        raise ValueError("needs task= and classes= lines")
    task, classes = fields["task"], int(fields["classes"])
    if not (task == TASK_LINEAR and classes == 0 or task == TASK_LOGISTIC and classes >= 2):
        raise ValueError(f"task {task!r} with {classes} classes")
    outputs = classes if classes > 2 else 1
    if (len(intercepts) != 1 or len(intercepts[0]) != outputs or len(weights) != outputs
            or any(len(row) != n_dims for row in weights)):
        raise ValueError(f"expects one intercept line of {outputs} and {outputs} weight "
                         f"line(s) of {n_dims}, one weight per rule")
    one = outputs == 1
    return GlmModel(weights=np.array(weights[0] if one else weights), task=task, classes=classes,
                    intercept=intercepts[0][0] if one else np.array(intercepts[0]))


def save(m: DppredModel, path) -> None:
    """Write the versioned text model file."""
    _write_model_file(path, _HEADER, _provenance_lines(m.provenance) + _data_lines(m)
                      + ["[patterns]"] + _rule_block(m.patterns, m.feature_names) + _glm_lines(m.glm))


def load(path) -> DppredModel:
    """Read a model file written by :func:`save`; errors name the bad section."""
    sections = _read_sections(path, _HEADER)
    data = _read_data_fields(sections)
    rules = _read(sections, "patterns", _parse_rule_block, len(data["feature_names"]))
    return DppredModel(patterns=rules, glm=_read(sections, "glm", _parse_glm, len(rules)),
                       provenance=_read(sections, "provenance", _parse_fields), **data)
