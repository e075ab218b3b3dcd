"""Deterministic synthetic dataset generators.

``generate_medical`` builds the four-feature diagnosis benchmark whose
labels come from three known threshold rules, so recovered patterns can be
checked against the generating truth. ``generate_subtyped_regression``
builds regression data with latent subtypes for the stratified pipeline.

Both generators make rows of CSV cells (``repr`` of each float), which the
``write_*_csv`` writers write and ``data.encode_categoricals`` encodes, so
in memory and through a CSV file they give the same matrix.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .data import (
    KIND_CATEGORICAL,
    KIND_LABEL,
    KIND_NUMERIC,
    LABEL_CLASS,
    LABEL_REAL,
    ColumnSchema,
    Dataset,
    encode_categoricals,
    write_schema_file,
)
from .patterns import Condition, Pattern
from .rng import STREAM_LABEL_NOISE, STREAM_SYNTH, sub_rng


@dataclass
class SynthConfig:
    n_train: int = 100_000
    n_test: int = 50_000
    noise_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.noise_rate < 0.5:
            raise ValueError("noise_rate must lie in [0, 0.5)")
        if self.n_train < 1 or self.n_test < 0:
            raise ValueError("n_train must be >= 1 and n_test >= 0, "
                             f"got n_train={self.n_train}, n_test={self.n_test}")


GENDERS = ["male", "female"]
BLOOD_TYPES = ["A", "B", "O", "AB"]

# Dimensions of the generating rules in the encoding of medical_schema():
# age, gender dummies (+missing), blood-type dummies (+missing), lab score.
_DIM_AGE = 0
_DIM_MALE = 1
_DIM_FEMALE = 2
_DIM_BLOOD = {"A": 4, "B": 5, "O": 6, "AB": 7}
_DIM_LAB = 9


def medical_schema() -> list[ColumnSchema]:
    return [
        ColumnSchema("age", KIND_NUMERIC, median=30.0),
        ColumnSchema("gender", KIND_CATEGORICAL, categories=list(GENDERS)),
        ColumnSchema("blood_type", KIND_CATEGORICAL, categories=list(BLOOD_TYPES)),
        ColumnSchema("lab_score", KIND_NUMERIC, median=0.5),
        ColumnSchema("disease", KIND_LABEL, categories=["no", "yes"]),
    ]


def medical_ground_truth() -> list[Pattern]:
    """The three generating rules as patterns over the encoded space.

    Ages are integers, so any age threshold in (18, 19) separates the
    groups identically; 18.5 is the emitted canonical value.
    """
    return [
        Pattern((
            Condition(_DIM_AGE, "ge", 18.5),
            Condition(_DIM_MALE, "ge", 0.5),
            Condition(_DIM_BLOOD["AB"], "ge", 0.5),
            Condition(_DIM_LAB, "ge", 0.6),
        )),
        Pattern((
            Condition(_DIM_AGE, "ge", 18.5),
            Condition(_DIM_FEMALE, "ge", 0.5),
            Condition(_DIM_BLOOD["O"], "ge", 0.5),
            Condition(_DIM_LAB, "ge", 0.5),
        )),
        Pattern((
            Condition(_DIM_AGE, "lt", 18.5),
            Condition(_DIM_LAB, "ge", 0.9),
        )),
    ]


def medical_rule_labels(age, is_male, blood, lab) -> np.ndarray:
    """Evaluate the three diagnosis rules; positive when any fires."""
    adult = age > 18
    rule1 = adult & is_male & (blood == 3) & (lab >= 0.6)
    rule2 = adult & ~is_male & (blood == 2) & (lab >= 0.5)
    rule3 = ~adult & (lab >= 0.9)
    return (rule1 | rule2 | rule3).astype(np.int64)


def _medical_rows(cfg: SynthConfig) -> tuple[list, list]:
    """The train and test rows of ``cfg`` as the CSV cells of ``medical_schema()``."""
    rng = sub_rng(cfg.seed, STREAM_SYNTH)
    total = cfg.n_train + cfg.n_test
    age = rng.integers(1, 61, size=total)
    gender = rng.integers(0, 2, size=total)  # 0 = male, 1 = female
    blood = rng.integers(0, 4, size=total)   # indexes BLOOD_TYPES
    lab = rng.random(size=total)
    labels = medical_rule_labels(age, gender == 0, blood, lab)

    flips = int(cfg.noise_rate * cfg.n_train)
    if flips:
        noisy = sub_rng(cfg.seed, STREAM_LABEL_NOISE).choice(cfg.n_train, size=flips, replace=False)
        labels[noisy] = 1 - labels[noisy]
    rows = list(zip([str(a) for a in age.tolist()],
                    [GENDERS[g] for g in gender.tolist()],
                    [BLOOD_TYPES[b] for b in blood.tolist()],
                    [repr(v) for v in lab.tolist()],
                    [("no", "yes")[v] for v in labels.tolist()]))
    return rows[:cfg.n_train], rows[cfg.n_train:]


def generate_medical(cfg: SynthConfig) -> tuple[Dataset, Dataset, list[Pattern]]:
    """Return (train, test, generating rules); noise applies to training labels only."""
    train, test = (encode_categoricals(rows, medical_schema()) for rows in _medical_rows(cfg))
    return train, test, medical_ground_truth()


def write_medical_csv(cfg: SynthConfig, train_path, test_path, schema_path) -> None:
    """Regenerate the raw rows for ``cfg`` and write CSV + schema files."""
    _write_csv(medical_schema(), _medical_rows(cfg), LABEL_CLASS, train_path, test_path, schema_path)


def _write_csv(schema: list[ColumnSchema], splits, label_task: str, train_path, test_path,
               schema_path) -> None:
    """Each split's rows under a header of the schema's column names, then the schema file."""
    for path, rows in zip((train_path, test_path), splits):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([c.name for c in schema])
            writer.writerows(rows)
    write_schema_file(schema_path, label_task, schema)


# --- subtyped regression -------------------------------------------------

# widely separated coefficients keep each cluster's greedy selection order
# stable, so the unified model's shared local slots line up across clusters
_SUBTYPE_STEP_COEFS = np.array([4.0, 2.0, 1.0, 0.5, 0.25])
_SUBTYPE_BASE_GAP = 6.0
_SUBTYPE_MARKER_SLOPE = 3.0
_SUBTYPE_NOISE_STD = 0.25
N_SUBTYPES = 3   # subtypes that ``dppred synth --kind subtyped`` writes by default


def subtype_thresholds(n_subtypes: int) -> np.ndarray:
    """Per-subtype step locations for each signal feature, spread over (0, 1)."""
    g, j = np.meshgrid(np.arange(n_subtypes), np.arange(len(_SUBTYPE_STEP_COEFS)), indexing="ij")
    return 0.3 + 0.2 * ((g + j) % 3)


def _subtyped_rows(cfg: SynthConfig, n_subtypes: int) -> tuple[list[ColumnSchema], tuple[list, list]]:
    """The schema, then the train and test rows of ``cfg`` as its CSV cells."""
    if n_subtypes < 1:
        raise ValueError("need at least one subtype")
    rng = sub_rng(cfg.seed, STREAM_SYNTH, n_subtypes)
    total = cfg.n_train + cfg.n_test
    n_signals = len(_SUBTYPE_STEP_COEFS)

    groups = rng.integers(0, n_subtypes, size=total)
    low = rng.uniform(0.0, 0.3, size=(total, n_subtypes))
    high = rng.uniform(0.7, 1.0, size=total)
    markers = low
    markers[np.arange(total), groups] = high
    signals = rng.random((total, n_signals))
    noise = rng.normal(0.0, _SUBTYPE_NOISE_STD, size=total)

    thresholds = subtype_thresholds(n_subtypes)
    steps = (signals >= thresholds[groups]).astype(np.float64)
    # the slope term keeps every marker informative on its own subtype, so
    # rule mining yields positive marker rules for all subtypes, not just
    # the G-1 needed to encode the base offsets
    own_marker = markers[np.arange(total), groups]
    y = (groups * _SUBTYPE_BASE_GAP + _SUBTYPE_MARKER_SLOPE * own_marker
         + steps @ _SUBTYPE_STEP_COEFS + noise)

    schema = [ColumnSchema(f"marker_{g}", KIND_NUMERIC, median=0.2) for g in range(n_subtypes)]
    schema += [ColumnSchema(f"signal_{j}", KIND_NUMERIC, median=0.5) for j in range(n_signals)]
    schema.append(ColumnSchema("response", KIND_LABEL))
    # repr gives the shortest string that parses back to the same float
    rows = [list(map(repr, row)) for row in np.column_stack([markers, signals, y]).tolist()]
    return schema, (rows[:cfg.n_train], rows[cfg.n_train:])


def generate_subtyped_regression(cfg: SynthConfig, n_subtypes: int) -> tuple[Dataset, Dataset]:
    """(train, test): regression data whose response rule changes with a latent subtype.

    Each subtype elevates its own marker feature (high for members, low
    otherwise), shifts the response by a subtype base offset, and moves the
    step thresholds of the shared signal features. Subtype membership is
    recoverable from the markers but is not itself a feature, so a model
    that stratifies can localize the per-subtype steps precisely.
    """
    schema, splits = _subtyped_rows(cfg, n_subtypes)
    return tuple(encode_categoricals(rows, schema, label_task=LABEL_REAL) for rows in splits)


def write_subtyped_csv(cfg: SynthConfig, n_subtypes: int, train_path, test_path, schema_path) -> None:
    """Regenerate the raw rows for ``cfg`` and write CSV + schema files."""
    _write_csv(*_subtyped_rows(cfg, n_subtypes), LABEL_REAL, train_path, test_path, schema_path)
