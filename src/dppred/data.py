"""Tabular data loading, dummy encoding and label normalization.

A dataset is parsed from CSV against a column schema, categoricals are
expanded to per-category indicators plus a missing flag, numeric gaps are
filled with the training median, and the result is a dense float matrix
whose columns are traceable back to their source columns.

A file's records are read by ``csv.reader`` in one bulk step, and their
lengths are checked in one pass.

Cells are encoded a column at a time. Numeric columns, real labels and
class labels all go through one converter, ``_cells``: one bulk map over
the raw column (``float``, which strips what ``str.strip`` strips and
rejects every missing token, or a lookup of the class index), then one
over the stripped non-missing cells. Only when both fail, or a label is
missing where labels are required, does it walk the cells in row order
and raise the first bad one. A categorical column with no category fails
first; otherwise the load raises the bad cell of the lowest row and,
within it, the leftmost column. Loads from a file prefix every error with
its path, a text that is not UTF-8 included, and skip a UTF-8 byte-order
mark.
"""

import csv
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"
KIND_LABEL = "label"
_KINDS = (KIND_NUMERIC, KIND_CATEGORICAL, KIND_LABEL)

LABEL_CLASS = "class"
LABEL_REAL = "real"

# Cell values treated as absent. '?' covers the common UCI convention.
MISSING_TOKENS = frozenset({"", "?", "NA"})


@dataclass
class ColumnSchema:
    """One source column: its kind plus any fitted encoding state.

    ``categories`` (categorical or class label) and ``median`` (numeric)
    are learned from training data on the first load and reused verbatim
    for any later dataset encoded against the same schema.
    """

    name: str
    kind: str
    categories: list[str] | None = None
    median: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.categories is not None and len(set(self.categories)) != len(self.categories):
            raise ValueError(f"column {self.name!r}: duplicate categories")


@dataclass
class Dataset:
    """Encoded instances: an (n, d) float matrix plus label vector.

    ``feature_names`` names each encoded dimension ("gender=male"),
    ``feature_sources`` maps it back to the source column ("gender"), and
    ``binary_dims`` flags the dummy-indicator dimensions whose split
    threshold is pinned to 0.5.
    """

    x: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    feature_sources: list[str]
    binary_dims: np.ndarray
    label_kind: str
    label_names: list[str] | None = None
    label_bounds: tuple[float, float] | None = None
    schema: list[ColumnSchema] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError("x must be a 2-d matrix")
        if len(self.y) != self.x.shape[0]:
            raise ValueError("y length does not match row count")
        if len(self.feature_names) != self.x.shape[1]:
            raise ValueError("feature_names length does not match column count")
        if self.label_kind not in (LABEL_CLASS, LABEL_REAL):
            raise ValueError(f"unknown label kind {self.label_kind!r}")
        self.binary_dims = np.asarray(self.binary_dims, dtype=bool)
        for j in np.flatnonzero(self.binary_dims):
            col = self.x[:, j]
            if not np.all((col == 0.0) | (col == 1.0)):
                raise ValueError(f"dummy dimension {self.feature_names[j]!r} has non-binary values")
        if self.label_kind == LABEL_REAL and self.label_bounds is not None and len(self.y):
            if self.y.min() < -1e-12 or self.y.max() > 1.0 + 1e-12:
                raise ValueError("normalized labels must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def check_finite_features(ds: Dataset) -> None:
    """Raise a ValueError naming the first row, and its first feature, that
    holds a NaN or an infinity."""
    bad = np.argwhere(~np.isfinite(ds.x))
    if len(bad):
        row, col = bad[0].tolist()
        raise ValueError(f"row {row} holds the non-finite value {ds.x[row, col]} "
                         f"in feature {ds.feature_names[col]!r}")


def read_schema_file(path) -> tuple[str, list[ColumnSchema]]:
    """Parse a schema file: a `label_task,<class|real>` line then `name,kind` lines.
    Every error is prefixed by the path."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            return _parse_schema(csv.reader(fh))
        except (ValueError, csv.Error) as err:
            raise ValueError(f"{path}: {err}") from None


def _parse_schema(reader) -> tuple[str, list[ColumnSchema]]:
    label_task = None
    columns = []
    for lineno, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].strip() == "label_task":
            if len(row) != 2 or row[1].strip() not in (LABEL_CLASS, LABEL_REAL):
                raise ValueError(f"schema line {lineno}: label_task must be 'class' or 'real'")
            label_task = row[1].strip()
            continue
        if len(row) != 2:
            raise ValueError(f"schema line {lineno}: expected 'name,kind'")
        columns.append(ColumnSchema(name=row[0].strip(), kind=row[1].strip()))
    if label_task is None:
        raise ValueError("schema file is missing the label_task line")
    if sum(c.kind == KIND_LABEL for c in columns) != 1:
        raise ValueError("schema must declare exactly one label column")
    return label_task, columns


def write_schema_file(path, label_task: str, schema: list[ColumnSchema]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label_task", label_task])
        for col in schema:
            writer.writerow([col.name, col.kind])


def load_csv(path, schema: list[ColumnSchema], label_task: str = LABEL_CLASS,
             allow_missing_labels: bool = False) -> Dataset:
    """Load and encode a CSV file against ``schema``.

    The header must match the schema column names in order. Categories and
    medians missing from the schema are learned from this file (training
    load); already-fitted schemas are applied as-is (test load).
    """
    return _encode_file(path, _read_rows(path, schema), schema, label_task=label_task,
                        allow_missing_labels=allow_missing_labels)


def load_labels(path, schema: list[ColumnSchema], label_task: str = LABEL_CLASS) -> Dataset:
    """The label column of a CSV file laid out as ``schema``, as a Dataset with no
    features: the other cells are checked for count only, never parsed."""
    label = [i for i, c in enumerate(schema) if c.kind == KIND_LABEL]
    if len(label) != 1:
        raise ValueError("schema must declare exactly one label column")
    rows = _read_rows(path, schema)
    return _encode_file(path, [[row[label[0]]] for row in rows], [schema[label[0]]],
                        label_task=label_task)


def _encode_file(path, rows: list[list[str]], schema: list[ColumnSchema], **options) -> Dataset:
    """``encode_categoricals``, its errors prefixed by the path of the file read."""
    try:
        return encode_categoricals(rows, schema, **options)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


@contextmanager
def decode_errors_name(path):
    """Raise a UnicodeDecodeError met inside the block as a ValueError naming
    ``path``. Text is decoded a chunk at a time, so no line is claimed."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def _read_rows(path, schema: list[ColumnSchema]) -> list[list[str]]:
    """The non-empty rows of a CSV file whose header names the schema columns
    in order. The first bad record raises: a bad header, a row of another
    length or a record the csv reader cannot read."""
    records, error = [], None
    with decode_errors_name(path), open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            records.extend(csv.reader(fh))
        except csv.Error as err:
            # extend keeps the records read before the bad one
            error = ValueError(f"{path}: line {len(records) + 1}: {err}")
    if not records:
        raise error or ValueError(f"{path}: empty file")
    header, expected = records[0], [c.name for c in schema]
    if [h.strip() for h in header] != expected:
        raise ValueError(f"{path}: header {header!r} does not match schema columns {expected!r}")
    rows = list(filter(None, records[1:]))
    if not set(map(len, rows)) <= {len(schema)}:
        for lineno, row in enumerate(records[1:], start=2):
            if row and len(row) != len(schema):
                raise ValueError(f"{path}: line {lineno} has {len(row)} cells, expected {len(schema)}")
    if error:
        raise error
    return rows


def encoded_feature_names(schema: list[ColumnSchema]) -> tuple[list[str], list[str], list[bool]]:
    """Return (feature_names, feature_sources, binary flags) for a fitted schema."""
    names, sources, binary = [], [], []
    for col in schema:
        if col.kind == KIND_NUMERIC:
            names.append(col.name)
            sources.append(col.name)
            binary.append(False)
        elif col.kind == KIND_CATEGORICAL:
            for cat in col.categories or []:
                names.append(f"{col.name}={cat}")
                sources.append(col.name)
                binary.append(True)
            names.append(f"{col.name}=?")
            sources.append(col.name)
            binary.append(True)
    return names, sources, binary


def encode_categoricals(rows: list[list[str]], schema: list[ColumnSchema],
                        label_task: str = LABEL_CLASS,
                        allow_missing_labels: bool = False) -> Dataset:
    """Encode parsed string rows to a Dataset.

    Each categorical column with c categories becomes c+1 indicator
    dimensions (one per category, one for missing/unseen); numeric columns
    pass through with missing cells imputed by the fitted median.

    Each column is fitted (when the schema lacks its categories or median),
    parsed and encoded in turn; the module docstring gives which bad cell
    is reported when there are several.
    """
    label_cols = [i for i, c in enumerate(schema) if c.kind == KIND_LABEL]
    if len(label_cols) != 1:
        raise ValueError("schema must declare exactly one label column")
    label_idx = label_cols[0]
    if label_task not in (LABEL_CLASS, LABEL_REAL):
        raise ValueError(f"unknown label task {label_task!r}")

    fitted = [replace(c) for c in schema]
    n = len(rows)
    columns = list(zip(*rows)) or [()] * len(fitted)
    blocks = [np.zeros((n, 0))]   # so that labels alone give an (n, 0) matrix
    y = None
    errors: list[_CellError] = []
    for col, column in zip(fitted, columns):
        try:
            if col.kind == KIND_NUMERIC:
                present, vals = _cells(column, col.name, None, True)
                if col.median is None:
                    col.median = float(np.median(vals)) if len(vals) else 0.0
                block = np.full((n, 1), col.median, dtype=np.float64)
                block[present, 0] = vals
                blocks.append(block)
            elif col.kind == KIND_CATEGORICAL:
                cells = list(map(str.strip, column))
                if col.categories is None:
                    col.categories = _first_seen(cells)
                    if not col.categories:
                        raise ValueError(f"column {col.name!r}: empty category set")
                # missing tokens and unseen values go to the last indicator
                index = {c: t for t, c in enumerate(col.categories) if c not in MISSING_TOKENS}
                block = np.zeros((n, len(col.categories) + 1))
                block[np.arange(n), np.fromiter(map(index.get, cells, repeat(-1)), np.intp, n)] = 1.0
                blocks.append(block)
            else:
                classes = None
                if label_task == LABEL_CLASS:
                    if col.categories is None:
                        col.categories = _first_seen(list(map(str.strip, column)))
                    # a missing token is missing even where it names a class
                    classes = {c: i for i, c in enumerate(col.categories) if c not in MISSING_TOKENS}
                present, vals = _cells(column, col.name, classes, allow_missing_labels)
                y = np.full(n, np.nan if classes is None else -1, dtype=vals.dtype)
                y[present] = vals
        except _CellError as err:
            errors.append(err)
    if errors:
        # the lowest row; among its bad cells, the first column
        raise min(errors, key=lambda err: err.row)

    names, sources, binary = encoded_feature_names(fitted)
    label_col = fitted[label_idx]
    return Dataset(
        x=np.concatenate(blocks, axis=1),
        y=y,
        feature_names=names,
        feature_sources=sources,
        binary_dims=np.array(binary, dtype=bool),
        label_kind=label_task,
        label_names=list(label_col.categories) if label_task == LABEL_CLASS else None,
        schema=fitted,
    )


def _first_seen(cells: list[str]) -> list[str]:
    """The distinct non-missing cells in order of first appearance."""
    return list(dict.fromkeys(v for v in cells if v not in MISSING_TOKENS))


def _cells(column: Sequence[str], name: str, classes: dict[str, int] | None,
           missing_ok: bool) -> tuple[np.ndarray, np.ndarray]:
    """(mask of the non-missing cells, their values): finite floats, or class
    indices when ``classes`` maps each class label to its index. A missing
    cell raises unless ``missing_ok``; the first bad cell raises, naming its row."""
    convert, dtype = (float, np.float64) if classes is None else (classes.__getitem__, np.int64)
    values = _bulk(convert, dtype, column)
    if values is not None:
        return np.ones(len(column), dtype=bool), values
    cells = [v.strip() for v in column]
    present = np.array([v not in MISSING_TOKENS for v in cells], dtype=bool)
    values = _bulk(convert, dtype, [v for v in cells if v not in MISSING_TOKENS])
    if values is None or not (missing_ok or present.all()):
        for i, v in enumerate(cells, start=1):
            if v in MISSING_TOKENS:
                if not missing_ok:
                    raise _CellError(i, f"row {i}: missing label value")
            elif classes is None:
                # the same float() as the bulk map, so it raises where that failed
                _parse_number(v, i, name)
            elif v not in classes:
                raise _CellError(i, f"row {i}: unknown class label {v!r}")
    return present, values


def _bulk(convert, dtype, cells: Sequence[str]) -> np.ndarray | None:
    """``convert`` mapped over the cells in one step, or None when a cell
    raises or gives a non-finite value."""
    try:
        values = np.fromiter(map(convert, cells), dtype, len(cells))
    except (ValueError, KeyError):
        return None
    return values if np.isfinite(values).all() else None


class _CellError(ValueError):
    """A bad cell, carrying its 1-based row so that the column-at-a-time
    encoder can raise the first bad cell in row-major order."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _parse_number(value: str, row: int, column: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise _CellError(row, f"row {row}, column {column!r}: cannot parse {value!r} as a number") from None
    # float() takes 'nan' and 'inf'; a NaN cell would poison the stored median
    if not math.isfinite(number):
        raise _CellError(row, f"row {row}, column {column!r}: non-finite value {value!r}")
    return number


def minmax_normalize_labels(ds: Dataset) -> Dataset:
    """Rescale real labels to [0, 1], recording the bounds for inverse mapping."""
    if ds.label_kind != LABEL_REAL:
        raise ValueError("label normalization applies to real labels only")
    lo, hi = float(ds.y.min()), float(ds.y.max())
    if hi <= lo:
        raise ValueError("cannot normalize constant labels (max equals min)")
    y = (ds.y - lo) / (hi - lo)
    return replace(ds, y=y, label_bounds=(lo, hi))


def denormalize_labels(values: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    lo, hi = bounds
    return values * (hi - lo) + lo


def subset(ds: Dataset, indices: np.ndarray) -> Dataset:
    """A new Dataset holding the given rows (metadata shared)."""
    indices = np.asarray(indices)
    return replace(ds, x=ds.x[indices], y=ds.y[indices])
