import csv
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppred.data import (
    KIND_CATEGORICAL,
    KIND_LABEL,
    KIND_NUMERIC,
    LABEL_CLASS,
    MISSING_TOKENS,
    ColumnSchema,
    Dataset,
    _parse_number,
    denormalize_labels,
    encode_categoricals,
    encoded_feature_names,
    load_csv,
    load_labels,
    minmax_normalize_labels,
    read_schema_file,
    write_schema_file,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_numeric_passthrough(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,target\n1.5,0.1\n2.5,0.2\n3.5,0.3\n")
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        ds = load_csv(path, schema, label_task="real")
        assert (ds.n, ds.d) == (3, 1)
        assert np.allclose(ds.x[:, 0], [1.5, 2.5, 3.5])
        assert np.allclose(ds.y, [0.1, 0.2, 0.3])

    def test_categorical_dummy_count(self, tmp_path):
        path = write(tmp_path, "d.csv", "c,target\nx,0\ny,1\nx,0\n")
        schema = [ColumnSchema("c", "categorical"), ColumnSchema("target", "label")]
        ds = load_csv(path, schema, label_task="class")
        # two categories plus the missing flag
        assert ds.d == 3
        assert ds.feature_names == ["c=x", "c=y", "c=?"]

    def test_bad_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,target\n1.0,0\noops,1\n")
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        with pytest.raises(ValueError, match=r"row 2.*'a'"):
            load_csv(path, schema, label_task="class")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_feature_cell_rejected_on_training_load(self, tmp_path, cell):
        path = write(tmp_path, "d.csv", f"a,target\n1.0,0\n{cell},1\n")
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        with pytest.raises(ValueError, match=r"row 2, column 'a': non-finite"):
            load_csv(path, schema, label_task="class")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_cell_rejected_on_prediction_load(self, tmp_path, cell):
        train = write(tmp_path, "tr.csv", "a,target\n1,0\n3,1\n")
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        ds = load_csv(train, schema, label_task="class")
        test = write(tmp_path, "te.csv", f"a,target\n2,0\n{cell},\n")
        with pytest.raises(ValueError, match=r"row 2, column 'a': non-finite"):
            load_csv(test, ds.schema, label_task="class", allow_missing_labels=True)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_real_label_rejected(self, tmp_path, cell):
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        train = write(tmp_path, "tr.csv", f"a,target\n1,0.5\n2,{cell}\n")
        with pytest.raises(ValueError, match=r"row 2, column 'target': non-finite"):
            load_csv(train, schema, label_task="real")
        ds = load_csv(write(tmp_path, "ok.csv", "a,target\n1,0.5\n2,0.7\n"), schema,
                      label_task="real")
        test = write(tmp_path, "te.csv", f"a,target\n1,{cell}\n")
        with pytest.raises(ValueError, match=r"row 1, column 'target': non-finite"):
            load_csv(test, ds.schema, label_task="real", allow_missing_labels=True)

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, "d.csv", "wrong,target\n1,0\n")
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        with pytest.raises(ValueError, match="header"):
            load_csv(path, schema, label_task="class")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,target\n1,0\n2\n")
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path, schema, label_task="class")

    def test_unknown_category_lenient_maps_to_missing(self, tmp_path):
        path = write(tmp_path, "d.csv", "c,target\nz,0\n")
        schema = [ColumnSchema("c", "categorical", categories=["x", "y"]),
                  ColumnSchema("target", "label", categories=["0", "1"])]
        ds = load_csv(path, schema, label_task="class")
        assert ds.x[0].tolist() == [0.0, 0.0, 1.0]

    def test_numeric_median_imputation_reused(self, tmp_path):
        train = write(tmp_path, "tr.csv", "a,target\n1,0\n3,1\n9,0\n")
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        ds = load_csv(train, schema, label_task="class")
        assert ds.schema[0].median == 3.0
        test = write(tmp_path, "te.csv", "a,target\n,1\n")
        ds2 = load_csv(test, ds.schema, label_task="class")
        assert ds2.x[0, 0] == 3.0

    def test_encoding_errors_name_the_file(self, tmp_path):
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        path = write(tmp_path, "d.csv", "a,target\n1.0,0\noops,1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: row 2, column 'a': cannot parse"):
            load_csv(path, schema, label_task="class")
        path = write(tmp_path, "l.csv", "a,target\n1.0,0\noops,\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: row 2: missing label value$"):
            load_labels(path, schema, label_task="class")

    def test_csv_errors_name_the_file_and_line(self, tmp_path):
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("target", "label")]
        limit = csv.field_size_limit()
        path = write(tmp_path, "d.csv", f"a,target\n1.0,0\n{'1' * (limit + 1)},1\n")
        want = f"{path}: line 3: field larger than field limit ({limit})"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_csv(path, schema, label_task="class")
        path = write(tmp_path, "h.csv", f"{'a' * (limit + 1)},target\n1.0,0\n")
        want = f"{path}: line 1: field larger than field limit ({limit})"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_csv(path, schema, label_task="class")
        # a bad record before it is reported first, as the reader meets them
        path = write(tmp_path, "r.csv", f"a,target\n1.0\n{'1' * (limit + 1)},1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2 has 1 cells, expected 2$"):
            load_csv(path, schema, label_task="class")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        texts = {"d.csv": "a,c,target\n1.5,x,no\n?,y,yes\n2,,no\n",
                 "s.csv": "label_task,class\na,numeric\nc,categorical\ntarget,label\n"}
        loads = []
        for prefix, mark in (("", ""), ("bom_", "\ufeff")):
            data, schema = (write(tmp_path, prefix + name, mark + text) for name, text in texts.items())
            label_task, columns = read_schema_file(schema)
            ds = load_csv(data, columns, label_task)
            loads.append((label_task, ds.schema, ds.x.tobytes(), ds.y.tobytes()))
        assert (tmp_path / "bom_d.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert loads[0] == loads[1]


def reference_encode(rows, schema, label_task=LABEL_CLASS, allow_missing_labels=False):
    """The encoder as a per-cell loop: a pass that learns the categories, then
    one scalar store per cell in row order, the medians filled in last;
    encode_categoricals must give its bits and its errors."""
    label_idx = [i for i, c in enumerate(schema) if c.kind == KIND_LABEL][0]
    fitted = [replace(c) for c in schema]
    n = len(rows)

    for j, col in enumerate(fitted):
        learns = col.kind == KIND_CATEGORICAL or (col.kind == KIND_LABEL and label_task == LABEL_CLASS)
        if learns and col.categories is None:
            seen = []
            for row in rows:
                v = row[j].strip()
                if v not in MISSING_TOKENS and v not in seen:
                    seen.append(v)
            if col.kind == KIND_CATEGORICAL and not seen:
                raise ValueError(f"column {col.name!r}: empty category set")
            col.categories = seen

    names, _, _ = encoded_feature_names(fitted)
    x = np.zeros((n, len(names)), dtype=np.float64)
    missing = np.zeros((n, len(names)), dtype=bool)
    label_col = fitted[label_idx]
    if label_task == LABEL_CLASS:
        y = np.full(n, -1, dtype=np.int64)
        class_index = {c: i for i, c in enumerate(label_col.categories)}
    else:
        y = np.full(n, np.nan, dtype=np.float64)

    for i, row in enumerate(rows):
        k = 0
        for j, col in enumerate(fitted):
            v = row[j].strip()
            if col.kind == KIND_NUMERIC:
                if v in MISSING_TOKENS:
                    missing[i, k] = True
                else:
                    x[i, k] = _parse_number(v, i + 1, col.name)
                k += 1
            elif col.kind == KIND_CATEGORICAL:
                cats = col.categories
                width = len(cats) + 1
                if v in cats and v not in MISSING_TOKENS:
                    x[i, k + cats.index(v)] = 1.0
                else:
                    x[i, k + width - 1] = 1.0
                k += width
            else:
                if v in MISSING_TOKENS:
                    if not allow_missing_labels:
                        raise ValueError(f"row {i + 1}: missing label value")
                elif label_task == LABEL_CLASS:
                    if v not in class_index:
                        raise ValueError(f"row {i + 1}: unknown class label {v!r}")
                    y[i] = class_index[v]
                else:
                    y[i] = _parse_number(v, i + 1, col.name)

    # a median is fitted on its column's parsed cells, then fills the missing ones
    for col in fitted:
        if col.kind == KIND_NUMERIC:
            k = names.index(col.name)
            if col.median is None:
                vals = x[~missing[:, k], k]
                col.median = float(np.median(vals)) if len(vals) else 0.0
            x[missing[:, k], k] = col.median
    return x, y, fitted


def _outcome(encode, rows, schema, label_task, allow_missing):
    """(x bytes, y bytes, fitted schema) of an encoding, or its error text."""
    try:
        result = encode(rows, schema, label_task=label_task, allow_missing_labels=allow_missing)
    except ValueError as err:
        return "error", str(err)
    if isinstance(result, Dataset):
        result = (result.x, result.y, result.schema)
    x, y, fitted = result
    return x.tobytes(), y.dtype, y.tobytes(), fitted


# float() takes underscores between digits and non-ASCII decimal digits
# ("\u0663" is Arabic-Indic three), and strips the whitespace str.strip strips
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-10**6, 10**6).map(str),
                     st.sampled_from(["1e-3", "-0.0", "0", "+2.5", "1_000", "1_0", ".5", "7.",
                                      "\u0663", "\u0661\u0662.\u0665"]))
_MISSING = st.sampled_from(sorted(MISSING_TOKENS) + [" ", " ? ", "NA ", "\xa0"])
_BAD_NUMBERS = st.sampled_from(["oops", "nan", "NaN", "inf", "-inf", "Infinity", "1,5", "--1",
                                "NA?", "1__0", "_1", "\u0663\x00", "1e400"])
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u3000"])


@st.composite
def _cells(draw, values, bad_rate):
    """A cell from ``values`` or a missing token, sometimes a bad number,
    with optional surrounding whitespace."""
    roll = draw(st.floats(0, 1))
    cell = (draw(_BAD_NUMBERS) if roll < bad_rate else
            draw(_MISSING) if roll < bad_rate + 0.15 else draw(values))
    return draw(_SPACE) + cell + draw(_SPACE)


@st.composite
def encode_problems(draw, bad_rate):
    """(rows, schema, label task, missing labels allowed), a training load
    (nothing fitted) or a test load against the schema fitted on training
    rows, whose cells also hold categories the training rows never saw."""
    kinds = draw(st.lists(st.sampled_from([KIND_NUMERIC, KIND_CATEGORICAL]), min_size=0, max_size=4))
    kinds.insert(draw(st.integers(0, len(kinds))), KIND_LABEL)
    schema = [ColumnSchema(f"c{j}", kind) for j, kind in enumerate(kinds)]
    label_task = draw(st.sampled_from(["class", "real"]))
    categories = st.sampled_from(["a", "b", "c", "A", "a b"])
    classes = st.sampled_from(["yes", "no", "maybe"])

    def column(kind, bad):
        if kind == KIND_CATEGORICAL:
            return _cells(categories, 0.0)
        if kind == KIND_LABEL and label_task == "class":
            return _cells(classes, 0.0)
        return _cells(_NUMBERS, bad)

    def draw_rows(bad, n_min):
        n = draw(st.integers(n_min, 12))
        return [[draw(column(kind, bad)) for kind in kinds] for _ in range(n)]

    test_load = draw(st.booleans())
    if test_load:
        # a clean training load fits the schema first
        train = draw_rows(0.0, 1)
        for row in train:
            for j, kind in enumerate(kinds):
                if row[j].strip() in MISSING_TOKENS:
                    row[j] = {KIND_CATEGORICAL: "a", KIND_LABEL: "yes" if label_task == "class" else "1"}.get(
                        kind, row[j])
        schema = encode_categoricals(train, schema, label_task=label_task).schema
    return draw_rows(bad_rate, 0), schema, label_task, draw(st.booleans())


class TestEncodeCategoricals:
    def setup_method(self):
        self.schema = [
            ColumnSchema("blood_type", "categorical", categories=["A", "B", "O", "AB"]),
            ColumnSchema("target", "label", categories=["0", "1"]),
        ]

    def test_dummy_vector(self):
        ds = encode_categoricals([["AB", "1"]], self.schema)
        assert ds.x[0].tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]

    def test_missing_indicator(self):
        ds = encode_categoricals([["", "0"]], self.schema)
        assert ds.x[0].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_numeric_identity(self):
        schema = [ColumnSchema("v", "numeric"), ColumnSchema("target", "label")]
        ds = encode_categoricals([["1.25", "0.5"], ["-3.0", "1.5"]], schema, label_task="real")
        assert ds.x[:, 0].tolist() == [1.25, -3.0]

    def test_empty_category_set(self):
        schema = [ColumnSchema("c", "categorical"), ColumnSchema("target", "label")]
        with pytest.raises(ValueError, match="empty category set"):
            encode_categoricals([["", "0"], ["?", "1"]], schema)

    def test_class_labels_first_seen_order(self):
        schema = [ColumnSchema("v", "numeric"), ColumnSchema("target", "label")]
        ds = encode_categoricals(
            [["1", "cat"], ["2", "dog"], ["3", "cat"]], schema, label_task="class")
        assert ds.label_names == ["cat", "dog"]
        assert ds.y.tolist() == [0, 1, 0]

    @given(st.lists(st.sampled_from(["A", "B", "O", "AB", ""]), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_one_hot_rows(self, values):
        rows = [[v, "1"] for v in values] + [["A", "0"]]
        ds = encode_categoricals(rows, self.schema)
        assert np.all(ds.x.sum(axis=1) == 1.0)

    @given(encode_problems(bad_rate=0.0))
    @settings(max_examples=200, deadline=None)
    def test_column_encoder_matches_per_cell_loop(self, problem):
        rows, schema, label_task, allow_missing = problem
        want = _outcome(reference_encode, rows, schema, label_task, allow_missing)
        assert _outcome(encode_categoricals, rows, schema, label_task, allow_missing) == want

    @given(encode_problems(bad_rate=0.3))
    @settings(max_examples=200, deadline=None)
    def test_first_bad_cell_matches_per_cell_loop(self, problem):
        rows, schema, label_task, allow_missing = problem
        want = _outcome(reference_encode, rows, schema, label_task, allow_missing)
        assert _outcome(encode_categoricals, rows, schema, label_task, allow_missing) == want

    def test_errors_in_row_major_order_on_test_load(self):
        schema = [ColumnSchema("a", "numeric", median=0.0), ColumnSchema("t", "label", categories=["x"]),
                  ColumnSchema("b", "numeric", median=0.0)]
        rows = [["1", "x", "2"], ["1", "x", "bad"], ["bad", "x", "bad"], ["1", "z", "1"]]
        with pytest.raises(ValueError, match=r"^row 2, column 'b': cannot parse 'bad'"):
            encode_categoricals(rows, schema)
        with pytest.raises(ValueError, match=r"^row 3, column 'a'"):
            encode_categoricals([rows[0], rows[0], rows[2], rows[1]], schema)
        with pytest.raises(ValueError, match=r"^row 1: unknown class label 'z'"):
            encode_categoricals([rows[3], rows[2]], schema)

    def test_training_load_raises_in_row_order(self):
        schema = [ColumnSchema("t", "label"), ColumnSchema("a", "numeric"), ColumnSchema("b", "numeric")]
        rows = [["", "1", "1"], ["x", "1", "bad"], ["x", "bad", "1"]]
        # a training load reports the lowest bad row, as a test load does
        with pytest.raises(ValueError, match=r"^row 1: missing label value"):
            encode_categoricals(rows, schema)
        with pytest.raises(ValueError, match=r"^row 1, column 'b'"):
            encode_categoricals(rows[1:], schema)

    def test_empty_category_set_is_reported_before_any_bad_cell(self):
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("c", "categorical"),
                  ColumnSchema("t", "label")]
        with pytest.raises(ValueError, match=r"^column 'c': empty category set"):
            encode_categoricals([["bad", "", ""], ["1", "?", "x"]], schema)


class TestNormalizeLabels:
    def make(self, y):
        y = np.asarray(y, dtype=np.float64)
        return Dataset(x=np.zeros((len(y), 1)), y=y, feature_names=["v"],
                       feature_sources=["v"], binary_dims=np.array([False]),
                       label_kind="real")

    def test_affine_map(self):
        ds = minmax_normalize_labels(self.make([0.0, 5.0, 10.0]))
        assert ds.y.tolist() == [0.0, 0.5, 1.0]
        assert ds.label_bounds == (0.0, 10.0)

    def test_negative_range(self):
        ds = minmax_normalize_labels(self.make([-1.0, 0.0, 1.0]))
        assert ds.y.tolist() == [0.0, 0.5, 1.0]

    def test_constant_labels_error(self):
        with pytest.raises(ValueError, match="constant"):
            minmax_normalize_labels(self.make([3.0, 3.0, 3.0]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=2, max_size=30).filter(lambda v: max(v) > min(v)))
    @settings(max_examples=80, deadline=None)
    def test_inverse_recovers_originals(self, values):
        ds = minmax_normalize_labels(self.make(values))
        back = denormalize_labels(ds.y, ds.label_bounds)
        scale = max(abs(v) for v in values) or 1.0
        assert np.all(np.abs(back - np.asarray(values)) <= 1e-12 * max(scale, 1.0))


class TestSchemaFile:
    def test_round_trip(self, tmp_path):
        schema = [ColumnSchema("a", "numeric"), ColumnSchema("c", "categorical"),
                  ColumnSchema("t", "label")]
        path = tmp_path / "schema.csv"
        write_schema_file(path, "class", schema)
        task, back = read_schema_file(path)
        assert task == "class"
        assert [(c.name, c.kind) for c in back] == [(c.name, c.kind) for c in schema]

    def test_missing_label_task(self, tmp_path):
        path = write(tmp_path, "s.csv", "a,numeric\nt,label\n")
        with pytest.raises(ValueError, match="label_task"):
            read_schema_file(path)

    def test_requires_exactly_one_label(self, tmp_path):
        path = write(tmp_path, "s.csv", "label_task,class\na,numeric\n")
        with pytest.raises(ValueError, match="exactly one label"):
            read_schema_file(path)

    @pytest.mark.parametrize("text, message", [
        ("label_task,maybe\na,numeric\nt,label\n", "schema line 1: label_task must be 'class' or 'real'"),
        ("label_task,class\nage\nt,label\n", "schema line 2: expected 'name,kind'"),
        ("a,numeric\nt,label\n", "schema file is missing the label_task line"),
        ("label_task,class\na,numeric\n", "schema must declare exactly one label column"),
        ("label_task,class\na,text\nt,label\n", "column 'a': unknown kind 'text'"),
    ])
    def test_errors_name_the_file(self, tmp_path, text, message):
        path = write(tmp_path, "s.csv", text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_schema_file(path)
