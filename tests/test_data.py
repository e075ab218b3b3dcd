import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppred.data import (
    ColumnSchema,
    Dataset,
    denormalize_labels,
    encode_categoricals,
    load_csv,
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
