import numpy as np
import pytest

from dppred.data import load_csv, read_schema_file
from dppred.patterns import pattern_matrix
from dppred.synth import (
    SynthConfig,
    generate_medical,
    generate_subtyped_regression,
    medical_rule_labels,
    write_medical_csv,
    write_subtyped_csv,
)

from oracles import matches, subtype_of


def small_cfg(**kw):
    defaults = dict(n_train=800, n_test=400, noise_rate=0.0, seed=5)
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestMedical:
    def test_rule3_fires_for_young_high_lab(self):
        # age 10, lab 0.95: positive regardless of gender and blood type
        labels = medical_rule_labels(np.array([10]), np.array([True]),
                                     np.array([0]), np.array([0.95]))
        assert labels.tolist() == [1]

    def test_adult_male_type_a_high_lab_is_negative(self):
        # no rule fires: rule 1 needs AB, rule 2 needs female+O, rule 3 needs age <= 18
        labels = medical_rule_labels(np.array([30]), np.array([True]),
                                     np.array([0]), np.array([0.99]))
        assert labels.tolist() == [0]

    def test_noise_free_labels_match_rules(self):
        tr, te, rules = generate_medical(small_cfg())
        for ds in (tr, te):
            rule_cols = pattern_matrix(ds.x, rules)
            assert np.array_equal(rule_cols.any(axis=1).astype(np.int64), ds.y)

    def test_ground_truth_patterns_reproduce_labels_via_matches(self):
        tr, _, rules = generate_medical(small_cfg(n_train=100, n_test=10))
        for i in range(tr.n):
            fired = any(matches(p, tr.x[i]) for p in rules)
            assert fired == bool(tr.y[i])

    def test_flip_count_exact(self):
        cfg = small_cfg(n_train=1000, n_test=100, noise_rate=0.013)
        noisy_tr, _, rules = generate_medical(cfg)
        clean_tr, _, _ = generate_medical(small_cfg(n_train=1000, n_test=100, noise_rate=0.0))
        assert int((noisy_tr.y != clean_tr.y).sum()) == int(0.013 * 1000)

    def test_noise_only_touches_training(self):
        cfg = small_cfg(n_train=500, n_test=300, noise_rate=0.01)
        _, noisy_te, _ = generate_medical(cfg)
        _, clean_te, _ = generate_medical(small_cfg(n_train=500, n_test=300))
        assert np.array_equal(noisy_te.y, clean_te.y)

    def test_deterministic(self):
        a, _, _ = generate_medical(small_cfg())
        b, _, _ = generate_medical(small_cfg())
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_feature_ranges(self):
        tr, _, _ = generate_medical(small_cfg())
        ages = tr.x[:, 0]
        assert ages.min() >= 1 and ages.max() <= 60
        assert np.all(ages == ages.astype(int))
        labs = tr.x[:, 9]
        assert labs.min() >= 0.0 and labs.max() < 1.0
        # dummy blocks are one-hot
        assert np.all(tr.x[:, 1:4].sum(axis=1) == 1.0)
        assert np.all(tr.x[:, 4:9].sum(axis=1) == 1.0)

    def test_noise_rate_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(noise_rate=0.5)

    @pytest.mark.parametrize("n_train,n_test", [(0, 5), (5, -1)])
    def test_size_bounds_are_stated(self, n_train, n_test):
        want = f"^n_train must be >= 1 and n_test >= 0, got n_train={n_train}, n_test={n_test}$"
        with pytest.raises(ValueError, match=want):
            SynthConfig(n_train=n_train, n_test=n_test)

    def test_empty_test_set_builds(self):
        _, te, _ = generate_medical(small_cfg(n_train=20, n_test=0))
        assert te.x.shape == (0, 10)


class TestSubtyped:
    def test_deterministic(self):
        a, _ = generate_subtyped_regression(small_cfg(), 3)
        b, _ = generate_subtyped_regression(small_cfg(), 3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_single_subtype_degenerate(self):
        tr, _ = generate_subtyped_regression(small_cfg(), 1)
        assert np.all(subtype_of(tr.x, 1) == 0)

    def test_per_subtype_least_squares_beats_global(self):
        # oracle: linear fits on the raw features, one per latent subtype,
        # must carry lower training MSE than the single global fit
        tr, _ = generate_subtyped_regression(small_cfg(n_train=3000, n_test=10), 2)
        groups = subtype_of(tr.x, 2)
        design = np.column_stack([np.ones(tr.n), tr.x])

        def mse(rows):
            coef, *_ = np.linalg.lstsq(design[rows], tr.y[rows], rcond=None)
            r = design[rows] @ coef - tr.y[rows]
            return float(r @ r)

        sse_global = mse(np.arange(tr.n))
        sse_split = sum(mse(np.flatnonzero(groups == g)) for g in range(2))
        assert sse_split < sse_global * 0.9

    def test_needs_at_least_one_subtype(self):
        with pytest.raises(ValueError):
            generate_subtyped_regression(small_cfg(), 0)


def _same_dataset(a, b):
    assert a.x.tobytes() == b.x.tobytes() and a.x.shape == b.x.shape
    assert a.y.dtype == b.y.dtype and a.y.tobytes() == b.y.tobytes()
    assert a.feature_names == b.feature_names
    assert a.binary_dims.tolist() == b.binary_dims.tolist()
    assert a.label_names == b.label_names
    assert a.schema == b.schema


@pytest.mark.parametrize("seed", [1, 6, 13])
@pytest.mark.parametrize("kind", ["medical", "subtyped-1", "subtyped-3"])
def test_written_csv_loads_as_the_generated_dataset(kind, seed, tmp_path):
    """The files a writer writes, loaded against the generated schema, give
    the generated datasets bit for bit, and the schema file names its columns."""
    cfg = small_cfg(n_train=300, n_test=120, noise_rate=0.01, seed=seed)
    paths = [tmp_path / name for name in ("train.csv", "test.csv", "schema.csv")]
    if kind == "medical":
        train, test, _ = generate_medical(cfg)
        write_medical_csv(cfg, *paths)
    else:
        groups = int(kind.split("-")[1])
        train, test = generate_subtyped_regression(cfg, groups)
        write_subtyped_csv(cfg, groups, *paths)
    label_task, columns = read_schema_file(paths[2])
    assert label_task == train.label_kind
    assert [(c.name, c.kind) for c in columns] == [(c.name, c.kind) for c in train.schema]
    for path, ds in zip(paths, (train, test)):
        _same_dataset(load_csv(path, train.schema, label_task), ds)
