import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfbench_module
from dppred import data, patterns
from dppred.data import Dataset
from dppred.patterns import (
    Condition,
    Pattern,
    compile_rules,
    construct_pattern_space,
    extract_patterns,
    pattern_matrix,
    render_pattern,
    rule_matrix,
)
from dppred.synth import SynthConfig, generate_medical
from dppred.tree import DecisionTree, TreeConfig, TreeNode, fit_forest
from oracles import canonicalize, matches, route, tree_patterns


def leaf():
    return TreeNode(bag_size=1)


def internal(dim, thr, left, right):
    return TreeNode(dim=dim, threshold=thr, left=left, right=right,
                    bag_size=left.bag_size + right.bag_size)


def make_ds(x):
    x = np.asarray(x, dtype=np.float64)
    return Dataset(x=x, y=np.zeros(len(x)), feature_names=[f"f{j}" for j in range(x.shape[1])],
                   feature_sources=[f"f{j}" for j in range(x.shape[1])],
                   binary_dims=np.zeros(x.shape[1], dtype=bool), label_kind="real")


class TestConditionAndPattern:
    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            Pattern(())

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            Condition(0, "le", 1.0)

    def test_matches_paper_style_conjunction(self):
        p = Pattern((Condition(1, "lt", 18.0), Condition(3, "ge", 100.0),
                     Condition(9, "lt", 0.5)))
        x = np.zeros(10)
        x[1], x[3], x[9] = 10.0, 150.0, 0.0
        assert matches(p, x)
        x[1] = 20.0
        assert not matches(p, x)

    def test_dim_out_of_range(self):
        p = Pattern((Condition(5, "ge", 0.0),))
        with pytest.raises(IndexError):
            matches(p, np.zeros(3))

    def test_counter_counts_evaluations(self):
        # the compiled grid makes k x width tests per row: each rule's own
        # conditions, its last one repeated up to the longest rule's length
        p = Pattern((Condition(0, "ge", 0.5), Condition(1, "lt", 0.5)))
        q = Pattern((Condition(1, "ge", 0.5),))
        rules = compile_rules([p, q])
        assert rules.operands.shape == rules.thresholds.shape[:2] == (2, max(p.m, q.m))
        # one operand row per (dim, op) used: x[:, 0], x[:, 1], then -x[:, 1]
        assert rules.dims.tolist() == [0, 1, 1] and rules.first_lt == 2
        assert rules.operands.tolist() == [[0, 2], [1, 1]]
        assert rules.thresholds[..., 0].tolist() == [[0.5, -math.nextafter(0.5, -math.inf)], [0.5, 0.5]]
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.5]])
        assert rule_matrix(rules, x).tolist() == [[True, False], [False, True], [False, True]]

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Condition(-1, "ge", 0.0)


class TestCanonicalize:
    def test_keeps_tightest_bounds(self):
        p = Pattern((Condition(0, "lt", 5.0), Condition(0, "lt", 3.0),
                     Condition(0, "ge", 1.0), Condition(0, "ge", 2.0)))
        c = canonicalize(p)
        assert c.conditions == (Condition(0, "ge", 2.0), Condition(0, "lt", 3.0))

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(["lt", "ge"]),
                  st.floats(-5, 5, allow_nan=False)),
        min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_semantics_preserved(self, raw_conditions):
        p = Pattern(tuple(Condition(d, o, t) for d, o, t in raw_conditions))
        c1 = canonicalize(p)
        assert canonicalize(c1) == c1
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-6, 6, size=4)
            assert matches(p, x) == matches(c1, x)


class TestExtraction:
    def test_stump_yields_one_single_condition_pattern(self):
        stump = DecisionTree(root=internal(2, 0.7, leaf(), leaf()))
        pool = extract_patterns([stump])
        assert len(pool) == 1
        assert pool[0] == Pattern((Condition(2, "ge", 0.7),))

    def test_perfect_depth2_tree_yields_three_patterns(self):
        root = internal(0, 0.5,
                        internal(1, 0.3, leaf(), leaf()),
                        internal(2, 0.9, leaf(), leaf()))
        pool = extract_patterns([DecisionTree(root=root)])
        got = set(pool)
        assert got == {
            Pattern((Condition(0, "ge", 0.5),)),
            canonicalize(Pattern((Condition(0, "lt", 0.5), Condition(1, "ge", 0.3)))),
            canonicalize(Pattern((Condition(0, "ge", 0.5), Condition(2, "ge", 0.9)))),
        }

    def test_duplicate_trees_deduplicate(self):
        stump = DecisionTree(root=internal(2, 0.7, leaf(), leaf()))
        assert len(extract_patterns([stump, stump])) == 1

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            extract_patterns([])

    def test_routing_consistency_on_grown_forest(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=200, n_test=10, noise_rate=0, seed=3))
        forest = fit_forest(tr, TreeConfig(n_trees=5, max_depth=4, min_bag=5, seed=8))
        for tree in forest:
            for pattern, child in tree_patterns(tree):
                for i in range(0, tr.n, 7):
                    visited = any(n is child for n in route(tree.root, tr.x[i]))
                    assert matches(pattern, tr.x[i]) == visited

    def test_pool_bound_before_dedup(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=300, n_test=10, noise_rate=0, seed=3))
        cfg = TreeConfig(n_trees=10, max_depth=5, min_bag=10, seed=8)
        forest = fit_forest(tr, cfg)
        per_tree_bound = min(2 ** cfg.max_depth, -(-tr.n // cfg.min_bag)) - 1
        raw = sum(len(tree_patterns(t)) for t in forest)
        assert raw <= cfg.n_trees * per_tree_bound

    def test_pattern_length_within_depth(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=400, n_test=10, noise_rate=0, seed=3))
        cfg = TreeConfig(n_trees=10, max_depth=6, min_bag=10, seed=8)
        pool = extract_patterns(fit_forest(tr, cfg))
        assert all(1 <= p.m <= cfg.max_depth for p in pool)


class TestPatternSpace:
    def test_always_true_pattern_gives_ones(self):
        ds = make_ds(np.random.default_rng(1).random((6, 2)))
        p = Pattern((Condition(0, "ge", -1.0),))
        col = construct_pattern_space(ds, [p])
        assert col.tolist() == [[1]] * 6

    def test_unsatisfied_row_is_zero(self):
        ds = make_ds(np.zeros((3, 2)))
        pats = [Pattern((Condition(0, "ge", 1.0),)), Pattern((Condition(1, "ge", 2.0),))]
        space = construct_pattern_space(ds, pats)
        assert space.sum() == 0

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(40, 5))
        ds = make_ds(x)
        pats = [
            Pattern((Condition(0, "ge", 0.5),)),
            canonicalize(Pattern((Condition(1, "lt", 0.7), Condition(2, "ge", 0.2)))),
            canonicalize(Pattern((Condition(3, "ge", 0.1), Condition(3, "lt", 0.9),
                                  Condition(4, "lt", 0.5)))),
        ]
        space = construct_pattern_space(ds, pats)
        for i in range(40):
            for j, p in enumerate(pats):
                assert bool(space[i, j]) == matches(p, x[i])
        assert np.array_equal(rule_matrix(compile_rules(pats), x), space.astype(bool))

    def test_dim_out_of_range(self):
        ds = make_ds(np.zeros((2, 2)))
        with pytest.raises(IndexError):
            construct_pattern_space(ds, [Pattern((Condition(7, "ge", 0.0),))])


# finite thresholds at the edges of float64: signed zeros, subnormals, the
# smallest normal, values one ulp apart and the finite extremes; features
# take these, their neighbours, NaN and both infinities
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, math.nextafter(1.0, 2.0),
          math.nextafter(1.0, 0.0), -1.0, 1.7976931348623157e308, -1.7976931348623157e308]
_FINITE = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))
_VALUES = st.one_of(_FINITE, _FINITE.map(lambda v: math.nextafter(v, math.inf)),
                    _FINITE.map(lambda v: math.nextafter(v, -math.inf)),
                    st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def kernel_problems(draw):
    """(rules, x, rows per block): rules of mixed lengths over d features, and
    an (n, d) matrix whose cells often sit on or one ulp off a threshold."""
    d = draw(st.integers(1, 4))
    conditions = st.builds(Condition, st.integers(0, d - 1), st.sampled_from(["lt", "ge"]), _FINITE)
    rules = draw(st.lists(st.lists(conditions, min_size=1, max_size=5).map(tuple).map(Pattern),
                          max_size=6))
    thresholds = [c.threshold for p in rules for c in p.conditions]
    near = st.sampled_from(thresholds).flatmap(lambda t: st.sampled_from(
        [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf), -t]))
    cell = st.one_of(_VALUES, near) if thresholds else _VALUES
    n = draw(st.sampled_from([0, 1, 2, 3, 7]))
    x = np.array(draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n)),
                 dtype=np.float64).reshape(n, d)
    return rules, x, draw(st.sampled_from([1, 2, 1024]))


class TestCompiledKernel:
    @given(kernel_problems())
    @settings(max_examples=300, deadline=None)
    def test_rule_matrix_equals_the_oracle(self, problem):
        rules, x, block_rows = problem
        compiled = compile_rules(rules)
        # one operand row per (dim, op) the rules use, whatever the width of x
        assert len(compiled.dims) == len({(c.dim, c.op) for p in rules for c in p.conditions})
        with mock.patch.object(patterns, "_BLOCK_ROWS", block_rows):
            got = rule_matrix(compiled, x)
        assert got.dtype == bool and got.shape == (len(x), len(rules)) and got.flags.c_contiguous
        assert got.tolist() == [[matches(p, row) for p in rules] for row in x]

    def test_a_wide_table_copies_only_the_features_read(self):
        # 500 features, of which the rules read two, one of them on both sides
        x = np.random.default_rng(3).normal(size=(2100, 500))
        rules = [Pattern((Condition(7, "ge", 0.0), Condition(400, "lt", 0.5))),
                 Pattern((Condition(400, "ge", -0.5),))]
        compiled = compile_rules(rules)
        assert compiled.dims.tolist() == [7, 400, 400] and compiled.first_lt == 2
        assert rule_matrix(compiled, x).tolist() == [[matches(p, row) for p in rules] for row in x]


# thresholds and feature values share one grid, so rows sit exactly on
# thresholds; 0.3 lies between grid points and NaN takes neither side
_GRID = [i / 4 for i in range(-4, 5)]
_DIMS = 3


@st.composite
def random_trees(draw, depth=0):
    if depth == 4 or draw(st.integers(0, 3)) == 0:
        return leaf()
    return internal(draw(st.integers(0, _DIMS - 1)), draw(st.sampled_from(_GRID)),
                    draw(random_trees(depth + 1)), draw(random_trees(depth + 1)))


@st.composite
def random_forests(draw):
    forest = [DecisionTree(root=root) for root in draw(st.lists(random_trees(), min_size=1, max_size=5))]
    copies = draw(st.lists(st.integers(0, len(forest) - 1), max_size=2))
    return forest + [forest[t] for t in copies]


class TestRoutedPool:
    @given(random_forests(),
           st.lists(st.lists(st.sampled_from(_GRID + [0.3, math.nan]), min_size=_DIMS, max_size=_DIMS),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_pool_and_space_equal_the_oracles(self, forest, rows):
        want = list(dict.fromkeys(canonicalize(p) for tree in forest for p, _ in tree_patterns(tree)))
        pool = extract_patterns(forest)
        assert len(pool) == len(want)
        assert list(pool) == want
        assert [[c.threshold.hex() for c in p.conditions] for p in pool] == \
            [[c.threshold.hex() for c in p.conditions] for p in want]
        ds = make_ds(rows)
        space = construct_pattern_space(ds, pool)
        # pattern_matrix is the compiled kernel, not an independent loop, so
        # every cell is also checked against the one-rule, one-row oracle
        assert [[bool(v) for v in row] for row in space] == \
            [[bool(matches(p, x)) for p in pool] for x in ds.x]
        ref = pattern_matrix(ds.x, list(pool))
        assert space.dtype == ref.dtype == np.uint8 and space.flags.c_contiguous
        assert space.shape == ref.shape
        assert space.tobytes() == ref.tobytes()

    def test_leaf_only_forest_gives_an_empty_pool(self):
        pool = extract_patterns([DecisionTree(root=leaf()), DecisionTree(root=leaf())])
        assert len(pool) == 0 and list(pool) == []
        assert construct_pattern_space(make_ds(np.zeros((3, 2))), pool).shape == (3, 0)

    def test_pool_reads_like_a_sequence(self):
        root = internal(0, 0.5, internal(1, 0.3, leaf(), leaf()), leaf())
        pool = extract_patterns([DecisionTree(root=root)])
        assert pool[np.int64(1)] == pool[-1] == Pattern((Condition(0, "lt", 0.5), Condition(1, "ge", 0.3)))
        with pytest.raises(IndexError):
            pool[2]

    def test_split_dim_outside_dataset(self):
        pool = extract_patterns([DecisionTree(root=internal(7, 0.0, leaf(), leaf()))])
        with pytest.raises(IndexError, match="dimension 7"):
            construct_pattern_space(make_ds(np.zeros((2, 2))), pool)

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="not finite"):
            extract_patterns([DecisionTree(root=internal(0, threshold, leaf(), leaf()))])


# sha256 of the pool (one line per rule, conditions as dim:op:float.hex) and
# of the rule-space bytes, for the forest of the first dataset of benchmark
# seed 7; pinned with the condition-by-condition extraction that preceded
# the routed pool
GOLDEN_POOLS = {
    ("medical-forward", 100): (
        1257, "e887836da8a17e7f166e93b721317843196dd2a6b92bb82250ec90fe2f6b50a5",
        "9bad19aee6024a8b507d566fcf4771363a391b52eec8fc834b4ccfdc049593fd"),
    ("subtyped-stratify", 100): (
        4316, "d995d67defda0f7225657e191fa3acdda0d6cab5fc07608fa532107cfa350054",
        "18b6ec7aca3c28abc1eddc3c18adee0a44e56458e28fff2d4d5b396bde8b4670"),
    # the first 40 trees, as ``sweep --param trees`` cuts them
    ("medical-forward", 40): (
        505, "7694029c2456309754cdef5db4a479bbd303e74f487becc01f107d53c9232272",
        "76d3695b05223c41a2cb3b0bb7a4616bac5db8ecdde6e7ef1fdfee03763bf488"),
}


@pytest.mark.parametrize("workload,trees", sorted(GOLDEN_POOLS))
def test_golden_pool_and_space(workload, trees, tmp_path):
    wl = perfbench_module("workloads")
    w = wl.WORKLOADS[workload]
    seed = wl.data_seed(7, 0)
    files = wl.Files.under(tmp_path, "d0")
    wl.write_inputs(w, w.sizes["full"], seed, files)
    label_task, schema = data.read_schema_file(files.schema)
    ds = data.load_csv(files.train, schema, label_task)
    if w.task == "regression":
        ds = data.minmax_normalize_labels(ds)
    forest = fit_forest(ds, wl.hyperparams(w, seed).tree)[:trees]
    pool = extract_patterns(forest)
    space = construct_pattern_space(ds, pool)
    text = "\n".join(" ".join(f"{c.dim}:{c.op}:{float(c.threshold).hex()}" for c in p.conditions)
                     for p in pool)
    size, pool_digest, space_digest = GOLDEN_POOLS[(workload, trees)]
    assert len(pool) == size and space.shape == (ds.n, size) and space.flags.c_contiguous
    assert hashlib.sha256(text.encode()).hexdigest() == pool_digest
    assert hashlib.sha256(space.tobytes()).hexdigest() == space_digest


class TestRendering:
    def test_render_uses_names_and_six_significant_digits(self):
        p = Pattern((Condition(0, "ge", 18.5), Condition(1, "lt", 0.123456789)))
        text = render_pattern(p, ["age", "score"])
        assert text == "(age >= 18.5) AND (score < 0.123457)"
