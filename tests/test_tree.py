import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppred.data import Dataset
from dppred.rng import STREAM_TREE, sub_rng
from dppred.synth import SynthConfig, generate_medical, generate_subtyped_regression
from dppred import tree as tree_mod
from dppred.tree import TreeConfig, fit_forest

from oracles import iter_nodes


def make_ds(x, y, label_kind="class", binary=None):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    d = x.shape[1]
    if binary is None:
        binary = [bool(np.all((x[:, j] == 0) | (x[:, j] == 1))) for j in range(d)]
    return Dataset(x=x, y=np.asarray(y), feature_names=[f"f{j}" for j in range(d)],
                   feature_sources=[f"f{j}" for j in range(d)],
                   binary_dims=np.array(binary), label_kind=label_kind,
                   label_names=["0", "1"] if label_kind == "class" else None)


def one_split(bag, ds, cfg, rng):
    """The engine's best split of one bag, or None."""
    return tree_mod._Grower(ds, cfg).best_splits([np.asarray(bag)], [rng])[0]


def entropy_bits(class_counts):
    """The split search's class entropy of one bag, from its class counts."""
    counts = np.array(class_counts, dtype=np.float64)[:, None]
    return tree_mod._entropy_from_counts(counts, counts.sum(axis=0))[0]


class TestImpurity:
    """The split search's impurities: class entropy in bits and the variance
    of the labels about their mean."""

    def test_uniform_binary_entropy(self):
        assert entropy_bits([2, 2]) == 1.0

    def test_pure_bag(self):
        assert entropy_bits([0, 4]) == 0.0

    def test_two_point_variance(self):
        ds = make_ds([0.0, 1.0], [0.0, 2.0], label_kind="real")
        grower = tree_mod._Grower(ds, TreeConfig(min_bag=1))
        parent = grower._regression_sums(np.arange(2), [], [slice(0, 2)])[-1]
        assert parent.tolist() == [1.0]

    def test_empty_bag(self):
        ds = make_ds(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty dataset"):
            fit_forest(ds, TreeConfig(n_trees=1))

    def test_three_class_entropy(self):
        # 2 bits for four equiprobable classes
        assert entropy_bits([1, 1, 1, 1]) == 2.0


class TestBestRandomSplit:
    def test_perfect_separation_on_dummy_dim(self):
        # single binary dimension: threshold is pinned to 0.5, so any rng
        # must find the full-gain split
        x = np.array([0, 0, 1, 1, 0, 1, 0, 1], dtype=float)
        y = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        ds = make_ds(x, y)
        split = one_split(np.arange(8), ds, TreeConfig(min_bag=1, seed=0), sub_rng(0, 1))
        assert (split.dim, split.threshold) == (0, 0.5)
        assert y[split.left].tolist() == [0] * 4 and y[split.right].tolist() == [1] * 4

    def test_constant_labels_yield_none(self):
        ds = make_ds(np.arange(10, dtype=float), np.ones(10, dtype=int))
        cfg = TreeConfig(min_bag=1, seed=0)
        assert one_split(np.arange(10), ds, cfg, sub_rng(0, 2)) is None

    def test_small_bag_gate(self):
        # 7 < 2 * min_bag: the root stays a leaf and only the bootstrap is drawn
        ds = make_ds(np.arange(7, dtype=float), np.arange(7) % 2)
        rng, ref = sub_rng(0, 3), sub_rng(0, 3)
        tree = tree_mod._Grower(ds, TreeConfig(min_bag=4, seed=0)).grow([rng])[0]
        assert tree.root.is_leaf
        ref.integers(0, 7, size=7)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_children_respect_min_bag(self):
        rng = np.random.default_rng(5)
        x = rng.random(60)
        y = (x > 0.8).astype(int)  # split candidates near the edge are rejected
        ds = make_ds(x, y)
        cfg = TreeConfig(min_bag=15, seed=0)
        split = one_split(np.arange(60), ds, cfg, sub_rng(0, 4))
        if split is not None:
            n_left = int((x < split.threshold).sum())
            assert n_left == len(split.left) >= 15 and len(split.right) >= 15


def reference_split(bag, ds, cfg, rng):
    """The per-node, per-dim split search that lockstep growth replaced:
    (dim, threshold) of the best split, or None.

    Same draws in the same order (``choice`` of ⌈√d⌉ dims, then ``uniform``
    of 16 thresholds per non-binary dim whose range on the bag is not
    zero) and the same arithmetic; the best candidate is the minimum of
    (-gain, dim, threshold).
    Regression sums are the grower's: one product per node of the
    (dims * thresholds, bag) 0/1 matrix, slots without a threshold all
    zero, with [y, y²].
    """
    n_bag = len(bag)
    sigma = cfg.min_bag
    if n_bag < 2 * sigma:
        return None
    classify = ds.label_kind == "class"
    y = ds.y[bag]
    dims = rng.choice(ds.d, size=math.ceil(math.sqrt(ds.d)), replace=False)
    n_thr = 16
    if classify:
        y_int = y.astype(np.int64)
        onehot = (y_int[:, None] == np.arange(int(y_int.max()) + 1)[None, :]).astype(np.float64)
        total_counts = onehot.sum(axis=0)
        parent = float(tree_mod._entropy_from_counts(total_counts[:, None],
                                                     np.array([float(n_bag)]))[0])
    else:
        sum_tot = float(y.sum())
        sumsq_tot = float((y * y).sum())
        parent = max(sumsq_tot / n_bag - (sum_tot / n_bag) ** 2, 0.0)

    grid = np.full((len(dims), n_thr), np.nan)
    for i, dim in enumerate(dims):
        xcol = ds.x[bag, dim]
        if ds.binary_dims[dim]:
            grid[i, 0] = 0.5
        else:
            lo, hi = float(xcol.min()), float(xcol.max())
            if lo != hi:
                grid[i] = rng.uniform(lo, hi, size=n_thr)
    slots = ds.x[bag][:, dims].T[:, None, :] < grid[:, :, None]  # NaN: all zero
    if not classify:
        sums = (slots.reshape(-1, n_bag).astype(np.float64) @ np.column_stack([y, y * y])
                ).reshape(grid.shape + (2,))

    best = None
    for i, dim in enumerate(dims):
        drawn = ~np.isnan(grid[i])
        if not drawn.any():
            continue
        thresholds = grid[i, drawn]
        masks = slots[i, drawn].T
        n_left = masks.sum(axis=0).astype(np.float64)
        n_right = n_bag - n_left
        usable = (n_left >= sigma) & (n_right >= sigma)
        if not usable.any():
            continue
        if classify:
            left_counts = onehot.T @ masks
            right_counts = total_counts[:, None] - left_counts
            imp_l = tree_mod._entropy_from_counts(left_counts, n_left)
            imp_r = tree_mod._entropy_from_counts(right_counts, n_right)
        else:
            s1, s2 = sums[i, drawn].T
            with np.errstate(divide="ignore", invalid="ignore"):
                imp_l = np.where(n_left > 0, s2 / n_left - (s1 / n_left) ** 2, 0.0)
                imp_r = np.where(n_right > 0, (sumsq_tot - s2) / n_right
                                 - ((sum_tot - s1) / n_right) ** 2, 0.0)
            imp_l = np.maximum(imp_l, 0.0)
            imp_r = np.maximum(imp_r, 0.0)
        gains = parent - (n_left * imp_l + n_right * imp_r) / n_bag
        for t in np.flatnonzero(usable):
            gain = float(gains[t])
            if gain <= tree_mod._GAIN_EPS * max(1.0, parent):
                continue
            cand = (-gain, int(dim), float(thresholds[t]))
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    return best[1:]


@st.composite
def split_problems(draw, real_valued=False):
    """Small datasets (duplicate values, duplicate columns, binary dims) and
    several bags, so gains tie across thresholds and dims. Features are the
    integers 0-4, or with ``real_valued`` signed reals of magnitude 1e-6 to
    1e8, some repeated, so a threshold drawn between them is rarely exact."""
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if real_valued:
        values = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-6, 8, size=n)
        x = values[rng.integers(0, draw(st.integers(1, n)), size=(n, d))]
        middle = 0.0
    else:
        levels = draw(st.integers(1, 4))
        x = rng.integers(0, levels + 1, size=(n, d)).astype(np.float64)
        middle = levels / 2
    binary = rng.random(d) < 0.4
    x[:, binary] = x[:, binary] > middle
    if d > 1 and draw(st.booleans()):
        x[:, 1], binary[1] = x[:, 0], binary[0]
    kind = draw(st.sampled_from(["class2", "class3", "real", "real-ties"]))
    if kind == "real":
        # sums of these labels round, so a change in BLAS summation order shows
        ds = make_ds(x, rng.random(n) * 10.0, label_kind="real", binary=binary)
    elif kind == "real-ties":
        ds = make_ds(x, rng.integers(0, 5, size=n) / 4.0, label_kind="real", binary=binary)
    else:
        ds = make_ds(x, rng.integers(0, 2 if kind == "class2" else 3, size=n), binary=binary)
        ds.label_names = ["a", "b", "c"][:int(ds.y.max()) + 1]
    cfg = TreeConfig(min_bag=draw(st.integers(1, 4)))
    sizes = draw(st.lists(st.integers(2 * cfg.min_bag, 8 * n), min_size=1, max_size=4))
    bags = [rng.integers(0, n, size=size) for size in sizes]
    return ds, cfg, bags, seed


def check_batch_against_reference(problem):
    """One batched search over all bags gives each bag the reference split,
    child bags and generator state."""
    ds, cfg, bags, seed = problem
    rngs = [np.random.default_rng([seed, b]) for b in range(len(bags))]
    refs = [np.random.default_rng([seed, b]) for b in range(len(bags))]
    grower = tree_mod._Grower(ds, cfg)
    got = grower.best_splits(bags, rngs)
    for bag, split, rng, ref_rng in zip(bags, got, rngs, refs):
        want = reference_split(bag, ds, cfg, ref_rng)
        assert (None if split is None else split[:2]) == want
        if split is not None:
            goes_left = ds.x[bag, split.dim] < split.threshold
            assert np.array_equal(split.left, bag[goes_left])
            assert np.array_equal(split.right, bag[~goes_left])
        # the same draws were made: both generators are at the same state
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _layout_cases():
    """Deterministic batches for the candidate layout of ``best_splits``: a
    binary slot has one candidate, a numeric one 16, or none when its dim is
    constant on the bag. Each is (ds, cfg, bags, seed, the property it pins)."""
    gen = np.random.default_rng(8)
    n = 80
    numeric = gen.random(n)
    flag = (gen.random(n) < 0.5).astype(float)
    mixed = make_ds(np.column_stack([numeric, flag]), ((numeric > 0.4) ^ (flag > 0)).astype(int))
    marked = make_ds(np.column_stack([numeric, flag]), ((numeric > 0.9) ^ (flag > 0)).astype(int))
    # rows 0-39 split on the binary dim only, rows 40-79 on the numeric one
    level = np.where(np.arange(n) < 40, 0.25, numeric)
    flat = make_ds(np.column_stack([level, flag]), np.where(np.arange(n) < 40, flag, level > 0.5))
    three = make_ds(np.column_stack([numeric, (numeric * 7).astype(int) % 3 * 0.5, flag]),
                    ((numeric * 3).astype(int) + flag.astype(int)) % 3)
    three.label_names = ["a", "b", "c"]
    cfg = TreeConfig(min_bag=3)
    zeros, ones = np.flatnonzero(flag == 0), np.flatnonzero(flag == 1)
    return {
        # seed 0: bags 0 and 1 sample dim 0 first, bag 2 dim 1
        "slot-binary-in-one-node-numeric-in-another": (
            mixed, cfg, [gen.integers(0, n, 50) for _ in range(3)], 0),
        # the constant binary pair of bag 2 comes first, then bag 0 splits on its flag
        "binary-dim-constant-on-its-bag": (
            marked, cfg, [gen.integers(0, n, 40), ones[gen.integers(0, len(ones), 30)],
                          zeros[gen.integers(0, len(zeros), 30)]], 0),
        # the constant numeric pairs of bags 0 and 1 come first, then bag 2
        # splits on its numeric dim
        "numeric-dim-constant-on-its-bag": (
            flat, cfg, [gen.integers(0, 40, 30), gen.integers(0, 40, 30),
                        gen.integers(40, n, 40)], 0),
        "three-classes": (three, cfg, [gen.integers(0, n, size) for size in (70, 30, 50, 24)], 2),
    }


def _sampled_dims(ds, seed, n_bags):
    """The dims each bag of ``check_batch_against_reference`` samples, in slot order."""
    n_dims = math.ceil(math.sqrt(ds.d))
    return [np.random.default_rng([seed, b]).choice(ds.d, size=n_dims, replace=False).tolist()
            for b in range(n_bags)]


class TestBatchedSplitOracle:
    @pytest.mark.parametrize("case", sorted(_layout_cases()))
    def test_candidate_layout_matches_reference(self, case):
        ds, cfg, bags, seed = _layout_cases()[case]
        dims = _sampled_dims(ds, seed, len(bags))
        # each case has what it is named for
        if case == "slot-binary-in-one-node-numeric-in-another":
            assert {bool(ds.binary_dims[d[0]]) for d in dims} == {True, False}
        elif case == "binary-dim-constant-on-its-bag":
            assert dims[2][0] == 1 and len(np.unique(ds.x[bags[2], 1])) == 1
        elif case == "numeric-dim-constant-on-its-bag":
            assert dims[0][0] == 0 and len(np.unique(ds.x[bags[0], 0])) == 1
        else:
            assert len(np.unique(ds.y)) == 3
        check_batch_against_reference((ds, cfg, bags, seed))

    @given(split_problems())
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_reference_per_bag(self, problem):
        check_batch_against_reference(problem)

    @given(split_problems(real_valued=True))
    @settings(max_examples=100, deadline=None)
    def test_real_valued_features_match_reference(self, problem):
        # thresholds drawn over wide, signed ranges: the batched
        # lo + (hi - lo) * random() must give uniform()'s bits
        check_batch_against_reference(problem)

    @given(split_problems())
    @settings(max_examples=50, deadline=None)
    def test_one_node_call_matches_reference(self, problem):
        ds, cfg, bags, seed = problem
        got = one_split(bags[0], ds, cfg, np.random.default_rng(seed))
        assert (None if got is None else got[:2]) == reference_split(
            bags[0], ds, cfg, np.random.default_rng(seed))


class TestFitTree:
    def test_depth_one_is_a_stump(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=300, n_test=10, noise_rate=0, seed=1))
        tree = fit_forest(tr, TreeConfig(n_trees=1, max_depth=1, seed=2))[0]
        internal = [n for n, _ in iter_nodes(tree.root) if not n.is_leaf]
        assert len(internal) <= 1

    def test_huge_min_bag_gives_single_leaf(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=100, n_test=10, noise_rate=0, seed=1))
        tree = fit_forest(tr, TreeConfig(n_trees=1, min_bag=60, seed=2))[0]  # 2 * 60 > 100
        assert tree.root.is_leaf

    def test_pure_labels_give_single_leaf(self):
        ds = make_ds(np.random.default_rng(0).random(50), np.ones(50, dtype=int))
        tree = fit_forest(ds, TreeConfig(n_trees=1, seed=3))[0]
        assert tree.root.is_leaf

    def test_no_features_give_single_leaves(self):
        ds = make_ds(np.empty((30, 0)), np.arange(30) % 2)
        assert all(t.root.is_leaf for t in fit_forest(ds, TreeConfig(n_trees=3, seed=1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_named(self, value):
        tr, _, _ = generate_medical(SynthConfig(n_train=100, n_test=10, noise_rate=0, seed=1))
        x = tr.x.copy()
        x[9, 0] = x[5, 3] = value  # the first bad row is named, not the first bad column
        tr.x = x
        want = f"row 5 holds the non-finite value {value} in feature {tr.feature_names[3]!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            fit_forest(tr, TreeConfig(n_trees=2, seed=1))

    def test_pure_regression_labels_give_single_leaf(self):
        ds = make_ds(np.random.default_rng(0).random(50), np.full(50, 0.1),
                     label_kind="real")
        tree = fit_forest(ds, TreeConfig(n_trees=1, seed=3))[0]
        assert tree.root.is_leaf


# --- golden forests ---------------------------------------------------------
#
# sha256 of forest signatures grown by the per-node recursive grower that
# preceded lockstep growth. A signature lists, tree after tree in preorder,
# every node's dim, threshold (hex) and bag size, so any change to a draw,
# a split or a tie-break moves it.
# mixed-3class, subtyped-regression and min-bag-edge set their own counts
# of sampled dims or thresholds until the split search fixed them at
# ⌈√d⌉ dims and 16 thresholds; they were re-pinned then.
# medical-large and subtyped-large were pinned later, by the lockstep grower,
# as the first cases whose bags are wider than `_BATCH_ROWS`.

def _mixed_features(n, seed):
    """Numeric dims (one with few distinct values, one constant) and dummy dims."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([
        rng.random(n),
        rng.integers(0, 3, n) * 0.25,  # duplicates, and constant in small bags
        np.full(n, 0.7),               # never splittable
        rng.normal(size=n),
        rng.integers(0, 2, n),         # binary
        (rng.random(n) < 0.15),        # binary, often constant in a bag
    ]).astype(np.float64)
    return x, rng


def _golden_cases():
    med, _, _ = generate_medical(SynthConfig(n_train=400, n_test=1, noise_rate=0.01, seed=3))
    x, rng = _mixed_features(300, 21)
    three = make_ds(x, (x[:, 0] * 3 + (x[:, 4] - 0.5) * rng.random(300)).astype(int) % 3)
    three.label_names = ["a", "b", "c"]
    real = make_ds(x, x[:, 0] + 0.5 * x[:, 4] - 0.3 * x[:, 5] + 0.1 * rng.normal(size=300),
                   label_kind="real")
    sub, _ = generate_subtyped_regression(SynthConfig(n_train=300, n_test=1, seed=5), 3)
    edge = make_ds(x[:40], (x[:40, 0] > 0.5).astype(int))
    noisy = make_ds(x[:40], ((x[:40, 0] * 4).astype(int) + x[:40, 4].astype(int)) % 2)
    # 5,000-row bags, wider than `_BATCH_ROWS`: a batch then holds up to n rows
    med_large, _, _ = generate_medical(SynthConfig(n_train=5000, n_test=1, noise_rate=0.01, seed=4))
    sub_large, _ = generate_subtyped_regression(SynthConfig(n_train=5000, n_test=1, seed=6), 3)
    return {
        "medical-2class": (med, TreeConfig(n_trees=8, seed=11)),
        "mixed-3class": (three, TreeConfig(n_trees=6, max_depth=5, min_bag=4, seed=12)),
        "mixed-regression": (real, TreeConfig(n_trees=6, max_depth=5, min_bag=4, seed=13)),
        "subtyped-regression": (sub, TreeConfig(n_trees=6, seed=14)),
        # a 40-row bag splits only 20/20, and no child can split again
        "min-bag-edge": (edge, TreeConfig(n_trees=6, min_bag=20, seed=15)),
        "min-bag-one": (noisy, TreeConfig(n_trees=4, max_depth=8, min_bag=1, seed=16)),
        "medical-large": (med_large, TreeConfig(n_trees=3, seed=17)),
        "subtyped-large": (sub_large, TreeConfig(n_trees=3, seed=18)),
    }


def forest_digest(forest):
    lines = [f"{node.dim} {float(node.threshold).hex()} {node.bag_size}"
             for tree in forest for node, _ in iter_nodes(tree.root)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


GOLDEN_FOREST_DIGESTS = {
    "medical-large": "d0a79c3c95e91d69719c8c747390d620c553c8961d01dbc80f4678478a46fbbf",
    "medical-2class": "177946ac0f4e72d9aa4b79e1495a5c2ae131a73431d2106a1db8fa4a768662b1",
    "min-bag-edge": "57bc52b5f1e1edae71f49b94c47b80f5619618e53b70b917f4777b3862abcc06",
    "min-bag-one": "c32146b55022def7177f9c646a21dd1263640008e8f1633b64b9c2274d8d8e50",
    "mixed-3class": "7ca5069561e97673a591842ec13311d1154ce23590e6eccaf3e3c09cb16f2d1a",
    "mixed-regression": "2092fa781c4f9765c270865c26f920285a6da2d73ae718634f8cc666e3b40f89",
    "subtyped-large": "df971e5a30f63b6eb947cce0ca86785b594f6ed8d160e743b7ea254236196eea",
    "subtyped-regression": "6413951d5739801af517f98f0efc54a533cc76ec20ba032e780b40aaca15a9fe",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FOREST_DIGESTS))
def test_golden_forest(case):
    ds, cfg = _golden_cases()[case]
    assert forest_digest(fit_forest(ds, cfg)) == GOLDEN_FOREST_DIGESTS[case]


class TestForest:
    def test_single_tree_matches_derived_seed(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=400, n_test=10, noise_rate=0, seed=1))
        cfg = TreeConfig(n_trees=1, seed=9)
        forest = fit_forest(tr, cfg)
        again = tree_mod._Grower(tr, cfg).grow([sub_rng(9, STREAM_TREE, 0)])[0]
        assert _tree_signature(forest[0].root) == _tree_signature(again.root)

    def test_every_tree_matches_its_derived_seed(self):
        x, _ = _mixed_features(200, 3)
        for ds in (make_ds(x, (x[:, 0] > 0.4).astype(int)),
                   make_ds(x, x[:, 0] + x[:, 4], label_kind="real")):
            cfg = TreeConfig(n_trees=7, max_depth=4, min_bag=5, seed=31)
            forest = fit_forest(ds, cfg)
            for t, tree in enumerate(forest):
                alone = tree_mod._Grower(ds, cfg).grow([sub_rng(31, STREAM_TREE, t)])[0]
                assert forest_digest([tree]) == forest_digest([alone])

    @pytest.mark.parametrize("case", sorted(GOLDEN_FOREST_DIGESTS))
    # _BATCH_ROWS sets the cell budget, _BATCH_ROWS * (dims * 16) cells, and a
    # batch holds as many rows as that budget gives the most real cells a row
    # can need, or the training rows when more: 1.88 rows a unit on medical
    # (34 cells a row), 1 a unit where no dim is binary
    @pytest.mark.parametrize("limit,rows", [
        ("_BATCH_ROWS", 1),      # a budget below one bag: batches of one bootstrap bag's rows
        ("_BATCH_ROWS", 500),    # 500-941 rows: cuts inside a step of the 300- and 400-row sets
        ("_BATCH_ROWS", 1 << 13),  # 8,192 rows or more: one batch a step of those sets
        ("_CHUNK_ROWS", 1),      # one tree at a time
        ("_CHUNK_ROWS", 600),    # two trees at a time
    ])
    def test_batching_does_not_move_bits(self, case, limit, rows, monkeypatch):
        ds, cfg = _golden_cases()[case]
        monkeypatch.setattr(tree_mod, limit, rows)
        assert forest_digest(fit_forest(ds, cfg)) == GOLDEN_FOREST_DIGESTS[case]

    def test_batches_are_sized_in_candidate_cells(self):
        # the cell budget of a dense mask of 4,096 rows, over the most real
        # candidate cells a row can need
        med, _, _ = generate_medical(SynthConfig(n_train=1000, n_test=1, seed=1))
        sub, _ = generate_subtyped_regression(SynthConfig(n_train=1000, n_test=1, seed=1), 3)
        # medical: 4 sampled of 10 dims, 2 of them numeric: 2 * 16 + 2 = 34 cells
        assert tree_mod._Grower(med, TreeConfig()).batch_rows == 4 * 16 * 4096 // 34 == 7710
        # subtyped: 3 sampled of 8 numeric dims, 48 cells: the dense mask's rows
        assert tree_mod._Grower(sub, TreeConfig()).batch_rows == 4096

    def test_forest_memory_is_bounded(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=1000, n_test=10, noise_rate=0.001, seed=1))
        tracemalloc.start()
        try:
            fit_forest(tr, TreeConfig(seed=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.36 MiB traced with a dense (dims, thresholds, rows) mask of 4,096 rows
        assert peak < 3.4 * 2**20
        # the split search's buffers hold the cell budget however many trees grow
        for trees in (10, 100):
            grower = tree_mod._Grower(tr, TreeConfig(n_trees=trees, seed=7))
            assert grower.mask_buf.size == grower.class_buf.size == 7710 * 34 <= 4 * 16 * 4096

    def test_deterministic_forest(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=400, n_test=10, noise_rate=0, seed=1))
        cfg = TreeConfig(n_trees=5, seed=4)
        sig_a = [_tree_signature(t.root) for t in fit_forest(tr, cfg)]
        sig_b = [_tree_signature(t.root) for t in fit_forest(tr, cfg)]
        assert sig_a == sig_b

    def test_structural_constraints_hold(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=1000, n_test=10, noise_rate=0.001, seed=1))
        cfg = TreeConfig(n_trees=100, max_depth=6, min_bag=10, seed=7)
        forest = fit_forest(tr, cfg)
        for tree in forest:
            assert tree.root.bag_size == tr.n
            for node, depth in iter_nodes(tree.root):
                assert depth <= cfg.max_depth
                assert node.bag_size >= cfg.min_bag
                if not node.is_leaf:
                    assert node.left.bag_size + node.right.bag_size == node.bag_size
                    assert node.left.bag_size >= cfg.min_bag
                    assert node.right.bag_size >= cfg.min_bag

    def test_nonleaf_count_bound(self):
        tr, _, _ = generate_medical(SynthConfig(n_train=500, n_test=10, noise_rate=0, seed=1))
        cfg = TreeConfig(n_trees=20, max_depth=4, min_bag=10, seed=7)
        bound = min(2 ** cfg.max_depth, -(-tr.n // cfg.min_bag)) - 1
        for tree in fit_forest(tr, cfg):
            internal = sum(1 for n, _ in iter_nodes(tree.root) if not n.is_leaf)
            assert internal <= bound


def _tree_signature(node):
    if node.is_leaf:
        return ("leaf", node.bag_size)
    return ("node", node.dim, node.threshold,
            _tree_signature(node.left), _tree_signature(node.right))
