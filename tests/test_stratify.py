import dataclasses
import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppred import stratify
from dppred.data import minmax_normalize_labels
from dppred.model import HyperParams, evaluate, predict
from dppred.model import train as train_flat
from dppred.patterns import construct_pattern_space
from dppred.selection import NoRulesError
from dppred.stratify import (
    StratifyConfig,
    _assign,
    assign_clusters,
    cluster_patients,
    predict_stratified,
    load_stratified,
    save_stratified,
    train_stratified,
    importance_rows,
    write_importance_csv,
)
from dppred.synth import SynthConfig, generate_medical, generate_subtyped_regression
from dppred.tree import TreeConfig
from oracles import refit_on_patterns


def adjusted_rand_index(a, b):
    """Plain combinatorial ARI; independent of any clustering code."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    classes_a = np.unique(a)
    classes_b = np.unique(b)
    table = np.array([[(np.logical_and(a == i, b == j)).sum() for j in classes_b]
                      for i in classes_a])

    def comb2(v):
        return v * (v - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def disjoint_block_bits(n_per_block=40, width=6, seed=0):
    """Two instance groups satisfying disjoint rule blocks."""
    gen = np.random.default_rng(seed)
    bits = np.zeros((2 * n_per_block, 2 * width), dtype=np.uint8)
    for i in range(n_per_block):
        bits[i, gen.integers(0, width, size=3)] = 1
        bits[n_per_block + i, width + gen.integers(0, width, size=3)] = 1
    return bits


class TestClusterPatients:
    def test_disjoint_blocks_recovered(self):
        bits = disjoint_block_bits()
        cfg = StratifyConfig(n_clusters=2, gibbs_iterations=150, seed=3)
        assignments, topics = cluster_patients(bits, cfg)
        truth = np.repeat([0, 1], 40)
        assert adjusted_rand_index(assignments, truth) == 1.0

    def test_topics_are_distributions(self):
        bits = disjoint_block_bits(seed=5)
        cfg = StratifyConfig(n_clusters=3, gibbs_iterations=100, seed=1)
        _, topics = cluster_patients(bits, cfg)
        assert topics.shape == (3, bits.shape[1])
        assert np.all(topics >= 0)
        assert np.all(np.abs(topics.sum(axis=1) - 1.0) <= 1e-9)

    def test_single_cluster(self):
        bits = disjoint_block_bits(seed=2)
        cfg = StratifyConfig(n_clusters=1, gibbs_iterations=50, seed=1)
        assignments, _ = cluster_patients(bits, cfg)
        assert np.all(assignments == 0)

    def test_deterministic(self):
        bits = disjoint_block_bits(seed=9)
        cfg = StratifyConfig(n_clusters=2, gibbs_iterations=120, seed=8)
        a1, t1 = cluster_patients(bits, cfg)
        a2, t2 = cluster_patients(bits, cfg)
        assert np.array_equal(a1, a2)
        assert np.array_equal(t1, t2)

    def test_empty_bags_go_to_cluster_zero(self):
        # as in serving: an empty bag has no topic counts to move it
        bits = disjoint_block_bits(seed=4)
        bits[5] = 0
        bits[50] = 0
        cfg = StratifyConfig(n_clusters=2, gibbs_iterations=80, seed=2)
        assignments, _ = cluster_patients(bits, cfg)
        assert assignments[5] == 0
        assert assignments[50] == 0


# --- the sampler against its row-major form ---------------------------------
#
# The sampler as it was before the slot-major layout: padded (n, width)
# token and mask grids, float counts, one rng.random per slot pass. The
# slot-major sampler must return the same bits and leave the generator in
# the same state.

def reference_bits_to_tokens(bits, rng):
    bits = np.asarray(bits)
    n = bits.shape[0]
    counts = bits.sum(axis=1).astype(np.int64)
    width = int(counts.max()) if n else 0
    tokens = np.zeros((n, max(width, 1)), dtype=np.int64)
    mask = np.zeros((n, max(width, 1)), dtype=bool)
    for i in range(n):
        ids = np.flatnonzero(bits[i])
        if len(ids) > 1:
            ids = ids[rng.permutation(len(ids))]
        tokens[i, :len(ids)] = ids
        mask[i, :len(ids)] = True
    return tokens, mask


def reference_gibbs_train(tokens, mask, n_topics, n_words, alpha, beta, iterations, rng):
    n, width = tokens.shape
    z = rng.integers(0, n_topics, size=(n, width))
    valid_docs, _ = np.nonzero(mask)

    ckw = np.zeros((n_topics, n_words))
    np.add.at(ckw, (z[mask], tokens[mask]), 1.0)
    cd = np.zeros((n, n_topics))
    np.add.at(cd, (valid_docs, z[mask]), 1.0)
    ck = ckw.sum(axis=1)

    burn_in = iterations // 2
    ckw_acc = np.zeros_like(ckw)

    for sweep in range(iterations):
        for j in rng.permutation(width):
            act = mask[:, j]
            if not act.any():
                continue
            docs = np.flatnonzero(act)
            words = tokens[docs, j]
            old = z[docs, j]
            np.add.at(ckw, (old, words), -1.0)
            np.add.at(ck, old, -1.0)
            cd[docs, old] -= 1.0

            word_part = (ckw[:, words].T + beta) / (ck + n_words * beta)[None, :]
            probs = word_part * (cd[docs] + alpha)
            cum = np.cumsum(probs, axis=1)
            draws = rng.random(len(docs)) * cum[:, -1]
            new = (cum < draws[:, None]).sum(axis=1)

            z[docs, j] = new
            np.add.at(ckw, (new, words), 1.0)
            np.add.at(ck, new, 1.0)
            cd[docs, new] += 1.0
        if sweep >= burn_in:
            ckw_acc += ckw

    return ckw_acc / (iterations - burn_in)


@st.composite
def sampler_inputs(draw):
    """(bits, topics, iterations, alpha, beta, seed): bags of 0 to 12 rules,
    empty rows at times, all of them at times, one row at times."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rules = draw(st.integers(1, 12))
    n_rows = draw(st.sampled_from([1, 2, 7, 40, 90]))
    bits = (gen.random((n_rows, n_rules)) < draw(st.floats(0.0, 1.0))).astype(np.uint8)
    bits[gen.random(n_rows) < draw(st.sampled_from([0.0, 0.3]))] = 0
    return (bits, draw(st.integers(1, 5)), draw(st.integers(1, 3)),
            draw(st.sampled_from([0.05, 1 / 3, 2.0])), draw(st.sampled_from([0.01, 0.1, 1.5])),
            draw(st.integers(0, 1000)))


def _sampled(bits, n_topics, iterations, alpha, beta, seed, reference):
    rng = np.random.default_rng(seed)
    n_words = bits.shape[1]
    if reference:
        tokens, mask = reference_bits_to_tokens(bits, rng)
        ckw = reference_gibbs_train(tokens, mask, n_topics, n_words, alpha, beta, iterations, rng)
    else:
        docs, words = stratify._bits_to_tokens(bits, rng)
        ckw = stratify._gibbs_train(docs, words, bits.shape[0], n_topics, n_words, alpha, beta,
                                    iterations, rng)
    return ckw.shape, ckw.dtype, ckw.tobytes(), rng.random()


class TestSamplerOracle:
    @given(sampler_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_row_major_sampler(self, case):
        assert _sampled(*case, reference=False) == _sampled(*case, reference=True)

    @pytest.mark.parametrize("bits", [
        np.zeros((6, 4), dtype=np.uint8),                    # no row holds a rule
        np.zeros((0, 4), dtype=np.uint8),                    # no row at all
        np.array([[1, 0, 1, 1, 0, 1, 1]], dtype=np.uint8),   # a single row
        np.ones((3, 12), dtype=np.uint8),                    # the widest bags
    ])
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_edge_matrices(self, bits, iterations):
        for n_topics in (1, 4):
            case = (bits, n_topics, iterations, 0.5, 0.1, 17)
            assert _sampled(*case, reference=False) == _sampled(*case, reference=True)

    def test_benchmark_sized_bags(self):
        # 300 rows of up to 12 rules over 30, three topics and 40 sweeps
        gen = np.random.default_rng(44)
        bits = (gen.random((300, 30)) < gen.random((300, 1)) * 0.4).astype(np.uint8)
        case = (bits, 3, 40, 1 / 3, 0.1, 5)
        assert _sampled(*case, reference=False) == _sampled(*case, reference=True)


def reference_fold_in(topics, cfg, bits):
    """``theta`` of the fold-in EM of ``_assign``'s docstring, one row at a
    time: no dedupe, each mix summed over topics in order, and each row's
    satisfied rules added one at a time in ascending order."""
    a = np.asarray(topics, dtype=np.float64).T          # (rules, topics)
    n_topics = a.shape[1]
    thetas = np.empty((len(bits), n_topics))
    for i, row in enumerate(np.asarray(bits)):
        words = np.flatnonzero(row)
        theta = np.full(n_topics, 1.0 / n_topics)
        for _ in range(cfg.fold_in_iterations):
            resp = np.zeros(n_topics)
            for w in words:
                mix = 0.0
                for k in range(n_topics):
                    mix = mix + theta[k] * a[w, k]
                resp = resp + a[w] / mix
            theta = (cfg.alpha + theta * resp) / (len(words) + n_topics * cfg.alpha)
        thetas[i] = theta
    return thetas


@st.composite
def fold_in_batches(draw):
    """(topics, config, bits): a few distinct bags, the empty one among them
    at times, repeated and shuffled into a batch."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_topics = draw(st.integers(1, 10))
    n_rules = draw(st.integers(1, 19))
    topics = gen.random((n_topics, n_rules)) + 0.01
    topics /= topics.sum(axis=1, keepdims=True)
    bags = gen.random((draw(st.integers(1, 6)), n_rules)) < draw(st.floats(0.05, 0.9))
    if draw(st.booleans()):
        bags[0] = False
    bits = bags[gen.integers(0, len(bags), size=draw(st.integers(0, 40)))]
    bits = bits.astype(draw(st.sampled_from([bool, np.uint8, np.float64])))
    cfg = StratifyConfig(n_clusters=n_topics, lda_alpha=draw(st.sampled_from([None, 0.05, 1.0])),
                         fold_in_iterations=draw(st.integers(1, 30)))
    return topics, cfg, bits


class TestFoldIn:
    def test_reproduces_training_clusters(self):
        # the planted two-block bags of acceptance criterion 9, which repeat rows
        bits = disjoint_block_bits(seed=909)
        assert len(np.unique(bits, axis=0)) < len(bits)
        cfg = StratifyConfig(n_clusters=2, gibbs_iterations=200, seed=2)
        assignments, topics = cluster_patients(bits, cfg)
        want = np.argmax(reference_fold_in(topics, cfg, bits), axis=1)
        assert assignments.tolist() == want.tolist()

    @given(fold_in_batches())
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_row_at_a_time_reference(self, batch):
        topics, cfg, bits = batch
        theta = reference_fold_in(topics, cfg, bits)
        assert np.array_equal(stratify._fold_in(topics, cfg, bits), theta)
        want = np.argmax(theta, axis=1).tolist()
        known = {}
        got = _assign(topics, cfg, bits, known)
        perm = np.random.default_rng(len(bits)).permutation(len(bits))
        shuffled = _assign(topics, cfg, bits[perm], {})
        assert got.tolist() == want
        assert shuffled.tolist() == [want[i] for i in perm]
        assert _assign(topics, cfg, bits[perm], known).tolist() == [want[i] for i in perm]
        assert all(c == 0 for c, row in zip(got, bits) if not row.any())

    @pytest.mark.parametrize("n_topics", [3, 9])
    def test_a_row_alone_has_its_theta_in_a_shuffled_batch(self, n_topics):
        gen = np.random.default_rng(24)
        n_rules = 30
        topics = gen.random((n_topics, n_rules)) + 0.01
        topics /= topics.sum(axis=1, keepdims=True)
        cfg = StratifyConfig(n_clusters=n_topics, fold_in_iterations=50)
        bits = gen.random((60, n_rules)) < gen.random((60, 1))
        bits[:3] = False
        bits[1] = True
        bits[2, 7] = True
        perm = gen.permutation(len(bits))
        batch = stratify._fold_in(topics, cfg, bits[perm])
        for i in range(len(bits)):
            alone = stratify._fold_in(topics, cfg, bits[i:i + 1])
            assert np.array_equal(alone[0], batch[np.flatnonzero(perm == i)[0]])
        # the empty bag, the all-rules bag and a one-rule bag
        assert np.array_equal(stratify._fold_in(topics, cfg, bits[:3]),
                              reference_fold_in(topics, cfg, bits[:3]))

    def test_empty_bag_goes_to_cluster_zero(self):
        bits = disjoint_block_bits(seed=909)
        cfg = StratifyConfig(n_clusters=3, gibbs_iterations=50, seed=7)
        _, topics = cluster_patients(bits, cfg)
        empty = np.zeros((1, bits.shape[1]), dtype=np.uint8)
        for batch in (empty, np.vstack([bits, empty]), np.vstack([empty, bits, empty]), empty):
            empty_rows = ~batch.any(axis=1)
            assert _assign(topics, cfg, batch, {})[empty_rows].tolist() == [0] * int(empty_rows.sum())

    def test_empty_bag_goes_to_cluster_zero_on_a_miss_and_on_a_hit(self):
        bits = disjoint_block_bits(seed=909)
        cfg = StratifyConfig(n_clusters=3, gibbs_iterations=50, seed=7)
        _, topics = cluster_patients(bits, cfg)
        empty = np.zeros((1, bits.shape[1]), dtype=np.uint8)
        known = {}
        assert _assign(topics, cfg, empty, known).tolist() == [0]
        assert list(known.values()) == [0]
        with mock.patch.object(stratify, "_fold_in", side_effect=AssertionError("folded in again")):
            assert _assign(topics, cfg, empty, known).tolist() == [0]
        assert len(known) == 1

    def test_no_rows_give_an_empty_int64_array(self):
        topics = np.full((2, 5), 0.2)
        got = _assign(topics, StratifyConfig(n_clusters=2), np.zeros((0, 5), dtype=bool), {})
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_row_blocks_give_the_same_clusters(self):
        bits = disjoint_block_bits(seed=909)
        cfg = StratifyConfig(n_clusters=3, gibbs_iterations=50, seed=7)
        _, topics = cluster_patients(bits, cfg)
        whole = _assign(topics, cfg, bits, {})
        # 80 rows in blocks of 7, the last one short, each folded in alone
        blocks = [_assign(topics, cfg, bits[a:a + 7], {}) for a in range(0, len(bits), 7)]
        assert np.concatenate(blocks).tolist() == whole.tolist()


@pytest.mark.parametrize("name", ["lda_alpha", "lda_beta"])
@pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf])
def test_priors_must_be_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        StratifyConfig(**{name: value})


def subtyped_setup(n_train=2200, n_test=1100, groups=3, seed=6):
    tr, te = generate_subtyped_regression(
        SynthConfig(n_train=n_train, n_test=n_test, noise_rate=0.0, seed=seed), groups)
    return tr, te


def small_hp(seed=3, task="regression", n_trees=40):
    return HyperParams(tree=TreeConfig(n_trees=n_trees, seed=seed), k=20,
                       method="forward", task=task)


def small_cfg(groups=3, seed=4, n_global=12, n_local=6):
    return StratifyConfig(n_global=n_global, n_local=n_local, n_clusters=groups,
                          gibbs_iterations=120, fold_in_iterations=30, seed=seed)


class TestTrainStratified:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_is_named(self, value):
        tr, _ = subtyped_setup(n_train=300, n_test=10)
        x = tr.x.copy()
        x[3, 1] = value
        bad = dataclasses.replace(tr, x=x)
        want = f"row 3 holds the non-finite value {value} in feature {tr.feature_names[1]!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            train_stratified(bad, small_hp(), small_cfg())

    def test_feature_width_is_global_plus_local(self):
        tr, _ = subtyped_setup(n_train=900, n_test=50)
        cfg = small_cfg()
        m = train_stratified(tr, small_hp(), cfg)
        assert np.atleast_2d(m.glm.weights).shape[1] == cfg.n_global + cfg.n_local
        assert len(m.cluster_patterns) == cfg.n_clusters
        assert all(len(rules) <= cfg.n_local for rules in m.cluster_patterns)

    def test_single_cluster_equals_flat_model(self):
        tr, te = subtyped_setup(n_train=900, n_test=400)
        cfg = small_cfg(groups=1)
        m = train_stratified(tr, small_hp(), cfg)
        flat_rules = m.global_patterns + m.cluster_patterns[0]
        flat = refit_on_patterns(tr, flat_rules, "regression")
        a = predict_stratified(m, te)
        # the unified GLM has n_global + n_local dims with zero-padding;
        # the flat model drops the padding, so compare through predictions
        b = predict(flat, te)
        rmse_diff = math.sqrt(float(np.mean((a - b) ** 2)))
        assert rmse_diff <= 1e-9

    def test_stratified_beats_flat_on_subtyped_data(self):
        tr, te = subtyped_setup(n_train=3500, n_test=1600)
        cfg = StratifyConfig(n_global=30, n_local=10, n_clusters=3,
                             gibbs_iterations=300, seed=3)
        hp = HyperParams(tree=TreeConfig(n_trees=100, seed=3), k=30,
                         method="forward", task="regression")
        strat = train_stratified(tr, hp, cfg)
        hp_flat = HyperParams(tree=TreeConfig(n_trees=100, seed=3),
                              k=cfg.n_global + cfg.n_local,
                              method="forward", task="regression")
        flat_model = train_flat(tr, hp_flat)
        rmse_strat = evaluate(predict_stratified(strat, te), te.y, "regression")["rmse"]
        rmse_flat = evaluate(predict(flat_model, te), te.y, "regression")["rmse"]
        assert rmse_strat <= rmse_flat

    def test_tiny_cluster_falls_back_with_warning(self, tmp_path):
        # more clusters than n / min_bag guarantees an undersized cluster
        tr, te = subtyped_setup(n_train=150, n_test=20)
        cfg = StratifyConfig(n_global=8, n_local=4, n_clusters=20,
                             gibbs_iterations=60, seed=11)
        with pytest.warns(UserWarning):
            m = train_stratified(tr, small_hp(n_trees=25), cfg)
        assert len(m.cluster_patterns) == 20
        assert any(len(rules) == 0 for rules in m.cluster_patterns)
        # fallback clusters (empty local rule lists) survive persistence
        path = tmp_path / "fallback.model"
        save_stratified(m, path)
        m2 = load_stratified(path)
        assert np.array_equal(predict_stratified(m, te), predict_stratified(m2, te))

    def test_local_no_rules_error_falls_back(self, monkeypatch):
        # a cluster whose local training finds no rule keeps only the global
        # rules; a ValueError of another type propagates whatever its text
        tr, _ = subtyped_setup(n_train=400, n_test=10)
        cfg = small_cfg()
        real_train = stratify.train

        def local_raises(error):
            def fake_train(ds, hp):
                if ds.n < tr.n:
                    raise error
                return real_train(ds, hp)
            return fake_train

        monkeypatch.setattr(stratify, "train", local_raises(NoRulesError("no patterns generated")))
        with pytest.warns(UserWarning, match="no patterns generated"):
            m = train_stratified(tr, small_hp(n_trees=10), cfg)
        assert m.cluster_patterns == [[]] * cfg.n_clusters
        monkeypatch.setattr(stratify, "train", local_raises(ValueError("no support found")))
        with pytest.raises(ValueError, match="no support found"):
            train_stratified(tr, small_hp(n_trees=10), cfg)

    def test_fold_in_stability_on_training_data(self, monkeypatch):
        tr, _ = subtyped_setup(n_train=1800, n_test=20)
        cfg = StratifyConfig(n_global=30, n_local=10, n_clusters=3,
                             gibbs_iterations=300, seed=4)
        hp = HyperParams(tree=TreeConfig(n_trees=100, seed=3), k=30,
                         method="forward", task="regression")
        clustered = []
        real_cluster_patients = stratify.cluster_patients
        monkeypatch.setattr(stratify, "cluster_patients",
                            lambda *args: clustered.append(real_cluster_patients(*args))
                            or clustered[-1])
        m = train_stratified(tr, hp, cfg)
        # training assigns each row by the serving fold-in
        assert np.array_equal(assign_clusters(m, tr), clustered[0][0])


class TestPredictStratified:
    def test_deterministic(self):
        tr, te = subtyped_setup(n_train=800, n_test=300)
        m = train_stratified(tr, small_hp(), small_cfg())
        a = predict_stratified(m, te)
        b = predict_stratified(m, te)
        assert np.array_equal(a, b)

    def test_schema_mismatch(self):
        tr, _ = subtyped_setup(n_train=500, n_test=20)
        med_tr, _, _ = generate_medical(SynthConfig(n_train=100, n_test=10, seed=1))
        m = train_stratified(tr, small_hp(), small_cfg())
        with pytest.raises(ValueError, match="schema mismatch"):
            predict_stratified(m, med_tr)

    def test_classification_task(self):
        tr, te, _ = generate_medical(SynthConfig(n_train=1200, n_test=500,
                                                 noise_rate=0.001, seed=12))
        hp = small_hp(task="classification", n_trees=30)
        m = train_stratified(tr, hp, small_cfg(groups=2, n_global=10, n_local=5))
        preds = predict_stratified(m, te)
        acc = evaluate(preds, te.y, "classification")["accuracy"]
        assert acc >= 0.95

    def test_empty_global_bag_still_predicts(self):
        import dataclasses
        tr, te = subtyped_setup(n_train=700, n_test=40)
        m = train_stratified(tr, small_hp(), small_cfg())
        # every mined rule ends in a >= condition, so a row of huge negative
        # values satisfies none of them: the empty bag goes to cluster 0 and
        # still yields a prediction
        x = te.x.copy()
        x[0] = -1e30
        weird = dataclasses.replace(te, x=x)
        preds = predict_stratified(m, weird)
        assert len(preds) == weird.n
        assert np.isfinite(preds[0])
        assert assign_clusters(m, weird)[0] == 0


class TestImportanceReport:
    def test_rows_cover_global_and_clusters(self, tmp_path):
        tr, _ = subtyped_setup(n_train=900, n_test=20)
        m = train_stratified(tr, small_hp(), small_cfg())
        rows = importance_rows(m)
        scopes = {cluster for _, cluster, _ in rows}
        assert "global" in scopes
        total_conditions = sum(p.m for p in m.global_patterns)
        assert sum(cnt for _, scope, cnt in rows if scope == "global") == total_conditions
        path = tmp_path / "imp.csv"
        write_importance_csv(m, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "variable,cluster,frequency"
        assert len(lines) == len(rows) + 1


class TestStratifiedPersistence:
    def test_round_trip_predictions(self, tmp_path):
        tr, te = subtyped_setup(n_train=700, n_test=250)
        m = train_stratified(tr, small_hp(), small_cfg())
        path = tmp_path / "strat.model"
        save_stratified(m, path)
        m2 = load_stratified(path)
        assert np.array_equal(predict_stratified(m, te), predict_stratified(m2, te))

    def test_label_normalization_round_trip(self, tmp_path):
        tr, te = subtyped_setup(n_train=700, n_test=250)
        tr = minmax_normalize_labels(tr)
        m = train_stratified(tr, small_hp(), small_cfg())
        path = tmp_path / "strat.model"
        save_stratified(m, path)
        m2 = load_stratified(path)
        assert m2.label_bounds == m.label_bounds
        assert np.array_equal(predict_stratified(m, te), predict_stratified(m2, te))


# --- golden clusterings -----------------------------------------------------
#
# sha256 of cluster_patients output: every topic cell as float.hex, then the
# assignments. Pinned before the sampler moved to its slot-major layout, so
# any change to a draw, its order or a count's arithmetic moves them.

def _golden_bits():
    sub, _ = generate_subtyped_regression(SynthConfig(n_train=300, n_test=1, seed=5), 3)
    hp = HyperParams(tree=TreeConfig(n_trees=10, seed=14), k=8, method="forward",
                     task="regression")
    return {
        "planted-blocks": (disjoint_block_bits(seed=31),
                           StratifyConfig(n_clusters=2, gibbs_iterations=60, seed=5)),
        "subtyped-global": (construct_pattern_space(sub, train_flat(sub, hp).patterns),
                            StratifyConfig(n_clusters=3, gibbs_iterations=41, seed=9)),
    }


def clustering_digest(assignments, topics):
    lines = [" ".join(float(v).hex() for v in row) for row in topics]
    lines.append(" ".join(str(int(c)) for c in assignments))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


GOLDEN_CLUSTERING_DIGESTS = {
    "planted-blocks": "755dcec468f83a9506be065d09e6b1892abecc030a9dbec121b23d20d3db2016",
    "subtyped-global": "7eee8acd10d20f175b29de23ae49395d3678645084a7354a3f84af5479b8dc1c",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CLUSTERING_DIGESTS))
def test_golden_clustering(case):
    bits, cfg = _golden_bits()[case]
    assert clustering_digest(*cluster_patients(bits, cfg)) == GOLDEN_CLUSTERING_DIGESTS[case]
