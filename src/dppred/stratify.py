"""Stratified modeling: global rules, rule-bag clustering, local rules.

Instances are first described by which globally mined rules they satisfy.
Treating each satisfied rule as a token, latent Dirichlet allocation over
these bags partitions the instances into disjoint clusters; each cluster
then gets its own locally mined rules, and one unified GLM is fitted over
the global block plus the (cluster-dependent) local block.

Training and prediction both fold each row into the frozen topics with a
deterministic per-row EM (no random draws) over the row's satisfied rules,
summed in rule order. So a row gets the same cluster, and the same
prediction bits, alone or inside any batch, and a training row is served in
the cluster it was trained in; a row satisfying no global rule keeps the
uniform topic mix and goes to cluster 0. A row's EM depends on its rule bag
alone, so a loaded model folds each distinct bag in once and remembers its
cluster in a bounded memory that is never saved; serving costs about the
satisfied rules of the bags not seen before. The unified block is served by
the plain models' one serving path and its rules by their compiled kernel;
model files reuse the plain model's section codecs.
"""

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import Dataset, subset
from .glm import fit_glm
from .model import (
    HyperParams,
    _ModelCore,
    _data_fields,
    _data_lines,
    _glm_lines,
    _glm_task,
    _hex_row,
    _parse_fields,
    _parse_glm,
    _parse_rule_block,
    _provenance_lines,
    _read,
    _read_data_fields,
    _read_sections,
    _rule_block,
    _unhex_row,
    _write_model_file,
    predict,
    train,
)
from .patterns import (
    CompiledRules,
    Pattern,
    compile_rules,
    construct_pattern_space,
    rule_matrix,
)
from .rng import STREAM_LDA, STREAM_LOCAL_TREES, derive_seed, sub_rng
from .selection import NoRulesError

_KNOWN_BAGS = 1 << 16      # bags a model remembers; a key is a few dozen bytes
_FOLD_IN_CELLS = 1 << 18   # floats in one fold-in temporary, 2 MiB: topics x tokens


@dataclass
class StratifyConfig:
    n_global: int = 30        # rules mined on all instances
    n_local: int = 10         # rules mined inside each cluster
    n_clusters: int = 3
    lda_alpha: float | None = None  # default 1 / n_clusters
    lda_beta: float = 0.1
    gibbs_iterations: int = 500
    fold_in_iterations: int = 50   # EM steps folding a new row into the topics
    seed: int = 0

    def __post_init__(self):
        if min(self.n_global, self.n_local, self.n_clusters) < 1:
            raise ValueError("n_global, n_local and n_clusters must all be >= 1")
        if self.gibbs_iterations < 1 or self.fold_in_iterations < 1:
            raise ValueError("iteration counts must be >= 1")
        # both priors divide counts in the sampler and the fold-in
        for name in ("lda_alpha", "lda_beta"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def alpha(self) -> float:
        # rule bags hold at most a few dozen tokens, so the document prior
        # must stay well below typical bag sizes for the data to speak
        return self.lda_alpha if self.lda_alpha is not None else 1.0 / self.n_clusters


@dataclass
class StratifiedModel(_ModelCore):
    global_patterns: list[Pattern]
    topics: np.ndarray                  # (n_clusters, n_global_patterns), rows sum to 1
    cluster_patterns: list[list[Pattern]]
    config: StratifyConfig
    # (global rules, one entry per cluster's local rules), compiled for serving
    compiled: tuple[CompiledRules, list[CompiledRules]] = field(init=False, repr=False, compare=False)
    # packed global-rule bits -> cluster of every bag served so far (see _assign);
    # not locked, so one model object serves one request at a time
    known_bags: dict[bytes, int] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.compiled = (compile_rules(self.global_patterns),
                         [compile_rules(rules) for rules in self.cluster_patterns])

    def glm_input(self, x: np.ndarray) -> np.ndarray:
        """The unified block of the rows of ``x``: each row's global rule bits,
        then the local rule bits of the cluster it folds into."""
        global_rules, local_rules = self.compiled
        global_bits = rule_matrix(global_rules, x)
        clusters = _assign(self.topics, self.config, global_bits, self.known_bags)
        return _unified_matrix(global_bits, clusters, x, local_rules,
                               self.config.n_global, self.config.n_local)


def _bits_to_tokens(bits: np.ndarray, rng) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Satisfied-rule ids per instance in shuffled order, laid out slot-major.

    Row by row, each instance holding more than one rule shuffles its rule
    ids with one ``rng.permutation``; the j-th id after the shuffle is the
    instance's token in slot j. Returns, for each slot, the instances holding
    a token there in ascending order and their rule ids. Slot j's instances
    are those with more than j rules, so every slot is non-empty, except the
    one slot returned when no instance holds a rule. The shuffle keeps tokens
    of one rule out of a shared slot, where the slot-blocked sampler would
    update them in lockstep.
    """
    bits = np.asarray(bits)
    rows, words = np.nonzero(bits)
    counts = np.bincount(rows, minlength=bits.shape[0])
    starts = np.cumsum(counts) - counts
    shuffled = counts > 1
    for a, c in zip(starts[shuffled].tolist(), counts[shuffled].tolist()):
        words[a:a + c] = words[a:a + c][rng.permutation(c)]
    slot = np.arange(len(rows)) - starts[rows]
    width = max(int(counts.max(initial=0)), 1)
    return [rows[slot == j] for j in range(width)], [words[slot == j] for j in range(width)]


def _gibbs_train(docs, words, n_docs, n_topics, n_words, alpha, beta, iterations, rng):
    """Collapsed Gibbs over rule tokens, swept slot by slot.

    ``docs`` and ``words`` are the slot-major tokens of ``_bits_to_tokens``.
    All documents update a slot simultaneously: document-topic counts stay
    exact per document, topic-word counts refresh after each slot pass. The
    draws, in order: ``rng.integers`` for the initial topics of an
    (n_docs, slots) grid, of which each token takes its own cell; then per
    sweep one ``rng.permutation`` of the slots and one ``rng.random`` over
    all tokens, which the slots consume in permuted order, each slot's
    documents in ascending order. A token's new topic is the number of
    running sums of ``(ckw + beta) / (ck + W beta) * (cd + alpha)``, taken
    in topic order, below its uniform times the last sum.

    Counts are integers kept topic-major, topic-word (K, W) and doc-topic
    (K, n), and each token is stored as its flat index into both, so a slot
    pass moves its tokens out and back in with one ``np.bincount`` and one
    fancy-indexed update each. Returns the topic-word counts averaged over
    the second half of the sweeps, so short bags are not at the mercy of
    their final draw.
    """
    n_cells = n_topics * n_words
    grid = rng.integers(0, n_topics, size=(n_docs, len(docs)))
    word_at = [grid[d, j] * n_words + w for j, (d, w) in enumerate(zip(docs, words))]
    doc_at = [grid[d, j] * n_docs + d for j, d in enumerate(docs)]
    ckw = np.bincount(np.concatenate(word_at), minlength=n_cells)
    cd = np.bincount(np.concatenate(doc_at), minlength=n_topics * n_docs)
    topic_word = ckw.reshape(n_topics, n_words)
    doc_topic = cd.reshape(n_topics, n_docs)
    n_tokens = sum(len(d) for d in docs)
    norm = n_words * beta

    burn_in = iterations // 2
    ckw_acc = np.zeros_like(ckw)

    for sweep in range(iterations):
        order = rng.permutation(len(docs)).tolist()
        uniform = rng.random(n_tokens)
        start = 0
        for j in order:
            d, w = docs[j], words[j]
            ckw -= np.bincount(word_at[j], minlength=n_cells)
            cd[doc_at[j]] -= 1

            word_part = (topic_word + beta) / (topic_word.sum(axis=1) + norm)[:, None]
            probs = word_part.take(w, axis=1) * (doc_topic.take(d, axis=1) + alpha)
            for k in range(1, n_topics):
                probs[k] += probs[k - 1]
            end = start + len(d)
            new = (probs < uniform[start:end] * probs[-1]).sum(axis=0)
            start = end

            word_at[j] = new * n_words + w
            doc_at[j] = new * n_docs + d
            ckw += np.bincount(word_at[j], minlength=n_cells)
            cd[doc_at[j]] += 1
        if sweep >= burn_in:
            ckw_acc += ckw

    # sweep range always reaches burn_in, so at least one sample was taken
    return (ckw_acc / (iterations - burn_in)).reshape(n_topics, n_words)


def cluster_patients(global_bits: np.ndarray, cfg: StratifyConfig):
    """Hard cluster assignments plus the topic-rule distributions.

    Each instance is assigned by the fold-in of ``_assign`` on the returned
    topics, so training and serving give a row the same cluster; an
    instance satisfying no rule goes to cluster 0.
    """
    bits = np.asarray(global_bits)
    n_words = bits.shape[1]
    rng = sub_rng(cfg.seed, STREAM_LDA)
    docs, words = _bits_to_tokens(bits, rng)
    ckw = _gibbs_train(docs, words, bits.shape[0], cfg.n_clusters, n_words, cfg.alpha,
                       cfg.lda_beta, cfg.gibbs_iterations, rng)
    topics = (ckw + cfg.lda_beta) / (ckw.sum(axis=1) + n_words * cfg.lda_beta)[:, None]
    return _assign(topics, cfg, bits, {}), topics


def _unified_matrix(global_bits, assignments, x, local_rules, n_global, n_local):
    """Feature block of width n_global + n_local for every instance.

    ``local_rules`` holds each cluster's compiled local rules; a cluster
    without local rules contributes no columns.
    """
    out = np.zeros((global_bits.shape[0], n_global + n_local), dtype=np.float64)
    out[:, :global_bits.shape[1]] = global_bits
    for c, rules in enumerate(local_rules):
        rows = np.flatnonzero(assignments == c)
        if len(rows):
            local = rule_matrix(rules, x[rows])
            out[rows, n_global:n_global + local.shape[1]] = local
    return out


def train_stratified(ds: Dataset, hp: HyperParams, cfg: StratifyConfig) -> StratifiedModel:
    """Global rules, clusters, per-cluster local rules, one unified GLM."""
    hp_global = replace(hp, k=cfg.n_global)
    global_model = train(ds, hp_global)
    global_patterns = global_model.patterns
    global_bits = construct_pattern_space(ds, global_patterns)

    assignments, topics = cluster_patients(global_bits, cfg)

    cluster_patterns: list[list[Pattern]] = []
    for c in range(cfg.n_clusters):
        rows = np.flatnonzero(assignments == c)
        if len(rows) < hp.tree.min_bag:
            warnings.warn(f"cluster {c} has {len(rows)} instances (< min bag size); "
                          "falling back to global rules only")
            cluster_patterns.append([])
            continue
        local_tree = replace(hp.tree, seed=derive_seed(hp.tree.seed, STREAM_LOCAL_TREES, c))
        hp_local = replace(hp, k=cfg.n_local, tree=local_tree)
        try:
            cluster_patterns.append(train(subset(ds, rows), hp_local).patterns)
        except NoRulesError as err:
            warnings.warn(f"cluster {c}: {err}; falling back to global rules only")
            cluster_patterns.append([])

    unified = _unified_matrix(global_bits, assignments, ds.x,
                              [compile_rules(rules) for rules in cluster_patterns],
                              cfg.n_global, cfg.n_local)
    glm = fit_glm(unified, ds.y, _glm_task(hp.task))

    return StratifiedModel(
        global_patterns=global_patterns,
        topics=topics,
        cluster_patterns=cluster_patterns,
        glm=glm,
        config=cfg,
        **_data_fields(ds),
        provenance=global_model.provenance,
    )


def _assign(topics: np.ndarray, cfg: StratifyConfig, global_bits: np.ndarray,
            known: dict[bytes, int]) -> np.ndarray:
    """Fold rows of 0/1 rule bits into the frozen topics by a deterministic per-row EM.

    With ``A = topics.T`` and ``theta`` starting uniform, each of
    ``fold_in_iterations`` steps sets ``theta <- (alpha + theta * sum_w
    A[w] / (theta . A[w])) / (count + K alpha)``, summing over the row's
    satisfied rules w in ascending order; the cluster is ``argmax theta``.
    Nothing mixes rows, so a row's cluster depends on its rule bag alone.
    Each row is keyed by its packed bits, the EM (``_fold_in``) runs once on
    the first row of each bag missing from ``known``, those clusters are
    stored in ``known`` and every row reads its cluster from there: the same
    clusters, bit for bit, as folding in every row. A loaded model passes its
    own ``known_bags``, so it folds each distinct bag in once and remembers its
    cluster in at most ``_KNOWN_BAGS`` bags, cleared when a store would pass
    that and never saved. An empty bag keeps the uniform ``theta`` (cluster 0).
    """
    bits = np.asarray(global_bits)
    packed = np.packbits(bits != 0, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0].tolist()
    new: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        if key not in known:
            new.setdefault(key, i)
    lookup = known
    if new:
        theta = _fold_in(topics, cfg, bits[list(new.values())])
        found = dict(zip(new, np.argmax(theta, axis=1).tolist()))
        if len(known) + len(found) > _KNOWN_BAGS:
            # this call still reads every bag; the memory starts over
            lookup = known | found
            known.clear()
        if len(found) <= _KNOWN_BAGS:
            known.update(found)
    return np.fromiter(map(lookup.__getitem__, keys), dtype=np.int64, count=len(keys))


def _fold_in(topics: np.ndarray, cfg: StratifyConfig, global_bits: np.ndarray) -> np.ndarray:
    """``theta`` of ``_assign``'s EM for all rows. Rows never mix, so they are
    folded in blocks of whole rows whose topics x tokens, the size of each
    temporary, stay within ``_FOLD_IN_CELLS``; a row with more tokens than
    that is a block alone."""
    n_topics = topics.shape[0]
    tokens = np.cumsum(np.count_nonzero(global_bits, axis=1))
    theta = np.empty((len(tokens), n_topics))
    a = 0
    while a < len(tokens):
        limit = (int(tokens[a - 1]) if a else 0) + _FOLD_IN_CELLS // n_topics
        b = max(a + 1, int(np.searchsorted(tokens, limit, side="right")))
        theta[a:b] = _fold_in_rows(topics, cfg, global_bits[a:b])
        a = b
    return theta


def _fold_in_rows(topics: np.ndarray, cfg: StratifyConfig, global_bits: np.ndarray) -> np.ndarray:
    """``theta`` of ``_assign``'s EM for a block of rows, run topic-major over
    the tokens, the (row, satisfied rule) pairs: each step sums a token's mix
    over topics in order, then adds every ``A[w] / mix`` into its row with one
    weighted ``np.bincount``, a row's rules in ascending order. A temporary
    holds topics x tokens floats."""
    n_topics, n_rows, alpha = topics.shape[0], global_bits.shape[0], cfg.alpha
    rows, words = np.nonzero(global_bits)
    token_a = topics.take(words, axis=1)   # C-order like theta; topics[:, words] is not
    cells = (np.arange(n_topics)[:, None] * n_rows + rows).ravel()
    norm = np.bincount(rows, minlength=n_rows) + n_topics * alpha
    theta = np.full((n_topics, n_rows), 1.0 / n_topics)
    for _ in range(cfg.fold_in_iterations):
        prod = theta.take(rows, axis=1) * token_a
        mix = prod[0]
        for k in range(1, n_topics):   # not sum(axis=0): pairwise on one token of 8+ topics
            mix += prod[k]
        resp = np.bincount(cells, (token_a / mix).ravel(), theta.size)
        theta = (alpha + theta * resp.reshape(theta.shape)) / norm
    return theta.T


def assign_clusters(m: StratifiedModel, ds: Dataset) -> np.ndarray:
    """Fold new instances into the trained clusters."""
    return _assign(m.topics, m.config, rule_matrix(m.compiled[0], ds.x), m.known_bags)


# ``predict`` serves both model kinds; this is its name for stratified models
predict_stratified = predict


def importance_rows(m: StratifiedModel) -> list[tuple[str, str, int]]:
    """(variable, cluster, occurrence count) over all selected rule conditions."""
    def count_scope(rules):
        counts: dict[str, int] = {}
        for p in rules:
            for c in p.conditions:
                name = m.feature_sources[c.dim]
                counts[name] = counts.get(name, 0) + 1
        return counts

    rows = []
    for name, cnt in sorted(count_scope(m.global_patterns).items()):
        rows.append((name, "global", cnt))
    for c, rules in enumerate(m.cluster_patterns):
        for name, cnt in sorted(count_scope(rules).items()):
            rows.append((name, str(c), cnt))
    return rows


def write_importance_csv(m: StratifiedModel, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("variable,cluster,frequency\n")
        for name, cluster, cnt in importance_rows(m):
            fh.write(f"{name},{cluster},{cnt}\n")


# --- persistence ----------------------------------------------------------


def _parse_config(lines: list[str]) -> StratifyConfig:
    raw = json.loads(lines[0])
    return StratifyConfig(**{f.name: raw[f.name] for f in fields(StratifyConfig)})


def _parse_topics(lines: list[str], shape: tuple[int, int]) -> np.ndarray:
    topics = np.array([_unhex_row(ln) for ln in lines])
    if topics.shape != shape:
        raise ValueError(f"expected a {shape[0]} x {shape[1]} topic matrix, got shape {topics.shape}")
    # the fold-in divides by each rule's topic mix, which must stay positive
    if not np.all(np.isfinite(topics) & (topics > 0)):
        raise ValueError("topic weights must be positive and finite")
    return topics


def _parse_cluster_rules(lines: list[str], cfg: StratifyConfig, n_features: int) -> list[list[Pattern]]:
    heads = [i for i, ln in enumerate(lines) if ln.startswith("cluster=")]
    if len(heads) != cfg.n_clusters or heads[0] != 0:
        raise ValueError(f"expected {cfg.n_clusters} cluster blocks")
    return [_parse_rule_block(lines[a:b], n_features, cfg.n_local, f"cluster={c} ")
            for c, (a, b) in enumerate(zip(heads, heads[1:] + [len(lines)]))]


def save_stratified(m: StratifiedModel, path) -> None:
    lines = _provenance_lines(m.provenance) + ["[config]", json.dumps(asdict(m.config), sort_keys=True)]
    lines += _data_lines(m) + ["[global_patterns]"] + _rule_block(m.global_patterns, m.feature_names)
    lines += ["[topics]"] + [_hex_row(row) for row in m.topics] + ["[cluster_patterns]"]
    for c, rules in enumerate(m.cluster_patterns):
        lines += _rule_block(rules, m.feature_names, prefix=f"cluster={c} ")
    _write_model_file(path, "stratified", lines + _glm_lines(m.glm))


def load_stratified(path) -> StratifiedModel:
    with _read_sections(path, "stratified") as (_, sections):
        cfg = _read(sections, "config", _parse_config)
        data = _read_data_fields(sections)
        d = len(data["feature_names"])
        global_patterns = _read(sections, "global_patterns", _parse_rule_block, d, cfg.n_global)
        return StratifiedModel(
            global_patterns=global_patterns,
            topics=_read(sections, "topics", _parse_topics, (cfg.n_clusters, len(global_patterns))),
            cluster_patterns=_read(sections, "cluster_patterns", _parse_cluster_rules, cfg, d),
            glm=_read(sections, "glm", _parse_glm, cfg.n_global + cfg.n_local),
            config=cfg,
            provenance=_read(sections, "provenance", _parse_fields),
            **data,
        )
