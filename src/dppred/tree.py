"""Constrained random decision trees used as rule generators.

The trees exist only to generate candidate rules, so a tree keeps its
splits and the bag size of every node and nothing else: no node
predicts, and no tree keeps its bootstrap sample. Trees grow on bootstrap
samples with a hard depth cap and a minimum bag size on both sides of
every split, so any root-to-node path covers enough training instances to
be worth keeping as a candidate rule. Splits pick the best of a few
randomly sampled (feature, threshold) pairs rather than scanning
exhaustively.

Growth is lockstep: the trees of a forest grow together, in chunks of at
most ``_CHUNK_ROWS`` bootstrap rows, each keeping a stack of pending
nodes, and each step takes the next node of every tree that must try a
split and scores all of them in one batched pass. Tree ``t`` draws only
from its own generator, ``sub_rng(seed, STREAM_TREE, t)``, in a fixed
order: the bootstrap, then for each split it tries, in preorder, the
``choice`` of dims followed by one ``uniform`` per sampled dim that is not
binary and not constant on the bag. So a tree does not depend on the
trees grown beside it, and the first v trees of a forest are the forest
of v trees.

A step gathers the sampled dims of its nodes in a (dims, rows) layout,
compares each node's rows with its own thresholds into one preallocated
(dims, thresholds, rows) bool mask and counts along the contiguous rows
with ``np.add.reduceat``. The nodes are scored in batches of at most
``max(_BATCH_ROWS, n)`` bag rows, so the mask stays the size that one
bootstrap bag needs however many trees grow together. Class counts are
exact integers, so classification gains are the same bits however they
are batched, and classification forests are bit-identical to the earlier
per-node recursion. A node's regression sums are one product of its
(dims * thresholds, bag) 0/1 slice of the mask with the (bag, 2) matrix
[y, y²]; it reads only that node's rows, so regression gains do not
depend on batching either.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import STREAM_TREE, sub_rng

# splits must beat this relative floor so float noise in the moment
# arithmetic never splits an (effectively) pure bag
_GAIN_EPS = 1e-12

# bag rows scored per batched split search, or the training rows when more:
# a step's nodes are cut into batches of at most this many rows, which
# keeps the (dims, thresholds, rows) bool mask that a whole bootstrap bag
# needs anyway from growing with the number of trees
_BATCH_ROWS = 1 << 12
# mask cells counted per reduceat call, which copies its input to int32
_COUNT_CELLS = 1 << 16
# trees grown together hold at most this many bootstrap rows, which bounds
# the pending bags they keep: 100 trees of 1000 rows, 6 of 20k rows
_CHUNK_ROWS = 1 << 17


@dataclass
class TreeConfig:
    n_trees: int = 100
    max_depth: int = 6
    min_bag: int = 10
    n_feature_candidates: int | None = None  # None: ceil(sqrt(d))
    # 16 samples per feature keep split boundaries sharp enough that the
    # pool contains near-exact copies of generating rules; 4 is too coarse
    n_threshold_candidates: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_bag < 1:
            raise ValueError("min_bag must be >= 1")
        if self.n_feature_candidates is not None and self.n_feature_candidates < 1:
            raise ValueError("n_feature_candidates must be >= 1")
        if self.n_threshold_candidates < 1:
            raise ValueError("n_threshold_candidates must be >= 1")


@dataclass
class TreeNode:
    # internal nodes carry (dim, threshold, left, right); leaves carry neither
    dim: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    bag_size: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class DecisionTree:
    root: TreeNode


def _entropy_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    # counts: (C, t), totals: (t,); columns with total 0 are left at 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        logs = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -(np.where(p > 0, p * logs, 0.0)).sum(axis=0)


class _Split(NamedTuple):
    dim: int
    threshold: float
    left: np.ndarray  # the bag of each child
    right: np.ndarray


class _Grower:
    """Batched split search and lockstep growth of trees over one dataset."""

    def __init__(self, ds, cfg: TreeConfig):
        self.ds, self.cfg = ds, cfg
        self.classify = ds.label_kind == "class"
        self.xt = np.ascontiguousarray(ds.x.T)
        self.n_dims = min(cfg.n_feature_candidates or math.ceil(math.sqrt(ds.d)), ds.d)
        self.batch_rows = max(_BATCH_ROWS, ds.n)
        cells = self.n_dims * cfg.n_threshold_candidates * self.batch_rows
        self.mask_buf = np.empty(cells, dtype=bool)
        if self.classify:
            self.y = ds.y.astype(np.int64)
            self.n_classes = max(len(ds.label_names or ()), int(self.y.max()) + 1)
            self.class_buf = np.empty(cells, dtype=bool)
        else:
            self.y = np.asarray(ds.y, dtype=np.float64)

    def grow(self, rngs: list) -> list[DecisionTree]:
        """One tree per generator; each step tries the next pending split of every tree."""
        cfg, n = self.cfg, self.ds.n
        trees, stacks = [], []
        for rng in rngs:
            bootstrap = rng.integers(0, n, size=n)
            root = TreeNode(bag_size=n)
            trees.append(DecisionTree(root=root))
            stacks.append([(root, bootstrap, 0)])
        while True:
            step = []
            for t, stack in enumerate(stacks):
                while stack:
                    node, bag, depth = stack.pop()
                    if depth < cfg.max_depth and len(bag) >= 2 * cfg.min_bag:
                        step.append((t, node, bag, depth))
                        break
            if not step:
                return trees
            splits, batch, rows = [], [], 0
            for t, _, bag, _ in step:
                if batch and rows + len(bag) > self.batch_rows:
                    splits += self.best_splits(*zip(*batch))
                    batch, rows = [], 0
                batch.append((bag, rngs[t]))
                rows += len(bag)
            splits += self.best_splits(*zip(*batch))
            for (t, node, _, depth), split in zip(step, splits):
                if split is None:
                    continue
                node.dim, node.threshold = split.dim, split.threshold
                node.left = TreeNode(bag_size=len(split.left))
                node.right = TreeNode(bag_size=len(split.right))
                # the left child is popped first: preorder
                stacks[t] += [(node.right, split.right, depth + 1),
                              (node.left, split.left, depth + 1)]

    def best_splits(self, bags: list, rngs: list) -> list[_Split | None]:
        """Best sampled split of each bag (of at least ``2 * min_bag`` rows), drawing
        from that bag's own generator, or None where no candidate is usable.

        A candidate is usable when both children keep at least ``min_bag``
        rows and the size-weighted drop in label entropy (classes) or
        variance (real labels) is strictly positive.
        """
        cfg, ds = self.cfg, self.ds
        sigma, n_thr = cfg.min_bag, cfg.n_threshold_candidates
        n_nodes = len(bags)
        sizes = np.array([len(bag) for bag in bags])
        starts = np.zeros(n_nodes, dtype=np.intp)
        np.cumsum(sizes[:-1], out=starts[1:])
        segments = [slice(a, a + b) for a, b in zip(starts.tolist(), sizes.tolist())]
        rows = np.concatenate(bags)
        n_rows = len(rows)

        dims = np.array([rng.choice(ds.d, size=self.n_dims, replace=False) for rng in rngs])
        at = np.repeat(dims.T * ds.n, sizes, axis=1)
        at += rows
        cols = np.take(self.xt, at)  # (dims, rows)
        lo = np.minimum.reduceat(cols, starts, axis=1).T          # (nodes, dims)
        hi = np.maximum.reduceat(cols, starts, axis=1).T
        binary = ds.binary_dims[dims]
        # NaN thresholds send no row left, so those slots are never usable
        thresholds = np.full((n_nodes, self.n_dims, n_thr), np.nan)
        thresholds[:, :, 0][binary] = 0.5
        drawn = (~binary & (lo != hi)).tolist()
        for k, (rng, lo_k, hi_k) in enumerate(zip(rngs, lo.tolist(), hi.tolist())):
            for f in range(self.n_dims):
                if drawn[k][f]:
                    thresholds[k, f] = rng.uniform(lo_k[f], hi_k[f], size=n_thr)

        mask = self.mask_buf[:self.n_dims * n_thr * n_rows].reshape(self.n_dims, n_thr, n_rows)
        for k, seg in enumerate(segments):
            np.less(cols[:, None, seg], thresholds[k, :, :, None], out=mask[:, :, seg])
        flat = mask.reshape(-1, n_rows)

        block = max(1, _COUNT_CELLS // n_rows)

        def counts(m):  # (nodes, dims, thresholds) int32
            out = np.empty((len(m), n_nodes), dtype=np.int32)
            for r in range(0, len(m), block):
                np.add.reduceat(m[r:r + block], starts, axis=1, dtype=np.int32,
                                out=out[r:r + block])
            return out.T.reshape(thresholds.shape)

        n_left = counts(flat)
        n_bag = sizes[:, None, None]
        n_right = n_bag - n_left
        usable = (n_left >= sigma) & (n_right >= sigma)
        if self.classify:
            y = self.y[rows]
            totals = np.stack([np.add.reduceat(y == c, starts, dtype=np.int32)
                               for c in range(self.n_classes)])    # (classes, nodes)
            left = np.empty((self.n_classes,) + n_left.shape, dtype=np.int32)
            scratch = self.class_buf[:flat.size].reshape(flat.shape)
            for c in range(self.n_classes - 1):
                np.logical_and(flat, y == c, out=scratch)
                left[c] = counts(scratch)
            left[-1] = n_left - left[:-1].sum(axis=0)
            right = totals[:, :, None, None] - left
            parent = _entropy_from_counts(totals, sizes.astype(np.float64))
            imp_l = _entropy_from_counts(left.reshape(self.n_classes, -1), n_left.ravel())
            imp_r = _entropy_from_counts(right.reshape(self.n_classes, -1), n_right.ravel())
            imp_l, imp_r = imp_l.reshape(n_left.shape), imp_r.reshape(n_left.shape)
        else:
            s1, s2, tot1, tot2, parent = self._regression_sums(bags, flat, segments)
            with np.errstate(divide="ignore", invalid="ignore"):
                imp_l = np.where(n_left > 0, s2 / n_left - (s1 / n_left) ** 2, 0.0)
                imp_r = np.where(
                    n_right > 0,
                    (tot2 - s2) / n_right - ((tot1 - s1) / n_right) ** 2,
                    0.0,
                )
            imp_l = np.maximum(imp_l, 0.0)
            imp_r = np.maximum(imp_r, 0.0)

        parent = parent[:, None, None]
        gains = parent - (n_left * imp_l + n_right * imp_r) / n_bag
        gains[~(usable & (gains > _GAIN_EPS * np.maximum(1.0, parent)))] = -np.inf
        best = gains.max(axis=(1, 2), keepdims=True, initial=-np.inf)
        # lexicographic minimum of (-gain, dim, threshold) per node: the
        # largest gain, then the lowest dim and threshold among exact ties
        node, f, j = np.nonzero((gains == best) & (best > -np.inf))
        dim = dims[node, f]
        thr = thresholds[node, f, j]
        order = np.lexsort((thr, dim, node))
        first = order[np.r_[True, node[order][1:] != node[order][:-1]]] if order.size else order
        out = [None] * n_nodes
        for i in first.tolist():
            k, fi, ji = node[i], f[i], j[i]
            goes_left = flat[fi * n_thr + ji, segments[k]]
            out[k] = _Split(int(dim[i]), float(thr[i]), bags[k][goes_left], bags[k][~goes_left])
        return out

    def _regression_sums(self, bags, flat, segments):
        """Left sums of y and y² per candidate, bag totals and parent variance.

        A node's sums are one product of its (candidates, bag) 0/1 slice of
        the mask with the (bag, 2) matrix [y, y²]; unusable candidates,
        NaN thresholds included, are rows like any other.
        """
        n_nodes = len(bags)
        sums = np.empty((n_nodes, flat.shape[0], 2))
        tot1 = np.empty((n_nodes, 1, 1))
        tot2 = np.empty((n_nodes, 1, 1))
        parent = np.empty(n_nodes)
        for k, bag in enumerate(bags):
            y = self.y[bag]
            yy = y * y
            n_bag = len(bag)
            sum_tot, sumsq_tot = float(y.sum()), float(yy.sum())
            tot1[k], tot2[k] = sum_tot, sumsq_tot
            # moment form (clipped) keeps parent and children arithmetically
            # consistent so pure bags yield exactly zero gain
            parent[k] = max(sumsq_tot / n_bag - (sum_tot / n_bag) ** 2, 0.0)
            sums[k] = flat[:, segments[k]].astype(np.float64) @ np.column_stack([y, yy])
        shape = (n_nodes, self.n_dims, -1)
        return sums[:, :, 0].reshape(shape), sums[:, :, 1].reshape(shape), tot1, tot2, parent


def fit_forest(ds, cfg: TreeConfig) -> list[DecisionTree]:
    """Grow ``n_trees`` trees, each from its own generator derived from (seed, t)."""
    if ds.n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    grower = _Grower(ds, cfg)
    chunk = max(1, _CHUNK_ROWS // ds.n)
    forest = []
    for first in range(0, cfg.n_trees, chunk):
        trees = range(first, min(first + chunk, cfg.n_trees))
        forest += grower.grow([sub_rng(cfg.seed, STREAM_TREE, t) for t in trees])
    return forest


def iter_nodes(root: TreeNode, depth: int = 0):
    """Yield (node, depth) over the whole tree, preorder."""
    yield root, depth
    if not root.is_leaf:
        yield from iter_nodes(root.left, depth + 1)
        yield from iter_nodes(root.right, depth + 1)
