"""Constrained random decision trees used as rule generators.

The trees exist only to generate candidate rules, so a tree keeps its
splits and the bag size of every node and nothing else: no node
predicts, and no tree keeps its bootstrap sample. Trees grow on bootstrap
samples with a hard depth cap and a minimum bag size on both sides of
every split, so any root-to-node path covers enough training instances to
be worth keeping as a candidate rule. Splits pick the best of a few
randomly sampled (feature, threshold) pairs rather than scanning
exhaustively: ⌈√d⌉ features, each with ``_THRESHOLDS`` thresholds.

Growth is lockstep: the trees of a forest grow together, in chunks of at
most ``_CHUNK_ROWS`` bootstrap rows, each keeping a stack of pending
nodes, and each step takes the next node of every tree that must try a
split and scores all of them in one batched pass. Tree ``t`` draws only
from its own generator, ``sub_rng(seed, STREAM_TREE, t)``, in a fixed
order: the bootstrap, then for each split it tries, in preorder, the
``choice`` of dims followed by one ``random`` call for the thresholds of
all sampled dims that are not binary and not constant on the bag, dim
after dim. A threshold is ``lo + (hi - lo) * u``, which is how
``uniform(lo, hi)`` maps the same draw, so the thresholds and the
generator state are those of one ``uniform`` call per dim. So a tree does
not depend on the trees grown beside it, and the first v trees of a
forest are the forest of v trees.

A step gathers the sampled dims of its nodes in a (dims, rows) layout and
scores the nodes in batches, each label kind in its own layout in one
preallocated buffer. Class labels compare and count only real candidates:
one, at 0.5, on a binary slot, ``_THRESHOLDS`` on a numeric slot, and none
on a numeric slot constant on its bag. Each kind is a (candidates, cells)
bool block, its cells the rows of its (slot, node) pairs, slot after slot,
compared with their own pair's thresholds repeated per row in one
``np.less`` per group of pairs; a slot without a candidate keeps a zero
left count, so it is never usable. Real labels compare every (slot,
threshold) of every row with its node's thresholds, one ``np.less`` per
sampled dim, into a dense (dims, thresholds, rows) mask, in which a NaN
threshold, where a slot has none, gives a zero row. Batches are sized in
cells: the budget is a dense mask of ``_BATCH_ROWS`` rows, and a batch
holds as many bag rows as the budget gives the most cells a row can need
(for class labels ``_THRESHOLDS`` on each sampled numeric dim and one on
each other), or ``n`` rows when more: for class labels 7,710 rows on the
medical data (2 numeric dims of 10) and 4,096 where no dim is binary. So
the buffer stays the size that one bootstrap bag needs however many trees
grow together. Counts are ``np.add.reduceat`` along contiguous cells,
entropies are worked out for the usable candidates only, and the child
bags of all split nodes come from one comparison of each row with its
node's winning (dim, threshold) and one stable sort of the batch rows by
(node, side). Class counts are exact integers, so classification forests
are the same bits however they are batched, and bit-identical to the
earlier per-node recursion. For real labels the batch builds [y, y²] once
and casts a window of max(n, bag) rows of the mask at a time to a (dims *
thresholds, rows) 0/1 float matrix; each node makes one product of its
slice of that matrix with its rows of [y, y²], and sums its own y and y²
pairwise. These read only that node's rows, in bag order, with the shape
and strides of the dense mask, so regression gains do not depend on
batching either.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import check_finite_features, check_labels
from .rng import STREAM_TREE, sub_rng

# splits must beat this relative floor so float noise in the moment
# arithmetic never splits an (effectively) pure bag
_GAIN_EPS = 1e-12

# rows of a dense (dims, thresholds, rows) mask, whose cells are the batch
# budget of the split search: real labels compare every cell, class labels
# only real candidates, and a batch holds as many rows as the budget gives
# the most cells a row can need, or the training rows when more; also the
# rows whose thresholds one compare repeats at most, when n is smaller
_BATCH_ROWS = 1 << 12
# candidate cells counted per reduceat call, which copies its input to int32
_COUNT_CELLS = 1 << 16
# trees grown together hold at most this many bootstrap rows, which bounds
# the pending bags they keep: 100 trees of 1000 rows, 6 of 20k rows
_CHUNK_ROWS = 1 << 17
# thresholds sampled per feature: 16 keep split boundaries sharp enough
# that the pool contains near-exact copies of generating rules; 4 is too
# coarse
_THRESHOLDS = 16


@dataclass
class TreeConfig:
    n_trees: int = 100
    max_depth: int = 6
    min_bag: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_bag < 1:
            raise ValueError("min_bag must be >= 1")


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
    # counts: (C, t), totals: (t,), all positive; a class of count 0 adds 0 * log2(1)
    p = counts / totals
    return -(p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=0)


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
        self.n_dims = math.ceil(math.sqrt(ds.d))
        # the most candidate cells a bag row can need: _THRESHOLDS on each sampled
        # numeric dim, one on each binary one, which real labels compare as numeric
        numeric = min(self.n_dims, ds.d - self.classify * int(ds.binary_dims.sum()))
        row_cells = max(1, numeric * _THRESHOLDS + self.n_dims - numeric)
        self.batch_rows = max(self.n_dims * _THRESHOLDS * _BATCH_ROWS // row_cells, ds.n)
        cells = self.batch_rows * row_cells
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
        ds = self.ds
        sigma, n_thr, n_dims = self.cfg.min_bag, _THRESHOLDS, self.n_dims
        n_nodes = len(bags)
        sizes = np.array([len(bag) for bag in bags])
        starts = np.zeros(n_nodes, dtype=np.intp)
        np.cumsum(sizes[:-1], out=starts[1:])
        segments = [slice(a, a + b) for a, b in zip(starts.tolist(), sizes.tolist())]
        rows = np.concatenate(bags)

        dims = np.array([rng.choice(ds.d, size=n_dims, replace=False) for rng in rngs])
        at = np.repeat(dims.T * ds.n, sizes, axis=1)
        at += rows
        cols = np.take(self.xt, at)  # (dims, rows)
        del at
        lo = np.minimum.reduceat(cols, starts, axis=1).T          # (nodes, dims)
        hi = np.maximum.reduceat(cols, starts, axis=1).T
        binary = ds.binary_dims[dims]
        thresholds = np.full((n_nodes, n_dims, n_thr), np.nan)
        thresholds[:, :, 0][binary] = 0.5
        drawn = ~binary & (lo != hi)
        # one draw call per node: uniform(lo, hi, n) is lo + (hi - lo) * random(n)
        draws = [rng.random(n) for rng, n in zip(rngs, (drawn.sum(axis=1) * n_thr).tolist()) if n]
        if draws:
            u = np.concatenate(draws).reshape(-1, n_thr)
            thresholds[drawn] = lo[drawn][:, None] + (hi - lo)[drawn][:, None] * u

        if self.classify:
            # the real candidates, by kind: one on each binary (slot, node) pair,
            # n_thr on each drawn one; a kind is a (candidates, cells) block whose
            # cells are its pairs' rows, slot after slot, and counts are slot-major
            n_left = np.zeros((n_dims, n_nodes, n_thr), dtype=np.int32)
            y = self.y[rows]
            labels = [y == c for c in range(self.n_classes)]
            totals = np.stack([np.add.reduceat(is_c, starts, dtype=np.int32)
                               for is_c in labels])                # (classes, nodes)
            left = np.zeros((self.n_classes - 1,) + n_left.shape, dtype=np.int32)
            kinds = []
            for real, k in ((binary.T, 1), (drawn.T, n_thr)):
                if real.any():
                    on = np.repeat(real, sizes, axis=1)            # (dims, rows)
                    kinds.append((real, k, on, cols[on]))
            del cols  # the batch's values are in ``kinds`` now, each kind's freed after use
            used = 0
            while kinds:
                real, k, on, values = kinds.pop(0)
                pair_rows = (real * sizes)[real]
                width = len(values)
                cells = self.mask_buf[used:used + k * width].reshape(k, width)
                used += k * width
                pair_thr = np.ascontiguousarray(thresholds.transpose(1, 0, 2)[real][:, :k].T)
                pair_ends = np.cumsum(pair_rows)
                pair_starts = pair_ends - pair_rows
                # each row against its own pair's thresholds, repeated per row
                # for whole pairs of at most max(_BATCH_ROWS, n) rows at a time
                p, ends = 0, pair_ends.tolist()
                while p < len(ends):
                    a = ends[p] - int(pair_rows[p])
                    q = int(np.searchsorted(pair_ends, a + max(_BATCH_ROWS, ds.n), side="right"))
                    np.less(values[a:ends[q - 1]],
                            np.repeat(pair_thr[:, p:q], pair_rows[p:q], axis=1),
                            out=cells[:, a:ends[q - 1]])
                    p = q
                n_left[real, :k] = _counts(cells, pair_starts).T
                scratch = self.class_buf[:cells.size].reshape(cells.shape)
                for c in range(self.n_classes - 1):
                    np.logical_and(cells, np.broadcast_to(labels[c], on.shape)[on], out=scratch)
                    left[c][real, :k] = _counts(scratch, pair_starts).T
        else:
            # every (slot, threshold) of every row against its node's thresholds, one
            # dim at a time; a NaN threshold, where a slot has none, gives a zero row
            mask = self.mask_buf[:n_dims * n_thr * len(rows)].reshape(n_dims, n_thr, len(rows))
            for f in range(n_dims):
                np.less(cols[f], np.repeat(thresholds[:, f].T, sizes, axis=1), out=mask[f])
            del cols
            flat = mask.reshape(n_dims * n_thr, len(rows))
            n_left = _counts(flat, starts).reshape(n_dims, n_thr, n_nodes).transpose(0, 2, 1)

        n_bag = sizes[:, None]                    # against (dims, nodes, thresholds)
        n_right = n_bag - n_left
        usable = (n_left >= sigma) & (n_right >= sigma)
        if self.classify:
            # entropies of the usable candidates only
            n_l, n_r = n_left[usable], n_right[usable]
            counts = np.empty((self.n_classes, len(n_l)), dtype=np.int32)
            counts[:-1] = left[:, usable]
            counts[-1] = n_l - counts[:-1].sum(axis=0)
            counts_r = np.broadcast_to(totals[:, None, :, None], (self.n_classes,) + usable.shape)
            imp_l, imp_r = np.zeros(usable.shape), np.zeros(usable.shape)
            imp_l[usable] = _entropy_from_counts(counts, n_l)
            imp_r[usable] = _entropy_from_counts(counts_r[:, usable] - counts, n_r)
            parent = _entropy_from_counts(totals, sizes.astype(np.float64))
        else:
            s1, s2, tot1, tot2, parent = self._regression_sums(rows, flat, segments)
            s1, s2 = s1.transpose(1, 0, 2), s2.transpose(1, 0, 2)
            tot1, tot2 = tot1[:, None], tot2[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                imp_l = np.where(n_left > 0, s2 / n_left - (s1 / n_left) ** 2, 0.0)
                imp_r = np.where(
                    n_right > 0,
                    (tot2 - s2) / n_right - ((tot1 - s1) / n_right) ** 2,
                    0.0,
                )
            imp_l = np.maximum(imp_l, 0.0)
            imp_r = np.maximum(imp_r, 0.0)

        parent = parent[:, None]
        gains = parent - (n_left * imp_l + n_right * imp_r) / n_bag
        gains[~(usable & (gains > _GAIN_EPS * np.maximum(1.0, parent)))] = -np.inf
        best = gains.max(axis=(0, 2), keepdims=True, initial=-np.inf)
        # lexicographic minimum of (-gain, dim, threshold) per node: the
        # largest gain, then the lowest dim and threshold among exact ties
        f, node, j = np.nonzero((gains == best) & (best > -np.inf))
        dim = dims[node, f]
        thr = thresholds[node, f, j]
        order = np.lexsort((thr, dim, node))
        out = [None] * n_nodes
        if not order.size:
            return out
        ranked = node[order]
        first = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
        # the child bags of every split node: one comparison of each row with
        # its node's winning (dim, threshold), then one stable sort of the
        # batch rows by (node, side), the left child first; a key type of 8
        # or 16 bits lets the sort use radix sort
        split = node[first]
        split_at = np.zeros(n_nodes, dtype=np.intp)
        split_at[split] = dim[first] * ds.n
        split_thr = np.full(n_nodes, np.nan)
        split_thr[split] = thr[first]
        key = np.min_scalar_type(2 * n_nodes)
        side = np.repeat(np.arange(0, 2 * n_nodes, 2, dtype=key), sizes)
        side += np.take(self.xt, np.repeat(split_at, sizes) + rows) >= np.repeat(split_thr, sizes)
        children = rows[np.argsort(side, kind="stable")]
        ends = np.bincount(side, minlength=2 * n_nodes).cumsum().tolist()
        for k, d, t in zip(split.tolist(), dim[first].tolist(), thr[first].tolist()):
            cut = ends[2 * k]
            # the right bag waits for the whole left subtree: its own copy
            # lets the batch's array go as soon as the left bags are scored
            out[k] = _Split(d, t, children[segments[k].start:cut],
                            children[cut:ends[2 * k + 1]].copy())
        return out

    def _regression_sums(self, rows, flat, segments):
        """Left sums of y and y² per candidate, bag totals and parent variance.

        ``rows`` are the batch's bag rows, node after node, ``flat`` their
        (dims * thresholds, rows) bool mask, all False on the thresholds a
        slot does not have, and ``segments`` each node's rows. A node's sums
        are one product of its slice of that mask as 0/1 floats with the
        (bag, 2) matrix [y, y²].
        """
        y = self.y[rows]
        yy = y * y
        moments = np.column_stack([y, yy])
        # a window of max(n, bag) rows at a time, so the float matrix stays
        # the size that one root bag needs
        window = slice(0, 0)
        sums = np.empty((len(segments), self.n_dims * _THRESHOLDS, 2))
        tot1, tot2, parent = [], [], []
        for k, seg in enumerate(segments):
            n_bag = seg.stop - seg.start
            sum_tot, sumsq_tot = float(y[seg].sum()), float(yy[seg].sum())
            tot1.append(sum_tot)
            tot2.append(sumsq_tot)
            # moment form (clipped) keeps parent and children arithmetically
            # consistent so pure bags yield exactly zero gain
            parent.append(max(sumsq_tot / n_bag - (sum_tot / n_bag) ** 2, 0.0))
            if seg.stop > window.stop:
                window = slice(seg.start, min(seg.start + max(self.ds.n, n_bag), len(rows)))
                ones = flat[:, window].astype(np.float64)
            np.matmul(ones[:, seg.start - window.start:seg.stop - window.start], moments[seg],
                      out=sums[k])
        shape = (len(segments), self.n_dims, _THRESHOLDS)
        return (sums[:, :, 0].reshape(shape), sums[:, :, 1].reshape(shape), np.array(tot1),
                np.array(tot2), np.array(parent))


def _counts(cells: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(candidates, segments) int32 sums of a (candidates, cells) bool block
    over the segments that begin at ``starts``, in calls of at most
    ``_COUNT_CELLS`` cells."""
    out = np.empty((len(cells), len(starts)), dtype=np.int32)
    block = max(1, _COUNT_CELLS // cells.shape[1])
    for r in range(0, len(cells), block):
        np.add.reduceat(cells[r:r + block], starts, axis=1, dtype=np.int32,
                        out=out[r:r + block])
    return out


def fit_forest(ds, cfg: TreeConfig) -> list[DecisionTree]:
    """Grow ``n_trees`` trees, each from its own generator derived from (seed, t).

    Raises ValueError on an empty dataset, on a NaN or infinite feature
    value, naming its row and feature, and on a non-finite label or a class
    label that is not a non-negative integer, naming its row.
    """
    if ds.n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    check_finite_features(ds)
    check_labels(ds)
    grower = _Grower(ds, cfg)
    chunk = max(1, _CHUNK_ROWS // ds.n)
    forest = []
    for first in range(0, cfg.n_trees, chunk):
        trees = range(first, min(first + chunk, cfg.n_trees))
        forest += grower.grow([sub_rng(cfg.seed, STREAM_TREE, t) for t in trees])
    return forest

