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
scores the nodes in batches of at most ``max(_BATCH_ROWS, n)`` bag rows,
so the preallocated (dims, thresholds, rows) bool mask stays the size
that one bootstrap bag needs however many trees grow together. The work
is per batch, not per node: one ``np.less`` per sampled dim compares
every row with its own node's thresholds, repeated per row; counts are
``np.add.reduceat`` along the contiguous rows; and the child bags of all
split nodes come from one stable sort of the batch rows by (node, side).
Class counts are exact integers, so classification gains are the same
bits however they are batched, and classification forests are
bit-identical to the earlier per-node recursion. For real labels the
batch builds [y, y²] once and copies the mask to floats a window of n rows
at a time; each node then makes one product of its (dims * thresholds,
bag) slice of that copy with its rows of [y, y²], and sums its own y and
y² pairwise. These read only that node's rows, in bag order, so
regression gains do not depend on batching either.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import check_finite_features
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
        self.n_dims = math.ceil(math.sqrt(ds.d))
        self.batch_rows = max(_BATCH_ROWS, ds.n)
        cells = self.n_dims * _THRESHOLDS * self.batch_rows
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
        n_rows = len(rows)

        dims = np.array([rng.choice(ds.d, size=n_dims, replace=False) for rng in rngs])
        at = np.repeat(dims.T * ds.n, sizes, axis=1)
        at += rows
        cols = np.take(self.xt, at)  # (dims, rows)
        lo = np.minimum.reduceat(cols, starts, axis=1).T          # (nodes, dims)
        hi = np.maximum.reduceat(cols, starts, axis=1).T
        binary = ds.binary_dims[dims]
        # NaN thresholds send no row left, so those slots are never usable
        thresholds = np.full((n_nodes, n_dims, n_thr), np.nan)
        thresholds[:, :, 0][binary] = 0.5
        drawn = ~binary & (lo != hi)
        # one draw call per node: uniform(lo, hi, n) is lo + (hi - lo) * random(n)
        draws = [rng.random(n) for rng, n in zip(rngs, (drawn.sum(axis=1) * n_thr).tolist()) if n]
        if draws:
            u = np.concatenate(draws).reshape(-1, n_thr)
            thresholds[drawn] = lo[drawn][:, None] + (hi - lo)[drawn][:, None] * u

        # each row against its own node's thresholds, one dim at a time
        mask = self.mask_buf[:n_dims * n_thr * n_rows].reshape(n_dims, n_thr, n_rows)
        for f in range(n_dims):
            np.less(cols[f], np.repeat(thresholds[:, f].T, sizes, axis=1), out=mask[f])
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
            s1, s2, tot1, tot2, parent = self._regression_sums(rows, flat, segments)
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
        out = [None] * n_nodes
        if not order.size:
            return out
        ranked = node[order]
        first = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
        # the child bags of every split node: one stable sort of the batch
        # rows by (node, side), the left child first; a key type of 8 or 16
        # bits lets the sort use radix sort
        split = node[first]
        chosen = np.zeros(n_nodes, dtype=np.intp)
        chosen[split] = f[first] * n_thr + j[first]
        node_of_row = np.repeat(np.arange(n_nodes, dtype=np.min_scalar_type(2 * n_nodes)), sizes)
        side = node_of_row * 2
        side += ~flat[chosen[node_of_row], np.arange(n_rows)]
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

        ``rows`` are the batch's bag rows, node after node, ``flat`` its
        (candidates, rows) mask and ``segments`` each node's slice of both.
        A node's sums are one product of its (candidates, bag) 0/1 slice of
        the mask with the (bag, 2) matrix [y, y²]; unusable candidates,
        NaN thresholds included, are rows like any other.
        """
        y = self.y[rows]
        yy = y * y
        moments = np.column_stack([y, yy])
        # the mask as 0/1 floats, a window of max(n, bag) rows at a time, so
        # the float copy stays the size that one root bag needs
        window = slice(0, 0)
        sums = np.empty((len(segments), flat.shape[0], 2))
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
        tot1, tot2 = np.array(tot1)[:, None, None], np.array(tot2)[:, None, None]
        shape = (len(segments), self.n_dims, -1)
        return (sums[:, :, 0].reshape(shape), sums[:, :, 1].reshape(shape), tot1, tot2,
                np.array(parent))


def fit_forest(ds, cfg: TreeConfig) -> list[DecisionTree]:
    """Grow ``n_trees`` trees, each from its own generator derived from (seed, t).

    Raises ValueError on an empty dataset, and on a NaN or infinite feature
    value, naming its row and feature.
    """
    if ds.n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    check_finite_features(ds)
    grower = _Grower(ds, cfg)
    chunk = max(1, _CHUNK_ROWS // ds.n)
    forest = []
    for first in range(0, cfg.n_trees, chunk):
        trees = range(first, min(first + chunk, cfg.n_trees))
        forest += grower.grow([sub_rng(cfg.seed, STREAM_TREE, t) for t in trees])
    return forest

