"""Threshold-rule conjunctions and their extraction from grown trees.

Every split in a tree contributes one candidate rule: the conjunction of
edge conditions on the path from the root down to that split, closed with
the split's own >= condition. Its canonical form keeps the tightest bound
per (dim, op) and orders the conditions by dim, >= before <. A rule
therefore holds for an instance exactly when routing the instance reaches
the split and takes its >= side, which is what the routing-consistency
tests assert.

``extract_patterns`` flattens a forest once into arrays of its split
nodes, in forest order and preorder within each tree. Each split's
canonical rule is keyed, level by level down the trees, as one float
vector: per feature dimension the largest >= threshold and the negated
smallest < threshold, -inf where absent. The pool is the distinct keys in
the order they first occur, and a rule's ``Pattern`` is built only when
the pool is read. ``construct_pattern_space`` routes the training rows
through the pool's trees, level by level, and sets the pool column of
every >= child a row enters, so no condition is evaluated twice. Every
split of one rule sends the same rows to its >= child, so only the rule's
first split writes its column.

Every other rule list goes through one compiled kernel: it is compiled
once (``compile_rules``) into a grid of k rules by ``width`` tests, width
being the longest rule's length and each test a ``>=`` comparison, and
then evaluated with exactly ``k * width`` condition tests per row
(``rule_matrix``). Serving uses it, and so do the stratified global bits
in training (``pattern_matrix``). The one-rule, one-row reference the
tests compare both evaluators against is ``matches`` in
``tests/oracles.py``.
"""

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

OP_LT = "lt"
OP_GE = "ge"

# (tree, row) pairs routed together, which bounds the routing state: all
# 100 trees of 1000 rows, 6 trees of 20k rows
_ROUTE_PAIRS = 1 << 17


@dataclass(frozen=True)
class Condition:
    """One thresholded test on a feature dimension: x[dim] < t or x[dim] >= t."""

    dim: int
    op: str
    threshold: float

    def __post_init__(self):
        if self.op not in (OP_LT, OP_GE):
            raise ValueError(f"unknown condition operator {self.op!r}")
        if self.dim < 0:
            raise ValueError(f"negative condition dimension {self.dim}")


@dataclass(frozen=True)
class Pattern:
    """A conjunction of conditions, kept in canonical-comparable order."""

    conditions: tuple[Condition, ...]

    def __post_init__(self):
        if len(self.conditions) == 0:
            raise ValueError("a pattern needs at least one condition")

    @property
    def m(self) -> int:
        return len(self.conditions)


class _Splits(NamedTuple):
    """The split nodes of a forest, in forest order and preorder within each tree."""

    dim: np.ndarray        # feature dimension tested
    threshold: np.ndarray
    children: np.ndarray   # split index of the < child at 2s, of the >= child at 2s + 1; -1 at a leaf
    roots: np.ndarray      # split index of the root of every tree that splits
    column: np.ndarray     # pool column of the split's rule at its first split, else -1


class RulePool(Sequence):
    """The distinct rules of a forest, in the order they first occur.

    ``pool[j]`` builds the canonical ``Pattern`` of rule j from its key
    when read. The pool keeps the forest's splits, which
    ``construct_pattern_space`` routes rows through.
    """

    def __init__(self, splits: _Splits, keys: np.ndarray, dims: list[int]):
        self.splits = splits
        self.dims = dims     # the feature dimensions the forest splits on, ascending
        self._keys = keys    # (rules, 2 * len(dims)): per dim, max >= and -min < threshold

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, j) -> Pattern:
        row = self._keys[operator.index(j)]
        key, dims = row.tolist(), self.dims
        return Pattern(tuple(
            Condition(dims[c >> 1], OP_LT, -key[c]) if c & 1 else Condition(dims[c >> 1], OP_GE, key[c])
            for c in np.flatnonzero(row > -np.inf).tolist()))

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """C-order uint8 (n, len(self)) matrix: row i has a 1 in the column of
        every >= child it enters when routed through the pool's trees.

        This routed form serves training pools only; a plain rule list goes
        through the compiled kernel (``pattern_matrix``). A NaN feature value
        takes neither side of a split, so its row stops there, and it
        satisfies no rule through that split, as with the compiled kernel.
        """
        sp, n, width = self.splits, x.shape[0], len(self)
        out = np.zeros(n * width, dtype=np.uint8)
        xt = np.ascontiguousarray(x.T).ravel()
        at = sp.dim * n     # offset of each split's feature in the flat x.T
        chunk = max(1, _ROUTE_PAIRS // max(n, 1))
        for first in range(0, len(sp.roots), chunk):
            roots = sp.roots[first:first + chunk]
            node = np.repeat(roots, n)
            row = np.tile(np.arange(n), len(roots))
            while node.size:
                v = xt[at.take(node) + row]
                t = sp.threshold.take(node)
                ge = v >= t
                # index arrays, not boolean masks: the masks are random, and
                # taking by index does not branch on them
                col = sp.column.take(node)
                hit = np.flatnonzero(ge & (col >= 0))
                out[row.take(hit) * width + col.take(hit)] = 1
                node = sp.children.take(2 * node + ge)
                live = np.flatnonzero((node >= 0) & (ge | (v < t)))
                node, row = node.take(live), row.take(live)
        return out.reshape(n, width)


def _flatten(forest):
    """Split arrays of the forest, with each split's parent, depth and side."""
    dim, threshold, parent, depth, ge_side, roots = [], [], [], [], [], []
    for tree in forest:
        if tree.root.is_leaf:
            continue
        roots.append(len(dim))
        stack = [(tree.root, -1, 0, False)]
        while stack:
            node, up, level, ge = stack.pop()
            s = len(dim)
            dim.append(node.dim)
            threshold.append(node.threshold)
            parent.append(up)
            depth.append(level)
            ge_side.append(ge)
            # the left child is popped first: preorder
            if not node.right.is_leaf:
                stack.append((node.right, s, level + 1, True))
            if not node.left.is_leaf:
                stack.append((node.left, s, level + 1, False))
    return (np.array(dim, dtype=np.intp), np.array(threshold, dtype=np.float64),
            np.array(parent, dtype=np.intp), np.array(depth, dtype=np.intp),
            np.array(ge_side, dtype=bool), np.array(roots, dtype=np.intp))


def extract_patterns(forest) -> RulePool:
    """The per-split rules of every tree, deduplicated by canonical form and
    kept in first-occurrence order."""
    if not forest:
        raise ValueError("cannot extract patterns from an empty forest")
    dim, threshold, parent, depth, ge_side, roots = _flatten(forest)
    if not np.isfinite(threshold).all():
        raise ValueError("a split threshold is not finite")
    n_splits = len(dim)
    if n_splits == 0:
        return RulePool(_Splits(dim, threshold, dim, roots, dim), np.empty((0, 0)), [])
    dims, slot = np.unique(dim, return_inverse=True)
    # key entry 2j holds the max >= threshold on the j-th dim split on and
    # 2j + 1 the max of its negated < thresholds, so every edge tightens its
    # bound with a maximum. Level by level, each split first gets the bounds
    # of the path above it: its parent's, tightened by the edge between them.
    keys = np.full((n_splits, 2 * len(dims)), -np.inf)
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    edge_at = 2 * slot[up] + ~ge_side[child]
    edge = np.where(ge_side[child], threshold[up], -threshold[up])
    for level in range(1, int(depth.max()) + 1):
        here = depth[child] == level
        at, c = child[here], edge_at[here]
        keys[at] = keys[up[here]]
        keys[at, c] = np.maximum(keys[at, c], edge[here])
    # then every split closes its rule with its own >= condition
    every = np.arange(n_splits)
    keys[every, 2 * slot] = np.maximum(keys[every, 2 * slot], threshold)

    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    first = np.sort(np.unique(rows, return_index=True)[1])
    column = np.full(n_splits, -1)
    column[first] = np.arange(len(first))
    children = np.full(2 * n_splits, -1)
    children[2 * up + ge_side[child]] = child
    splits = _Splits(dim, threshold, children, roots, column)
    return RulePool(splits, keys[first], dims.tolist())


class CompiledRules(NamedTuple):
    """A rule list as a (k, width) grid of >= tests, width being the longest
    rule's length. The tests read the rows of an operand matrix, one row per
    distinct (dim, op) the rules use: x[:, dim] for a >= condition, then,
    from row ``first_lt`` on, -x[:, dim] for a < condition. A shorter rule
    repeats its last test."""

    dims: np.ndarray         # (r,) feature each operand row copies
    first_lt: int            # operand rows from here on are negated
    operands: np.ndarray     # (k, width) operand row each test reads
    thresholds: np.ndarray   # (k, width, 1), so that it broadcasts over a block's rows


# rows per block of rule_matrix, which bounds its temporaries: a block
# gathers k x width x 1024 float64 values, 1.4 MiB for 30 rules of depth 6
_BLOCK_ROWS = 1024


def compile_rules(patterns: list[Pattern]) -> CompiledRules:
    """The rules padded to one width; AND is idempotent, so a repeated test
    leaves a rule's result alone. ``x < t`` becomes ``-x >= -nextafter(t, -inf)``:
    for finite t the two tests agree on every x, and a NaN fails both."""
    width = max((p.m for p in patterns), default=0)
    conds = [c for p in patterns for c in p.conditions + p.conditions[-1:] * (width - p.m)]
    keys = [(c.op == OP_LT, c.dim) for c in conds]
    rows = {key: row for row, key in enumerate(sorted(set(keys)))}
    operands = np.array([rows[key] for key in keys], dtype=np.intp)
    thresholds = np.array([-math.nextafter(c.threshold, -math.inf) if c.op == OP_LT else c.threshold
                           for c in conds], dtype=np.float64)
    return CompiledRules(np.array([dim for _, dim in rows], dtype=np.intp),
                         sum(not lt for lt, _ in rows),
                         operands.reshape(len(patterns), width),
                         thresholds.reshape(len(patterns), width, 1))


def rule_matrix(rules: CompiledRules, x: np.ndarray) -> np.ndarray:
    """Boolean C-order (n, k) matrix of ``x`` against compiled rules.

    A row makes k x width >= tests, with no early exit, in blocks of rows;
    each block copies only the features the rules read.
    """
    out = np.empty((len(x), len(rules.operands)), dtype=bool)
    for first in range(0, len(x), _BLOCK_ROWS):
        signed = x[first:first + _BLOCK_ROWS].T.take(rules.dims, axis=0)
        negated = signed[rules.first_lt:]
        np.negative(negated, out=negated)
        hits = signed.take(rules.operands, axis=0) >= rules.thresholds
        out[first:first + _BLOCK_ROWS] = np.logical_and.reduce(hits, axis=1).T
    return out


def pattern_matrix(x: np.ndarray, patterns: list[Pattern]) -> np.ndarray:
    """uint8 (n, k) matrix whose (i, j) entry says instance i satisfies pattern j."""
    return rule_matrix(compile_rules(patterns), x).view(np.uint8)


def construct_pattern_space(ds, patterns) -> np.ndarray:
    """uint8 rule matrix of ``ds``: a ``RulePool`` routes its rows through
    the forest, a plain rule list goes through the compiled kernel; same bits."""
    routed = isinstance(patterns, RulePool)
    dims = patterns.dims if routed else [c.dim for p in patterns for c in p.conditions]
    for dim in dims:
        if not 0 <= dim < ds.d:
            raise IndexError(f"condition dimension {dim} outside dataset with d={ds.d}")
    return patterns.matrix(ds.x) if routed else pattern_matrix(ds.x, patterns)


def render_condition(c: Condition, feature_names: list[str]) -> str:
    name = feature_names[c.dim] if 0 <= c.dim < len(feature_names) else f"x{c.dim}"
    op = "<" if c.op == OP_LT else ">="
    return f"({name} {op} {c.threshold:.6g})"


def render_pattern(p: Pattern, feature_names: list[str]) -> str:
    return " AND ".join(render_condition(c, feature_names) for c in p.conditions)
