"""Threshold-rule conjunctions and their extraction from grown trees.

Every split in a tree contributes one candidate rule: the conjunction of
edge conditions on the path from the root down to that split, closed with
the split's own >= condition. A rule therefore holds for an instance
exactly when routing the instance reaches the split and takes its >= side,
which is what the routing-consistency tests assert. The pool of a forest
is a plain list of its distinct rules, in the order they first occur.

Serving compiles a selected rule list once (``compile_rules``) and then
evaluates exactly ``sum(p.m)`` conditions per row (``rule_matrix``);
``pattern_matrix`` evaluates training pools, ``matches`` is the reference.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

OP_LT = "lt"
OP_GE = "ge"


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

    def holds(self, value: float) -> bool:
        if self.op == OP_LT:
            return value < self.threshold
        return value >= self.threshold


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


def canonicalize(pattern: Pattern) -> Pattern:
    """Keep the tightest bound per (dim, op) and order conditions deterministically."""
    tight: dict[tuple[int, str], float] = {}
    for c in pattern.conditions:
        key = (c.dim, c.op)
        if key not in tight:
            tight[key] = c.threshold
        elif c.op == OP_LT:
            tight[key] = min(tight[key], c.threshold)
        else:
            tight[key] = max(tight[key], c.threshold)
    ordered = tuple(
        Condition(dim, op, thr)
        for (dim, op), thr in sorted(tight.items())
    )
    return Pattern(ordered)


def matches(pattern: Pattern, x: np.ndarray) -> bool:
    """True iff every condition of ``pattern`` holds for the feature vector."""
    d = len(x)
    for c in pattern.conditions:
        if not 0 <= c.dim < d:
            raise IndexError(f"condition dimension {c.dim} outside feature vector of length {d}")
        if not c.holds(x[c.dim]):
            return False
    return True


def tree_patterns(tree) -> list[tuple[Pattern, object]]:
    """Per-split rules of one tree, paired with the >=-side child they describe.

    An instance satisfies the rule iff routing it through the tree visits
    that child node.
    """
    out = []

    def walk(node, path):
        if node.is_leaf:
            return
        closing = Condition(node.dim, OP_GE, node.threshold)
        out.append((canonicalize(Pattern(tuple(path) + (closing,))), node.right))
        walk(node.left, path + [Condition(node.dim, OP_LT, node.threshold)])
        walk(node.right, path + [closing])

    walk(tree.root, [])
    return out


def extract_patterns(forest) -> list[Pattern]:
    """The per-split rules of every tree, deduplicated by canonical form and
    kept in first-occurrence order."""
    if not forest:
        raise ValueError("cannot extract patterns from an empty forest")
    return list(dict.fromkeys(pattern for tree in forest for pattern, _ in tree_patterns(tree)))


def pattern_matrix(x: np.ndarray, patterns: list[Pattern]) -> np.ndarray:
    """Binary matrix whose (i, j) entry says instance i satisfies pattern j."""
    n = x.shape[0]
    out = np.zeros((n, len(patterns)), dtype=np.uint8)
    for j, p in enumerate(patterns):
        mask = np.ones(n, dtype=bool)
        for c in p.conditions:
            col = x[:, c.dim]
            mask &= (col < c.threshold) if c.op == OP_LT else (col >= c.threshold)
        out[:, j] = mask
    return out


class CompiledRules(NamedTuple):
    """A rule list flattened to one entry per condition, rule after rule."""

    dims: np.ndarray         # feature dimension tested
    thresholds: np.ndarray
    ge: np.ndarray           # True for >=, False for <
    starts: np.ndarray       # offset of each rule's first condition


def compile_rules(patterns: list[Pattern]) -> CompiledRules:
    conds = [c for p in patterns for c in p.conditions]
    lengths = np.array([p.m for p in patterns], dtype=np.intp)
    return CompiledRules(np.array([c.dim for c in conds], dtype=np.intp),
                         np.array([c.threshold for c in conds], dtype=np.float64),
                         np.array([c.op == OP_GE for c in conds], dtype=bool),
                         np.cumsum(lengths) - lengths)


def rule_matrix(rules: CompiledRules, x: np.ndarray) -> np.ndarray:
    """Boolean (n, k) matrix of ``x`` against compiled rules.

    A row tests every compiled condition, ``sum(p.m)`` of them, with no
    early exit; one grouped AND then closes each rule.
    """
    vals = x[:, rules.dims]
    hit = np.where(rules.ge, vals >= rules.thresholds, vals < rules.thresholds)
    return np.logical_and.reduceat(hit, rules.starts, axis=1)


def construct_pattern_space(ds, patterns: list[Pattern]) -> np.ndarray:
    for p in patterns:
        for c in p.conditions:
            if not 0 <= c.dim < ds.d:
                raise IndexError(f"condition dimension {c.dim} outside dataset with d={ds.d}")
    return pattern_matrix(ds.x, patterns)


def render_condition(c: Condition, feature_names: list[str]) -> str:
    name = feature_names[c.dim] if 0 <= c.dim < len(feature_names) else f"x{c.dim}"
    op = "<" if c.op == OP_LT else ">="
    return f"({name} {op} {c.threshold:.6g})"


def render_pattern(p: Pattern, feature_names: list[str]) -> str:
    return " AND ".join(render_condition(c, feature_names) for c in p.conditions)
