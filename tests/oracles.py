"""Reference implementations that the tests compare the library against.

The library builds a forest's rule pool and its rule matrix by routing
rows through split arrays, and evaluates every other rule list with one
compiled kernel. These are the direct, one-node-at-a-time forms of the
same definitions: whether one instance satisfies one rule, the canonical
form of a rule, the per-split rules of a tree with the >= child each
describes, the path of one instance through a tree and a preorder walk
over a tree's nodes. The GLM losses with their gradients, and a model
refitted on an explicit rule list without mining, are the references of
the gradient checks and of the flat baseline of stratification. Forward
selection's (incumbent bits, label) groups are regrouped from scratch
with ``np.unique`` here; the library refines them round by round. The
latent subtype of a synthetic subtyped-regression instance is here too:
no model sees it. So are the paper's default hyperparameters per task.
"""

import numpy as np

from dppred.glm import fit_glm, sigmoid
from dppred.model import (
    METHOD_FORWARD,
    DppredModel,
    HyperParams,
    _check_labels,
    _data_fields,
    _glm_task,
    default_k,
)
from dppred.patterns import OP_GE, OP_LT, Condition, Pattern, construct_pattern_space
from dppred.tree import TreeConfig


def for_task(task: str, seed: int = 0, method: str = METHOD_FORWARD) -> HyperParams:
    """Defaults: T=100, D=6, sigma=10 with k=20 (classification) or
    k=30 (regression)."""
    return HyperParams(tree=TreeConfig(seed=seed), k=default_k(task), method=method, task=task)


def matches(pattern: Pattern, x: np.ndarray) -> bool:
    """True iff every condition of ``pattern`` holds for the feature vector."""
    d = len(x)
    for c in pattern.conditions:
        if not 0 <= c.dim < d:
            raise IndexError(f"condition dimension {c.dim} outside feature vector of length {d}")
        holds = x[c.dim] < c.threshold if c.op == OP_LT else x[c.dim] >= c.threshold
        if not holds:
            return False
    return True


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


def route(root, x: np.ndarray):
    """Yield the nodes visited when routing ``x`` from the root to a leaf."""
    node = root
    while True:
        yield node
        if node.is_leaf:
            return
        node = node.left if x[node.dim] < node.threshold else node.right


def iter_nodes(root, depth: int = 0):
    """Yield (node, depth) over the whole tree, preorder."""
    yield root, depth
    if not root.is_leaf:
        yield from iter_nodes(root.left, depth + 1)
        yield from iter_nodes(root.right, depth + 1)


def subtype_of(x: np.ndarray, n_subtypes: int) -> np.ndarray:
    """Latent subtype implied by the marker block (not an explicit feature)."""
    return np.argmax(np.asarray(x)[:, :n_subtypes], axis=1).astype(np.int64)


def group_rows(X, rows, cols, chosen, y):
    """Collapse rows to distinct (incumbent bits, label) groups.

    Returns each group's incumbent bits, label and size, and the (pool, G)
    counts of its rows that satisfy each candidate, from the set (row,
    column) pairs ``rows``, ``cols`` of ``X``: one integer ``np.bincount``.
    """
    key = np.column_stack([X[:, chosen], y]).astype(np.int64)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    G = len(uniq)
    m1 = np.bincount(cols * G + inverse[rows], minlength=X.shape[1] * G)
    n_g = np.bincount(inverse, minlength=G).astype(np.float64)
    return uniq[:, :-1].astype(np.float64), uniq[:, -1], n_g, m1.reshape(-1, G).astype(np.float64)


def linear_loss(X, y, w, b):
    """Mean squared error and its gradient."""
    X = np.asarray(X, dtype=np.float64)
    r = X @ w + b - y
    n = len(y)
    f = float(r @ r) / n
    return f, (2.0 / n) * (X.T @ r), 2.0 * float(r.mean())


def logistic_loss(X, t, w, b):
    """Mean cross entropy (natural log) and its gradient, targets in {0,1}."""
    X = np.asarray(X, dtype=np.float64)
    z = X @ w + b
    n = len(t)
    f = float(np.logaddexp(0.0, z).sum() - t @ z) / n
    p = sigmoid(z)
    r = p - t
    return f, (X.T @ r) / n, float(r.mean())


def refit_on_patterns(ds, rules: list[Pattern], task: str,
                      provenance: dict | None = None) -> DppredModel:
    """Build a model from an explicit rule list (no mining, just the GLM fit)."""
    _check_labels(ds, task)
    space = construct_pattern_space(ds, rules)
    glm = fit_glm(space.astype(np.float64), ds.y, _glm_task(task))
    return DppredModel(
        patterns=list(rules),
        glm=glm,
        **_data_fields(ds),
        provenance=provenance or {"task": task, "method": "refit", "k": len(rules)},
    )
