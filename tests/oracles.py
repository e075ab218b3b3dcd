"""Reference implementations that the tests compare the library against.

The library builds a forest's rule pool and its rule matrix by routing
rows through split arrays. These are the direct, one-node-at-a-time forms
of the same definitions: the canonical form of a rule, the per-split rules
of a tree with the >= child each describes, the path of one instance
through a tree and a preorder walk over a tree's nodes. The latent subtype
of a synthetic subtyped-regression instance is here too: no model sees it.
"""

import numpy as np

from dppred.patterns import OP_GE, OP_LT, Condition, Pattern


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
