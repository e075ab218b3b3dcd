"""Seed derivation for all random streams in the package.

Every stage draws from its own generator derived from (root seed, stream
tag, index); nothing touches numpy's global state, so results never depend
on call order across stages.
"""

import numpy as np

# Stream tags. Changing a tag changes every downstream result. Tags 2, 5
# and 6 are retired; a tag is never reused.
STREAM_TREE = 1
STREAM_LABEL_NOISE = 3
STREAM_LDA = 4
STREAM_SYNTH = 7
STREAM_LOCAL_TREES = 8


def sub_rng(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for stream ``path`` under ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse a stream path to a plain integer seed for nested configs."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return int(np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(1)[0])
