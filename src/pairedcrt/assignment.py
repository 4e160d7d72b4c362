"""Within-pair treatment randomization.

Each pair gets an independent fair coin deciding which member is treated.
Coins come from a Philox 4x64 counter-based generator keyed by the seed, so
a (design, seed) combination reproduces the same assignment on any platform
and assignments for different seeds can be generated in parallel.
"""

from __future__ import annotations

import numpy as np

from .core import _is_integer
from .matching import MatchedDesign


def _philox(seed) -> np.random.Generator:
    """The Philox generator keyed by ``seed``, a Python or numpy integer in
    [0, 2**64); any other seed, a bool too, raises ``ValueError``."""
    if not (_is_integer(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def assign_within_pairs(design: MatchedDesign, seed: int) -> np.ndarray:
    """Return a binary treatment vector with exactly one treated cluster per pair.

    The vector is indexed by cluster position (the same indexing as the
    design's permutation), not by pair. ``seed`` must be an integer in
    [0, 2**64).
    """
    rng = _philox(seed)
    first_treated = rng.integers(0, 2, size=design.pair_count)
    treatments = np.empty(2 * design.pair_count, dtype=np.int64)
    perm = np.asarray(design.permutation)
    treatments[perm[0::2]] = first_treated
    treatments[perm[1::2]] = 1 - first_treated
    return treatments
