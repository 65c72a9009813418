"""Deterministic RNG stream derivation.

All randomness in the package flows through named Philox streams derived
from a single master seed.  Philox is counter-based, so streams are
cross-platform reproducible and two streams with different derivation
paths are statistically independent.

A stream is addressed by (master_seed, *path) where path components are
small integers: a stream tag plus optional indices (for example the
repetition number inside a simulation grid cell).  The same address
always yields the same generator state.
"""

from __future__ import annotations

import numpy as np

# stream tags; keep values stable, they are part of the reproducibility contract.
# The library draws from 1 and 3 only; 2 is for direct perturb_points calls.
STREAM_CALIBRATION = 1
STREAM_PERTURB = 2
STREAM_GENDATA = 3


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator addressed by (master_seed, *path)."""
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))
