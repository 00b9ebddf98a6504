"""Seeded, splittable random variate generation (RNG tape version ``TAPE``).

Every stream is ``PCG64(SeedSequence(seed, spawn_key=(index,)))`` for a
64-bit master seed and a 64-bit stream index.  SeedSequence's hash mixing
gives avalanche behavior over both, so nearby (seed, index) pairs yield
unrelated streams, and the tape a stream produces is a pure function of
``(seed, index, draw count)``: replicates drawing from their own indices
reproduce bit-identically on any number of workers.
"""

from __future__ import annotations

import numpy as np

# Version of the draw discipline, stamped into sample CSVs and run reports.
# Tape 2: one generator per chi factor (all diagonal entries, then all
# subdiagonal entries); the Airy sampler's normal tape is unchanged from 1.
TAPE = 2

_MAX_UINT64 = 2**64 - 1


def split_stream(seed: int, index: int) -> np.random.Generator:
    """Deterministic stream ``index`` of the master ``seed``.

    Distinct indices give streams with no shared prefix; identical
    (seed, index) pairs replay the identical tape on any platform.
    """
    for value, name in ((seed, "seed"), (index, "stream index")):
        if not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        if not 0 <= int(value) <= _MAX_UINT64:
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def chi(gen: np.random.Generator, alpha):
    """Chi variates in the convention E[chi_alpha^2] = alpha, one per entry of ``alpha``.

    Sampled as sqrt of a gamma variate with shape alpha/2 and scale 2
    (correct for all alpha > 0 including shape < 1).  alpha = 0 denotes the
    degenerate variate identically zero and consumes no tape.  A negative
    alpha (-0.0 included) raises ValueError, from ``standard_gamma``'s own check.
    """
    return np.sqrt(2.0 * gen.standard_gamma(0.5 * np.asarray(alpha, dtype=float)))
