"""Seeded, splittable random variate generation (RNG tape version ``TAPE``).

Every stream is ``PCG64(SeedSequence(seed, spawn_key=(index,)))`` for a
64-bit master seed and a 64-bit stream index.  SeedSequence's hash mixing
gives avalanche behavior over both, so nearby (seed, index) pairs yield
unrelated streams, and the tape a stream produces is a pure function of
``(seed, index, draw count)``: replicates drawing from their own indices
reproduce bit-identically on any number of workers.

That tape is unchanged, but no SeedSequence is built for it:
:func:`_seed_words` computes SeedSequence's output words directly (the
seed's share of the mix cached per seed), and PCG64 seeds itself from them.
Each stream is a generator of its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Version of the draw discipline, stamped into sample CSVs and run reports.
# Tape 2: one generator per chi factor (all diagonal entries, then all
# subdiagonal entries); the Airy sampler's normal tape is unchanged from 1.
TAPE = 2

_MAX_UINT64 = 2**64 - 1
_M32 = 2**32 - 1
# SeedSequence's hash constants: the k-th hash of its mix xors a word with _MIX[k] and
# multiplies by _MIX[k + 1], and its i-th output word likewise with _OUT[i], _OUT[i + 1]
_MIX = [0x43B0D7E5 * pow(0x931E8875, k, 2**32) & _M32 for k in range(25)]
_OUT = [0x8B51F9DD * pow(0x58F38DED, i, 2**32) & _M32 for i in range(9)]
# (pool word, constants) of the spawn key's hashes, four per key word, and of the output words
_KEY_HASHES = [[(d, _MIX[k], _MIX[k + 1]) for d, k in enumerate(range(j, j + 4))] for j in (16, 20)]
_OUT_HASHES = [(i & 3, _OUT[i], _OUT[i + 1]) for i in range(8)]


def _hash(word: int, x: int, y: int) -> int:
    h = (word ^ x) * y & _M32
    return h ^ h >> 16


def _mix(x: int, y: int) -> int:
    m = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return m ^ m >> 16


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[int, ...]:
    """SeedSequence's pool once the seed's words, zero-padded to four, are hashed in and mixed."""
    pool = [_hash(w, _MIX[k], _MIX[k + 1]) for k, w in enumerate((seed & _M32, seed >> 32, 0, 0))]
    for k, (s, d) in enumerate([(s, d) for s in range(4) for d in range(4) if s != d], start=4):
        pool[d] = _mix(pool[d], _hash(pool[s], _MIX[k], _MIX[k + 1]))
    return tuple(pool)


def _seed_words(seed: int, index: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(index,)).generate_state(4, np.uint64)``."""
    pool = list(_seed_pool(seed))
    for w, hashes in zip((index & _M32, index >> 32) if index > _M32 else (index,), _KEY_HASHES):
        for d, x, y in hashes:
            pool[d] = _mix(pool[d], _hash(w, x, y))
    u = [_hash(pool[d], x, y) for d, x, y in _OUT_HASHES]  # paired into 64-bit words, low first
    return np.array([u[1] << 32 | u[0], u[3] << 32 | u[2], u[5] << 32 | u[4], u[7] << 32 | u[6]], np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The four 64-bit words ``PCG64`` asks its seed sequence for, computed beforehand."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def split_stream(seed: int, index: int) -> np.random.Generator:
    """Deterministic stream ``index`` of the master ``seed``, as a generator of its own.

    Distinct indices give streams with no shared prefix; identical
    (seed, index) pairs replay the identical tape on any platform.
    """
    for value, name in ((seed, "seed"), (index, "stream index")):
        if not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        if not 0 <= int(value) <= _MAX_UINT64:
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    return np.random.Generator(np.random.PCG64(_SeedWords(_seed_words(int(seed), int(index)))))


def streams(seed: int, indices) -> list[np.random.Generator]:
    """The streams ``(seed, index)`` for each of ``indices``, in order."""
    return [split_stream(seed, index) for index in indices]


def chi(gen: np.random.Generator, alpha, out: np.ndarray | None = None):
    """Chi variates in the convention E[chi_alpha^2] = alpha, one per entry of ``alpha``,
    written into ``out`` when it is given.

    Sampled as sqrt of a gamma variate with shape alpha/2 and scale 2
    (correct for all alpha > 0 including shape < 1).  alpha = 0 denotes the
    degenerate variate identically zero and consumes no tape.  A negative
    alpha (-0.0 included) raises ValueError, from ``standard_gamma``'s own check.
    """
    gamma = gen.standard_gamma(0.5 * np.asarray(alpha, dtype=float), out=out)
    return np.sqrt(np.multiply(gamma, 2.0, out=out), out=out)
