"""Deterministic random-number streams derived from a single master seed.

Every stochastic routine in the package draws from a named substream so that
results are reproducible run-to-run and independent of execution order (in
particular, parallel trials must not share a stream).
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return an independent generator for the given seed and stream path.

    Integer path components are used as-is; strings are hashed (CRC-32) into
    32-bit keys.  Two calls with the same (seed, path) always produce the same
    stream; distinct paths produce statistically independent streams.
    """
    words: list[int] = []  # the uint32 words SeedSequence splits the keys into, low word first
    for part in (seed, *path):
        if isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")))
        else:
            value = int(part)
            if value < 0:
                raise ValueError(f"stream path components must be non-negative, got {value}")
            words.append(value & 0xFFFFFFFF)
            while value > 0xFFFFFFFF:
                value >>= 32
                words.append(value & 0xFFFFFFFF)
    # default_rng(SeedSequence(keys)): the same streams, without the conversions
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(entropy))
