"""substream draws the streams of SeedSequence over its keys, bit for bit."""

import zlib

import numpy as np
import pytest

from trep.rng import substream


def reference(*parts):
    keys = [zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else p for p in parts]
    return np.random.default_rng(np.random.SeedSequence(keys))


# one uint32 word, the largest one word, two words and three (1, 0, 1)
@pytest.mark.parametrize("value", [0, 2**32 - 1, 2**32, 2**64 + 1])
@pytest.mark.parametrize("path", [(), ("noisy",), ("boot", 3), ("f2", 2**40, "x")])
def test_substream_matches_seed_sequence_of_its_keys(value, path):
    for parts in [(value, *path), (7, *path, value)]:
        got, expected = substream(*parts), reference(*parts)
        assert got.bit_generator.state == expected.bit_generator.state
        np.testing.assert_array_equal(got.random(6), expected.random(6))
        np.testing.assert_array_equal(got.integers(0, 2**62, 4), expected.integers(0, 2**62, 4))


@pytest.mark.parametrize("parts", [(-1,), (0, "noisy", -(2**40))])
def test_substream_rejects_a_negative_component(parts):
    with pytest.raises(ValueError, match="stream path components must be non-negative"):
        substream(*parts)
