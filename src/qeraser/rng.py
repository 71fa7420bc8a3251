"""Deterministic 64-bit PRNG used for event sampling.

The generator is the splitmix64 sequence, fixed here by explicit
specification so that event logs are bit-exact across machines, runs,
and implementations:

    state_i  = (seed + i * 0x9E3779B97F4A7C15) mod 2^64      (i = 1, 2, ...)
    z        = state_i
    z        = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z        = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output_i = z XOR (z >> 31)

Uniform doubles take the top 53 bits: u_i = (output_i >> 11) / 2^53,
giving values in [0, 1). Because output_i depends only on (seed, i),
batches of any size concatenate to the same stream. Streams with
distinct seeds never share state.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidCountError, ValidationError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 1.0 / (1 << 53)


def checked_seed(seed) -> int:
    """The seed as an int; ValidationError unless an integer in [0, 2^64).

    SplitMix64 reduces seeds mod 2^64, so a seed outside that range (or a
    fraction, truncated by int()) would reproduce another seed's stream.
    """
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2^64), got {seed}")
    return int(seed)


class SplitMix64:
    """Counter-based splitmix64 stream over a 64-bit seed."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._index = 0

    def next_uint64(self) -> int:
        """Next output as a Python int (advances the stream by one)."""
        return int(self.uint64s(1)[0])

    def uint64s(self, count: int) -> np.ndarray:
        """Next `count` outputs as a uint64 array (advances the stream)."""
        if count < 0:
            raise InvalidCountError("count must be non-negative")
        idx = np.arange(self._index + 1, self._index + count + 1, dtype=np.uint64)
        self._index += count
        state = np.uint64(self._seed) + idx * np.uint64(_GAMMA)  # wraps mod 2^64
        z = state
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def floats(self, count: int) -> np.ndarray:
        """Next `count` uniform doubles in [0, 1) as a float64 array."""
        return (self.uint64s(count) >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE
