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

The constructor holds the seed rule: an integer in [0, 2^64), under
core's integer rule, so no seed is reduced mod 2^64 or truncated into
another seed's stream. A batch's count is an integer in [0, MAX_SIZE].
"""

from __future__ import annotations

import numpy as np

from .core import MAX_SIZE, _integer
from .errors import InvalidCountError, ValidationError

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 1.0 / (1 << 53)


class SplitMix64:
    """Counter-based splitmix64 stream over a 64-bit seed."""

    def __init__(self, seed: int):
        self._seed = _integer(seed, "seed", 0, 2**64 - 1, ValidationError)
        self._index = 0

    def next_uint64(self) -> int:
        """Next output as a Python int (advances the stream by one)."""
        return int(self.uint64s(1)[0])

    def uint64s(self, count: int) -> np.ndarray:
        """Next `count` outputs as a uint64 array (advances the stream)."""
        count = _integer(count, "count", 0, MAX_SIZE, InvalidCountError)
        z = np.arange(self._index + 1, self._index + count + 1, dtype=np.uint64)
        self._index += count
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._seed)  # state_i, then mixed in place, all mod 2^64
        shifted = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(mix)
        return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=shifted), out=z)

    def floats(self, count: int) -> np.ndarray:
        """Next `count` uniform doubles in [0, 1) as a float64 array."""
        return unit_floats(self.uint64s(count))


def unit_floats(outputs: np.ndarray) -> np.ndarray:
    """The uniform doubles u = (output >> 11) / 2^53 of a uint64 array of outputs."""
    return (outputs >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE
