"""Deterministic random number generation.

A splitmix64 sequence seeds (and derives streams from) a xoshiro256**
generator. Both algorithms are implemented here in exact 64-bit integer
arithmetic so that a given seed produces the same stream on every
platform, independent of libc.

splitmix64 is counter-based: its ``(i + 1)``-th output is a pure
function of (seed, i). :func:`_splitmix_range` evaluates a block of
outputs at once over numpy ``uint64`` arrays, whose multiplications wrap
mod 2**64 exactly as the masked scalar ones do; weight initialisation
draws one key from a stream and expands it this way.

Stream derivation: ``Rng(seed).spawn(i)`` reseeds from the ``(i + 1)``-th
splitmix64 output of ``seed``. Parallel work items should each take
``spawn(item_index)`` so results never depend on scheduling order.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraitgenError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    # splitmix64 output function
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _splitmix_at(seed: int, index: int) -> int:
    """The ``(index + 1)``-th output of splitmix64 seeded with ``seed``."""
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK)


def _splitmix_range(seed: int, n: int) -> np.ndarray:
    """Outputs 1..n of splitmix64 seeded with ``seed``: entry j is ``_splitmix_at(seed, j)``."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Rng:
    """xoshiro256** stream, seeded via splitmix64."""

    __slots__ = ("seed", "_s")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._s = [_splitmix_at(self.seed, i) for i in range(4)]

    def spawn(self, stream_id: int) -> "Rng":
        """Independent child stream; deterministic in (seed, stream_id)."""
        if stream_id < 0:
            raise TraitgenError(f"stream_id must be non-negative, got {stream_id}")
        return Rng(_splitmix_at(self.seed, 4 + stream_id))

    def next_uint64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise TraitgenError(f"randint bound must be positive, got {n}")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            r = self.next_uint64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def coin(self) -> int:
        """Fair bit in {0, 1}."""
        return self.next_uint64() >> 63
