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
splitmix64 output of ``seed``. Work items that may run in any order or
batching each take their own stream, item i stream i, so results never
depend on scheduling; many items take theirs as the columns of one
``Lockstep.spawned(rng, 0, n)``.

:class:`Lockstep` steps many xoshiro256** streams together: their four
state words live in one (4, n) ``uint64`` array, and each draw advances
only the streams it is asked for. Stream j yields exactly the values
that the scalar :class:`Rng` with the same state yields, in the same
order, so a loop over items can become a loop over positions.
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


def _splitmix_range(seed: int, n: int, first: int = 0) -> np.ndarray:
    """Entry j is ``_splitmix_at(seed, first + j)``, for j in [0, n)."""
    z = np.arange(n, dtype=np.uint64)
    z += np.uint64((first + 1) & _MASK)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK)
    return _mix_words(z)


def _mix_words(z: np.ndarray) -> np.ndarray:
    # splitmix64 output function over a uint64 array, in place
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def _check_bound(n: int) -> None:
    if n <= 0:
        raise TraitgenError(f"randint bound must be positive, got {n}")
    if n > _MASK + 1:  # no draw could be accepted, and rejection would never end
        raise TraitgenError(f"randint bound must be at most 2**64, got {n}")


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
        """Uniform integer in [0, n), unbiased via rejection; n is at most 2**64."""
        _check_bound(n)
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


_TOP = np.uint64(_MASK)
# small uint64 constants, built once: making a numpy scalar costs about as
# much as one ufunc call on a short array
_K = [np.uint64(k) for k in range(64)]


class Lockstep:
    """Many xoshiro256** streams stepped together; column j of ``state`` is stream j.

    Every draw takes ``rows``, an integer index array of the streams that
    draw (``None`` for all of them), and advances only those streams, so
    each stream sees the same values in the same order as a scalar
    :class:`Rng` with its state.
    """

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    @classmethod
    def spawned(cls, rng: Rng, start: int, n: int) -> "Lockstep":
        """The streams ``rng.spawn(start + j)`` for j in [0, n)."""
        if start < 0:
            raise TraitgenError(f"stream_id must be non-negative, got {start}")
        seeds = _splitmix_range(rng.seed, n, 4 + start)
        return cls(np.stack([_mix_words(seeds + np.uint64(((i + 1) * _GOLDEN) & _MASK))
                             for i in range(4)]))

    def next_uint64(self, rows: np.ndarray | None = None) -> np.ndarray:
        s = self.state if rows is None else self.state[:, rows]
        s0, s1, s2, s3 = s
        result = s1 * _K[5]
        result = (result << _K[7]) | (result >> _K[57])
        result *= _K[9]
        t = s1 << _K[17]
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[...] = (s3 << _K[45]) | (s3 >> _K[19])
        if rows is not None:
            self.state[:, rows] = s
        return result

    def random(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Uniform float64 in [0, 1) with 53 bits of precision."""
        return (self.next_uint64(rows) >> _K[11]).astype(np.float64) * 2.0 ** -53

    def randint(self, n: int | np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Uniform in [0, n) per stream; ``n`` is one bound or one per drawing stream.

        The rejection rule is :meth:`Rng.randint`'s: a draw is kept when it
        is below 2**64 - (2**64 mod n), and only the rejected streams draw again.
        """
        if np.ndim(n) == 0:
            n = int(n)
            _check_bound(n)
            if n == _MASK + 1:
                return self.next_uint64(rows)
            top = _MASK - (_MASK + 1) % n  # the largest accepted draw
        else:
            n = np.asarray(n, dtype=np.uint64)
            if not n.all():
                raise TraitgenError("randint bound must be positive, got 0")
            top = _TOP - (_TOP - n + _K[1]) % n  # (2**64 - n) mod n is 2**64 mod n
        r = self.next_uint64(rows)
        retry = np.flatnonzero(r > top)
        while retry.size:
            redraw = self.next_uint64(retry if rows is None else rows[retry])
            r[retry] = redraw
            retry = retry[redraw > (top if np.ndim(top) == 0 else top[retry])]
        return r % n

    def coin(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Fair bit in {0, 1}."""
        return self.next_uint64(rows) >> _K[63]
