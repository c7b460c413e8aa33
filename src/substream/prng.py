"""Portable seeded pseudo-random generator used wherever the package needs
randomness (graph generators, reservoir sampling, test instance sampling).

The generator is the splitmix64 sequence: the 64-bit state advances by the
odd constant 0x9E3779B97F4A7C15 and each output is finalized with the
xor-shift-multiply mix using constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB and shifts 30/27/31.  Any implementation of these
constants reproduces the streams bit for bit, independent of platform or
language, which is what makes benchmark output reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def random_block(self, count: int) -> np.ndarray:
        """The next ``count`` values of :meth:`random` as a float64 array.

        The states are computed with numpy ``uint64`` arithmetic, which
        wraps modulo 2**64 exactly like the masked Python integers, and the
        generator advances as ``count`` calls to :meth:`random` would.
        """
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        # Plain modulo keeps the stream portable; the bias is negligible
        # for the desk-scale ranges used here (n << 2**64).
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return lo + self.randrange(hi - lo + 1)

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """Uniform sample of ``k`` distinct indices from ``range(n)``.

        Classic one-pass reservoir; the result is returned in ascending
        order so that ``k == n`` reproduces ``range(n)`` exactly.
        """
        if k <= 0:
            raise ValueError("sample size must be positive")
        if k >= n:
            return list(range(n))
        reservoir = list(range(k))
        for i in range(k, n):
            j = self.randrange(i + 1)
            if j < k:
                reservoir[j] = i
        reservoir.sort()
        return reservoir
