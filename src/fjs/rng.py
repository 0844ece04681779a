"""Seeded pseudo-random numbers with cross-language reproducible output.

A 64-bit seed is expanded with splitmix64 into the state of a
xoshiro256** generator.  Bounded draws use rejection sampling, so they are
exactly uniform and independent of the platform's integer width.  The same
seed yields the same byte stream anywhere, which is what makes generated
instance files reproducible.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _splitmix64_state(seed: int) -> list[int]:
    """The four xoshiro256** state words: the first four outputs of splitmix64 from `seed`."""
    state = seed & _MASK64
    words = []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        words.append(z ^ (z >> 31))
    return words


class Xoshiro256StarStar:
    """xoshiro256** stream seeded via splitmix64."""

    def __init__(self, seed: int):
        self.s = _splitmix64_state(seed)
        if not any(self.s):  # the all-zero state is a fixed point
            self.s[0] = 1

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self.s = [s0, s1, s2, s3]
        return result

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi], via rejection.

        Each draw is the step of ``next_u64``, run inline on local state
        words; the state is stored once, after the accepted draw.
        """
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        s0, s1, s2, s3 = self.s
        while True:
            x = (s1 * 5) & _MASK64
            r = (((x << 7) | (x >> 57)) * 9) & _MASK64
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
            if r < limit:
                self.s = [s0, s1, s2, s3]
                return lo + r % span

    def sample(self, population: list[int], k: int) -> list[int]:
        """k distinct elements, uniform over subsets (partial Fisher-Yates)."""
        if k > len(population):
            raise ValueError(f"cannot sample {k} from {len(population)} elements")
        pool = list(population)
        for i in range(k):
            j = self.randint(i, len(pool) - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
