"""The 32-bit output words of ``random.Random``, read in bulk.

CPython's Mersenne Twister builds ``getrandbits(32 * m)`` from the
generator's next m 32-bit words, word i in bits 32i..32i+31, and every
integer draw of ``random.Random`` that goes through ``_randbelow`` reads one
word per try: ``randrange(n)`` takes the top ``n.bit_length()`` bits of
successive words until they are below n.  So a block of words, read once,
reproduces those draws exactly without a call into the generator per draw.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = ["WordStream", "read_words"]

# words fetched per refill of a WordStream's buffer
STREAM_WORDS = 1 << 10


def read_words(rng: random.Random, m: int) -> np.ndarray:
    """The generator's next ``m`` 32-bit words, in the order it makes them."""
    return np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")


class WordStream:
    """A cursor over the words of ``random.Random(seed)``.

    ``below``, ``pairs`` and ``shuffle`` consume exactly the words that
    ``randrange(n)``, ``sample(pool, 2)`` with two ``randrange(p)`` after it,
    and ``shuffle`` of the generator would, and return the same values.
    ``pos`` indexes the buffer: setting it back replays the words after it,
    and ``drop_consumed`` frees the words before it.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._words: list[int] = []
        self.pos = 0

    def drop_consumed(self) -> None:
        del self._words[: self.pos]
        self.pos = 0

    def below(self, n: int) -> int:
        """``randrange(n)``: top-bits rejection over the next words, 1 <= n < 2**32."""
        shift = 32 - n.bit_length()
        words, i = self._words, self.pos
        while True:
            if i == len(words):
                words += read_words(self._rng, STREAM_WORDS).tolist()
            r = words[i] >> shift
            i += 1
            if r < n:
                self.pos = i
                return r

    def pairs(self, pool: list, p: int, count: int) -> list[int]:
        """``count`` draws of ``(*sample(pool, 2), randrange(p), randrange(p))``,
        flattened; len(pool) >= 2.

        ``sample`` draws a pool of at most 21 by swapping its pick out of a
        copy, so the second index is below n - 1 and stands for the last
        entry when it equals the first; a larger pool redraws the second
        index until it differs from the first.  The draws are inlined: a
        batch that runs past the buffer is redrawn after a refill.
        """
        while True:
            try:
                return self._pairs(pool, p, count)
            except IndexError:
                self._words += read_words(self._rng, STREAM_WORDS).tolist()

    def _pairs(self, pool: list, p: int, count: int) -> list[int]:
        n = len(pool)
        small = n <= 21
        sn, sm, sp = 32 - n.bit_length(), 32 - (n - 1).bit_length(), 32 - p.bit_length()
        words, i, out = self._words, self.pos, []
        for _ in range(count):
            r = words[i] >> sn
            i += 1
            while r >= n:
                r = words[i] >> sn
                i += 1
            if small:
                j = words[i] >> sm
                i += 1
                while j >= n - 1:
                    j = words[i] >> sm
                    i += 1
                if j == r:
                    j = n - 1
            else:
                j = r
                while j == r:
                    j = words[i] >> sn
                    i += 1
                    while j >= n:
                        j = words[i] >> sn
                        i += 1
            v1 = words[i] >> sp
            i += 1
            while v1 >= p:
                v1 = words[i] >> sp
                i += 1
            v2 = words[i] >> sp
            i += 1
            while v2 >= p:
                v2 = words[i] >> sp
                i += 1
            out += (pool[r], pool[j], v1, v2)
        self.pos = i
        return out

    def shuffle(self, x: list) -> None:
        """``shuffle(x)`` in place."""
        for i in range(len(x) - 1, 0, -1):
            j = self.below(i + 1)
            x[i], x[j] = x[j], x[i]
