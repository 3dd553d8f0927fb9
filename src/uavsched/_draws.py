"""numpy's PCG64 `Generator` draws, computed from the raw 64-bit output;
`spawn`, `stream` and `generator` seed every stream and alone load numpy.

A `Generator` call spends about a microsecond in Python-level set-up
before it draws anything, and a sized `choice` about ten, which at the
swarm's and the instance generator's sizes is most of each draw.
`Draws` pulls raw outputs in blocks and computes in plain Python what a
fresh `Generator` on the same bit generator returns, call for call:

- `random()` is the top 53 bits of one output over 2**53;
- an integer below a bound is Lemire's multiply-and-reject method, on a
  32-bit word when the bound is at most 2**32 and on a whole output
  otherwise. A word is the low half of a new output, whose high half is
  kept for the next word, as numpy's `has_uint32` buffer keeps it; a
  bound of 1 draws nothing;
- `pairs(n, count)` is a sized `integers(0, n, size=(count, 2))`;
- `choice(n, k)` is numpy's sampling without replacement: Floyd's
  method and then a shuffle, or, when n > 10000 and k > n // 50, a
  partial shuffle of range(n) whose tail is the result.

`sample` and `skip`, the particles' draws, serve populations up to
`_SMALL` (a larger one raises ValueError) and take their run of bounds
in one slice of the half-word stream. Such a bound rejects only a word
of `_REJECTABLE` (138 of them), so when the slice holds none, each draw
is its word times its bound over 2**32, and only the values a caller
uses are computed; otherwise the exact loop redraws the run from the
words already taken.

The bit generator runs ahead of the draws by up to one block, so a
`Draws` must be the only user of its bit generator.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice

_BLOCK = 64
_WORD = 1 << 32
_LOW = _WORD - 1
# the largest population of a particle draw: a difference list at
# pso.DRAWS_MAX_TASKS tasks or fewer holds fewer pairs
_SMALL = 32
# the words w that some bound b <= _SMALL rejects: for w * b =
# q * 2**32 + r, the low half r = -q * 2**32 mod b is below 2**32 mod b
_REJECTABLE = frozenset((q * _WORD + r) // b for b in range(2, _SMALL + 1)
                        for q in range(b) if (r := -q * _WORD % b) < _WORD % b)


def _outputs(bit_generator):
    while True:
        yield from bit_generator.random_raw(_BLOCK).tolist()


def _halves(next_output):
    # a generator takes a new output only when asked for its low half
    while True:
        raw = next_output()
        yield raw & _LOW
        yield raw >> 32


def _redraw(m: int, bound: int, bits: int, draw) -> int:
    """Lemire's rejection loop for a product m = draw() * bound whose
    low bits fell below the bound."""
    threshold = (1 << bits) % bound
    while m & ((1 << bits) - 1) < threshold:
        m = draw() * bound
    return m


def _bounds(n: int, k: int) -> tuple[int, ...]:
    """What choice(n, k) draws below with Floyd's method: Floyd's j over
    max(n-k, 1)..n-1 draws below j + 1 (so j = 0 draws nothing), then
    the shuffle's i over k-1..1 below i + 1."""
    return (*range(max(n - k, 1) + 1, n + 1), *range(k, 1, -1))


_small_bounds = lru_cache(maxsize=None)(_bounds)    # for n <= _SMALL


class Draws:
    """What `Generator(bit_generator)` would draw, for `random`,
    `integers(low, high)` and `choice(n, size=k, replace=False)`.

    `sample` and `skip` make every draw of choice's, so the stream
    advances exactly, but compute only the values their caller uses:
    `skip`, for draws whose values cannot matter, computes none."""

    __slots__ = ("_output", "_halves", "_word")

    def __init__(self, bit_generator):
        self._output = _outputs(bit_generator).__next__
        self._halves = _halves(self._output)
        self._word = self._halves.__next__

    def random(self) -> float:
        return (self._output() >> 11) * (1.0 / 9007199254740992.0)

    def _below(self, bound: int) -> int:
        """An integer in [0, bound), for a bound up to 2**64."""
        if bound == 1:
            return 0
        bits, draw = (32, self._word) if bound <= _WORD else (64, self._output)
        m = draw() * bound
        if m & ((1 << bits) - 1) < bound:
            m = _redraw(m, bound, bits, draw)
        return m >> bits

    def _draw(self, bounds) -> list[int]:
        """_below of each bound in turn, every bound from 2 to 2**32."""
        word = self._word
        out = []
        for b in bounds:
            m = word() * b
            if m & _LOW < b:
                m = _redraw(m, b, 32, word)
            out.append(m >> 32)
        return out

    def integers(self, low: int, high: int) -> int:
        return low + self._below(high - low)

    def pairs(self, n: int, count: int):
        """Rows of `integers(0, n, size=(count, 2))`, for 2 <= n <= 2**32."""
        drawn = iter(self._draw((n,) * (2 * count)))
        return zip(drawn, drawn)

    def choice(self, n: int, k: int) -> list[int]:
        """`choice(n, size=k, replace=False).tolist()`."""
        if n > 10000 and k > n // 50:   # the tail of a partial shuffle
            first = max(n - k, 1)
            out = list(range(n))
            for i, j in zip(range(n - 1, first - 1, -1),
                            self._draw(range(n, first, -1))):
                out[i], out[j] = out[j], out[i]
            return out[n - k:]
        if not k:
            return []
        start = max(n - k, 1)
        bounds = _small_bounds(n, k) if n <= _SMALL else _bounds(n, k)
        drawn = (self._draw(bounds) if n <= _WORD
                 else list(map(self._below, bounds)))
        out = [0] * (start - (n - k))
        taken = set(out)
        for j, v in zip(range(start, n), drawn):
            if v in taken:
                v = j
            taken.add(v)
            out.append(v)
        for i, j in zip(range(k - 1, 0, -1), drawn[n - start:]):
            out[i], out[j] = out[j], out[i]
        return out

    def _floyd(self, n: int, k: int) -> tuple[tuple[int, ...], list[int]]:
        """The draws of choice(n, k) for 0 < k <= n <= _SMALL: its bounds
        and the word each draw accepts, so that draw i is words[i] *
        bounds[i] >> 32."""
        if n > _SMALL:
            raise ValueError(
                f"a particle draw serves at most {_SMALL} pairs, not {n}: "
                f"pso.DRAWS_MAX_TASKS must stay at most {_SMALL + 1}")
        bounds = _small_bounds(n, k)
        words = list(islice(self._halves, len(bounds)))
        if _REJECTABLE.isdisjoint(words):
            return bounds, words
        word = chain(words, self._halves).__next__
        return bounds, [_redraw(word() * b, b, 32, word) // b for b in bounds]

    def sample(self, n: int, k: int) -> list[int] | None:
        """sorted(choice(n, k)) for 0 < k <= n <= _SMALL, or None for all
        of range(n) when k == n, whose draws are made but not used."""
        bounds, words = self._floyd(n, k)
        if k == n:
            return None
        # Floyd's picks, as in choice; sorting undoes the shuffle
        taken = set()
        for j, w, b in zip(range(n - k, n), words, bounds):
            v = w * b >> 32
            taken.add(j if v in taken else v)
        return sorted(taken)

    def skip(self, n: int, k: int) -> None:
        """Leaves the stream where sample(n, k) leaves it: the draws are
        made, but a value is computed only when a word may be rejected."""
        self._floyd(n, k)


def spawn(seed: int, count: int) -> list:
    """count independent child seeds of `SeedSequence(seed)`."""
    from numpy.random import SeedSequence
    return SeedSequence(seed).spawn(count)


def stream(seed) -> Draws:
    """A `Draws` on a new PCG64 seeded by an int or a `spawn` child."""
    from numpy.random import PCG64
    return Draws(PCG64(seed))


def generator(seed):
    """numpy's `Generator` on a new PCG64 seeded by seed."""
    from numpy.random import default_rng
    return default_rng(seed)
