"""The draw stream against numpy: every value a twin Generator gives.

`Draws` computes numpy's PCG64 `Generator` draws in Python from raw
output, so each scripted call here is made on both sides and must
return the same value; after each script the next 16 draws of both
sides must agree too, which checks that the stream stands exactly where
the Generator stands, buffered half-word included. The edge cases reach
every branch: Lemire's rejection loop (a range of 2**31 + 1 rejects
about half its words), numpy's direct-word and 64-bit paths, the tail
shuffle that `choice` takes when n > 10000 and k > n // 50, and the
bulk path of `sample` and `skip`, which serve n up to `_SMALL`, both
when its slice of words holds none that a bound can reject and, at a
pinned stream position, when it holds one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched import pso
from uavsched._draws import _REJECTABLE, _SMALL, Draws

EDGE_RANGES = [1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40,
               2**63 - 1, 2**64 - 1, 2**64]
TAIL_SHUFFLES = [(20000, 500), (10001, 201), (10001, 10001)]


def twin_call(rng, op, args):
    """What the Generator gives for one scripted call."""
    if op == "random":
        return rng.random()
    if op == "integers":
        low, high = args
        return int(rng.integers(low, high))
    n, k = args
    if op == "pairs":
        return rng.integers(0, n, size=(k, 2)).tolist()
    if op == "choice":
        return rng.choice(n, size=k, replace=False).tolist()
    picks = (rng.choice(n, size=k, replace=False).tolist() if k > 1
             else [int(rng.choice(n, replace=False))])
    if op == "skip":
        return None
    return sorted(picks) if k < n else None          # "sample"


def stream_call(draws, op, args):
    if op == "pairs":
        return [list(pair) for pair in draws.pairs(*args)]
    return getattr(draws, op)(*args)


def check_script(seed, script):
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = Draws(np.random.PCG64(seed))
    for op, args in script:
        assert stream_call(draws, op, args) == twin_call(rng, op, args), \
            (op, args)
    for _ in range(16):
        assert draws.integers(0, 1000) == int(rng.integers(0, 1000))
        assert draws.random() == rng.random()


def integer_range(width):
    """A (low, high) of the given width inside numpy's int64 range."""
    return st.integers(-2**63, 2**63 - width).map(lambda low:
                                                  (low, low + width))


calls = st.one_of(
    st.just(("random", ())),
    st.tuples(st.just("integers"),
              st.sampled_from(EDGE_RANGES).flatmap(integer_range)
              | st.integers(1, 100).flatmap(integer_range)),
    st.tuples(st.just("choice"), st.integers(1, 60).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n)))),
    st.tuples(st.sampled_from(["sample", "skip"]),
              st.integers(1, _SMALL).flatmap(
                  lambda n: st.tuples(st.just(n), st.integers(1, n)))),
    st.tuples(st.just("choice"), st.just((0, 0))),
    st.tuples(st.just("pairs"), st.tuples(
        st.integers(2, 100) | st.sampled_from([2**31 + 1, 2**32 - 1, 2**32]),
        st.integers(0, 12))),
)
seeds = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.integers(0, 2**32), st.integers(0, 40)).map(
        lambda s: np.random.SeedSequence(s[0]).spawn(s[1] + 1)[s[1]]),
)


class TestMatchesGenerator:
    @settings(max_examples=300, deadline=None)
    @given(seed=seeds, script=st.lists(calls, max_size=25))
    def test_interleaved_calls(self, seed, script):
        check_script(seed, script)

    @pytest.mark.parametrize("width", EDGE_RANGES)
    @pytest.mark.parametrize("seed", range(4))
    def test_edge_ranges(self, seed, width):
        low = -2**63 if width > 2**63 else 0
        check_script(seed, [("random", ())]
                     + [("integers", (low, low + width))] * 40
                     + [("choice", (7, 3))])

    def test_rejection_loop_runs(self):
        # a range of 2**31 + 1 rejects a word whose product's low half
        # falls below 2**32 mod the range, about half of them
        draws = Draws(np.random.PCG64(0))
        words = draws._word
        seen = []
        draws._word = lambda: seen.append(1) or words()
        for _ in range(200):
            draws.integers(0, 2**31 + 1)
        assert len(seen) > 300

    @pytest.mark.parametrize("n, k", TAIL_SHUFFLES)
    def test_tail_shuffle(self, n, k):
        for seed in range(3):
            check_script(seed, [("integers", (0, 3)), ("choice", (n, k)),
                                ("choice", (n, 3))])

    def test_just_outside_the_tail_shuffle(self):
        # k == n // 50 keeps Floyd's method at n > 10000, and so does
        # n == 10000 at any k
        check_script(5, [("choice", (10050, 201)), ("choice", (10000, 300))])

    def test_population_beyond_a_word(self):
        # Floyd's draws below j + 1 take whole outputs once j >= 2**32
        check_script(9, [("integers", (0, 5)), ("choice", (2**33, 4)),
                         ("choice", (2**32 + 3, 2))])

    @given(seed=seeds, n=st.integers(1, 30), k=st.integers(1, 30))
    def test_sample_is_sorted_choice(self, seed, n, k):
        k = min(k, n)
        picks = Draws(np.random.PCG64(seed)).choice(n, k)
        got = Draws(np.random.PCG64(seed)).sample(n, k)
        assert got == (sorted(picks) if k < n else None)


class TestBulkRuns:
    """`sample` and `skip` take a run of bounds up to _SMALL in one slice
    of words and fall back to the exact loop only when the slice holds a
    word that such a bound can reject."""

    def test_every_particle_draw_is_small(self):
        # a difference list at DRAWS_MAX_TASKS tasks holds at most
        # DRAWS_MAX_TASKS - 1 pairs
        assert pso.DRAWS_MAX_TASKS - 1 <= _SMALL

    @pytest.mark.parametrize("op", ["sample", "skip"])
    def test_past_small_raises(self, op):
        draws = Draws(np.random.PCG64(0))
        twin = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError, match="pso.DRAWS_MAX_TASKS"):
            getattr(draws, op)(_SMALL + 1, 2)
        # nothing was drawn
        assert draws.random() == twin.random()

    @given(seed=seeds, n=st.integers(1, _SMALL), k=st.integers(1, _SMALL))
    def test_skip_stops_where_sample_stops(self, seed, n, k):
        k = min(k, n)
        skipped = Draws(np.random.PCG64(seed))
        sampled = Draws(np.random.PCG64(seed))
        assert skipped.skip(n, k) is None
        sampled.sample(n, k)
        for _ in range(8):
            assert skipped.integers(0, 1000) == sampled.integers(0, 1000)
            assert skipped.random() == sampled.random()

    # The high half of PCG64(0)'s output 15,125,250 is the stream's word
    # 30,250,501, and a bound of 19 rejects it: a draw below 19 that
    # meets it takes the next word.
    REJECTED_AT = 15_125_250
    REJECTED = 2_712_610_924

    def test_the_pinned_word_is_rejected(self):
        bits = np.random.PCG64(0)
        bits.advance(self.REJECTED_AT)
        assert int(bits.random_raw()) >> 32 == self.REJECTED
        assert self.REJECTED in _REJECTABLE
        assert self.REJECTED * 19 % 2**32 < 2**32 % 19

    @pytest.mark.parametrize("op", ["sample", "skip"])
    @pytest.mark.parametrize("n, k", [(19, 2), (20, 3), (30, 13), (32, 15),
                                      (19, 19)])
    def test_rejection_inside_a_run(self, op, n, k):
        # the run's second draw is below 19, except for (19, 19), whose
        # bounds run 2..19, so the pinned word meets a bound of 3 that
        # accepts it; (32, 15) is the largest population served
        bits = np.random.PCG64(0)
        bits.advance(self.REJECTED_AT)
        draws = Draws(bits)
        twin = np.random.Generator(np.random.PCG64(0))
        twin.bit_generator.advance(self.REJECTED_AT)
        assert getattr(draws, op)(n, k) == twin_call(twin, op, (n, k))
        for _ in range(16):
            assert draws.integers(0, 1000) == int(twin.integers(0, 1000))
            assert draws.random() == twin.random()
