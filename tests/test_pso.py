import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched import eat, pso
from uavsched._draws import _SMALL, Draws, stream
from uavsched.datagen import GenSpec, generate_instance
from uavsched.eat import build_schedule
from uavsched.model import SequenceError
from uavsched.pso import (
    PsoConfig,
    _GeneratorSampler,
    _initial_swarm,
    _mutate_preserving_precedence,
    _random_initial_velocity,
    _step_velocity,
    fitness,
    run_pso,
    update_velocity,
    velocity_cap,
)
from uavsched.sequences import apply_swaps, repair

from conftest import inspect, make_instance
from oracles import (
    PrecedenceGraph,
    frozen_initial_swarm,
    frozen_mutate_preserving_precedence,
    is_feasible_sequence,
    reference_difference,
)

WORKED_LOCAL = [1, 2, 4, 6, 5, 8, 3, 7, 10, 9, 11, 12]
WORKED_GLOBAL = [2, 6, 1, 4, 3, 5, 7, 8, 10, 9, 11, 12]
WORKED_PARTICLE = [1, 2, 4, 6, 5, 8, 7, 3, 10, 9, 12, 11]
WORKED_V0 = [(6, 7), (10, 11)]


class ScriptedRng:
    """Stand-in for a Generator: fixed uniforms, fixed subset choices."""

    def __init__(self, uniforms, selections=()):
        self._uniforms = iter(uniforms)
        self._selections = iter(selections)

    def random(self):
        return next(self._uniforms)

    def choice(self, n, size=None, replace=True):
        assert not replace and (size or 1) <= n
        got = np.asarray(next(self._selections))
        assert len(got) == (size or 1)
        return got if size is not None else int(got[0])


class TestConfig:
    def test_defaults(self):
        cfg = PsoConfig()
        assert (cfg.c1, cfg.c2, cfg.swarm_size, cfg.max_iterations,
                cfg.convergence_window) == (1.0, 2.0, 40, 40, 10)

    def test_swarm_floor(self):
        with pytest.raises(ValueError):
            PsoConfig(swarm_size=4)

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            PsoConfig(c1=-0.1)

    @pytest.mark.parametrize("factor", ["c1", "c2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 10**400])
    def test_non_finite_factor_rejected(self, factor, value):
        with pytest.raises(ValueError, match="must be finite"):
            PsoConfig(**{factor: value})

    @pytest.mark.parametrize("seed", [-1, 2.5, "7", True, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be a non-neg"):
            PsoConfig(rng_seed=seed)

    def test_integral_seed_read_as_int(self):
        cfg = PsoConfig(rng_seed=np.int64(7))
        assert cfg.rng_seed == 7 and type(cfg.rng_seed) is int
        assert PsoConfig(rng_seed=7.0).rng_seed == 7

    @pytest.mark.parametrize("field", ["swarm_size", "max_iterations",
                                       "convergence_window"])
    def test_integral_counts_read_as_int(self, field):
        for value in (40.0, np.int64(40)):
            got = getattr(PsoConfig(**{field: value}), field)
            assert got == 40 and type(got) is int

    @pytest.mark.parametrize("field,value", [
        ("swarm_size", 8.5), ("max_iterations", 2.5),
        ("convergence_window", 1.5), ("swarm_size", True),
        ("max_iterations", "3"), ("convergence_window", None)])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PsoConfig(**{field: value})

    @pytest.mark.parametrize("factor", ["c1", "c2"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "1"])
    def test_non_number_factor_rejected(self, factor, value):
        with pytest.raises(ValueError, match="must be real numbers"):
            PsoConfig(**{factor: value})

    @pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2)])
    def test_factors_read_as_float(self, value):
        # report.json serializes them; numpy scalars would not
        cfg = PsoConfig(c1=value, c2=value)
        assert (cfg.c1, cfg.c2) == (2.0, 2.0)
        assert type(cfg.c1) is float and type(cfg.c2) is float

    def test_frozen(self):
        cfg = PsoConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.swarm_size = 2
        assert cfg.swarm_size == 40
        with pytest.raises(ValueError, match="swarm_size must be at least 8"):
            dataclasses.replace(cfg, swarm_size=2)


class TestVelocityCap:
    def test_bands(self):
        assert velocity_cap(12) == 2
        assert velocity_cap(20) == 2
        assert velocity_cap(21) == 10
        assert velocity_cap(50) == 10
        assert velocity_cap(51) == 30
        assert velocity_cap(100) == 30
        assert velocity_cap(250) == 30


class TestFitness:
    def test_equals_schedule_makespan(self, lab):
        seq = [3, 2, 1, 4, 6, 5, 7]
        assert fitness(seq, lab) == build_schedule(lab, seq).makespan()


class TestUpdateVelocity:
    def test_worked_example(self):
        # Documented update: U1=0.2 keeps no cognitive pairs (0.2*2
        # rounds to 0), U2=0.4 keeps 5 of the 6 social pairs; the
        # sixth, (10,11), is the one left unselected.
        rng = ScriptedRng(uniforms=[0.2, 0.4], selections=[[0, 1, 2, 3, 4]])
        v1 = update_velocity(WORKED_V0, WORKED_PARTICLE, WORKED_LOCAL,
                             WORKED_GLOBAL, c1=1.0, c2=2.0, rng=rng)
        assert v1 == [(6, 7), (10, 11), (0, 1), (1, 3), (2, 3), (4, 7),
                      (5, 7)]
        assert apply_swaps(WORKED_PARTICLE, v1) == \
            [2, 6, 1, 4, 7, 5, 3, 8, 10, 9, 11, 12]

    def test_zero_proportions_keep_velocity(self):
        rng = ScriptedRng(uniforms=[0.0, 0.0])
        v1 = update_velocity(WORKED_V0, WORKED_PARTICLE, WORKED_LOCAL,
                             WORKED_GLOBAL, c1=1.0, c2=2.0, rng=rng)
        assert v1 == WORKED_V0

    def test_converged_bests_keep_velocity(self):
        rng = ScriptedRng(uniforms=[0.9, 0.9])
        seq = list(range(1, 13))
        v1 = update_velocity([(2, 5)], seq, seq, seq, c1=1.0, c2=2.0,
                             rng=rng)
        assert v1 == [(2, 5)]

    def test_duplicate_pairs_discarded(self):
        # Full social absorption: (10,11) is already carried over from
        # the old velocity, so only five new pairs land.
        rng = ScriptedRng(uniforms=[0.0, 0.5],
                          selections=[[0, 1, 2, 3, 4, 5]])
        v1 = update_velocity([(10, 11)], WORKED_PARTICLE, WORKED_LOCAL,
                             WORKED_GLOBAL, c1=1.0, c2=2.0, rng=rng)
        assert v1 == [(10, 11), (0, 1), (1, 3), (2, 3), (4, 7), (5, 7)]

    def test_proportion_clamped_to_whole_list(self):
        # c2*U2 = 3.0 clamps to 1.0: all six social pairs requested.
        rng = ScriptedRng(uniforms=[0.0, 1.0],
                          selections=[[0, 1, 2, 3, 4, 5]])
        v1 = update_velocity([], WORKED_PARTICLE, WORKED_LOCAL,
                             WORKED_GLOBAL, c1=1.0, c2=3.0, rng=rng)
        assert len(v1) == 6


def swap_left_to_right(sequence, pairs):
    """Plain reference: swap a copy pair by pair, rejecting bad indices."""
    out = list(sequence)
    n = len(out)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise SequenceError(f"swap pair ({i}, {j}) out of range")
        out[i], out[j] = out[j], out[i]
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except SequenceError:
        return SequenceError


class TestCarriedVelocity:
    """Velocities across updates: applying one equals swapping its pairs
    in order, and an update leaves the old velocity as it was."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_plain_swaps_across_updates(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        velocity = data.draw(st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4))
        for _ in range(data.draw(st.integers(1, 5), label="updates")):
            # particles of varying length bring pairs that can fall out
            # of range for a shorter sequence applied later
            m = data.draw(st.integers(1, 10), label="particle length")
            particle, local, best = (data.draw(st.permutations(range(m)))
                                     for _ in range(3))
            old = velocity
            velocity = update_velocity(velocity, particle, local, best,
                                       c1=1.0, c2=2.0, rng=rng)
            for _ in range(data.draw(st.integers(1, 2), label="applies")):
                n = data.draw(st.integers(0, 10), label="sequence length")
                seq = data.draw(st.permutations(range(100, 100 + n)))
                # the old velocity is untouched by the update
                for v in (velocity, old):
                    want = outcome(swap_left_to_right, seq, list(v))
                    assert outcome(apply_swaps, seq, v) == want

    def test_late_out_of_range_pair(self):
        seq = list(range(10, 16))
        v = update_velocity([(0, 1)], [0, 1, 2], [0, 2, 1], [0, 1, 2],
                            c1=1.0, c2=0.0, rng=ScriptedRng([1.0, 0.0], [[0]]))
        assert v == [(0, 1), (1, 2)]
        assert apply_swaps(seq[:3], v) == swap_left_to_right(seq[:3], v)
        # a later update from longer particles adds pair (2, 4)
        longer = [0, 1, 2, 3, 4]
        v2 = update_velocity(v, longer, [0, 1, 4, 3, 2], longer,
                             c1=1.0, c2=0.0, rng=ScriptedRng([1.0, 0.0], [[0]]))
        assert v2 == [(0, 1), (1, 2), (2, 4)]
        with pytest.raises(SequenceError, match=r"\(2, 4\) out of range"):
            apply_swaps(seq[:3], v2)
        with pytest.raises(SequenceError):
            apply_swaps(seq[:3], v2)
        # a failed apply leaves nothing stale: other lengths still work
        assert apply_swaps(seq, v2) == swap_left_to_right(seq, v2)
        assert apply_swaps(seq[:3], v) == swap_left_to_right(seq[:3], v)

    def test_plain_list_is_lifted(self):
        seq = [5, 6, 7, 8]
        pairs = [[0, 3], (1, 2)]
        assert apply_swaps(seq, pairs) == [8, 7, 6, 5]
        assert pairs == [[0, 3], (1, 2)]


class CountingSampler:
    """A `_step_velocity` rng that counts its `sample` and `skip` calls
    into calls."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls
        self.random = rng.random

    def sample(self, size, count):
        self._calls["sample"] += 1
        return self._rng.sample(size, count)

    def skip(self, size, count):
        self._calls["skip"] += 1
        self._rng.skip(size, count)


def reference_update(velocity, particle, local_best, global_best, c1, c2,
                     rng):
    """update_velocity as first written: a set of the old pairs, checked
    in both orientations, and a dict-based difference walk per best."""
    new = [tuple(p) for p in velocity]
    have = set(new)

    def absorb(diff, proportion):
        count = int(min(1.0, proportion) * len(diff) + 0.5)
        if count <= 0:
            return
        chosen = rng.choice(len(diff), size=count, replace=False).tolist()
        for idx in sorted(chosen):
            pair = diff[idx]
            i, j = pair
            if pair not in have and (j, i) not in have:
                have.add(pair)
                new.append(pair)

    u1 = rng.random()
    u2 = rng.random()
    absorb(reference_difference(local_best, particle), c1 * u1)
    absorb(reference_difference(global_best, particle), c2 * u2)
    return new


class TestCarriedPairMask:
    """The update's dedup mask drops exactly the pairs a set of the old
    pairs, checked in both orientations, would drop."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_set_dedup_across_updates(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # initial pairs in both orientations, some out of range for the
        # first particles, given as lists
        pairs = data.draw(st.lists(st.lists(st.integers(0, 9), min_size=2,
                                            max_size=2), max_size=8))
        velocity = pairs
        want = [tuple(p) for p in pairs]
        c1, c2 = data.draw(st.sampled_from([(1.0, 2.0), (3.0, 3.0)]))
        for _ in range(data.draw(st.integers(1, 5), label="updates")):
            # the particle length may change between updates
            m = data.draw(st.integers(1, 8), label="particle length")
            particle, local, best = (data.draw(st.permutations(range(m)))
                                     for _ in range(3))
            old, old_want = velocity, want
            velocity = update_velocity(velocity, particle, local, best,
                                       c1, c2, rng)
            want = reference_update(want, particle, local, best, c1, c2,
                                    ref_rng)
            assert list(velocity) == want
            # a second update of the old velocity sees none of the pairs
            # the first one appended
            branch = np.random.default_rng(seed + 1)
            assert update_velocity(old, particle, local, best, c1, c2,
                                   branch) == \
                reference_update(old_want, particle, local, best, c1, c2,
                                 np.random.default_rng(seed + 1))

    def test_reversed_initial_pair_blocks(self):
        # (11, 10) carried over blocks the social pair (10, 11)
        rng = ScriptedRng(uniforms=[0.0, 0.5],
                          selections=[[0, 1, 2, 3, 4, 5]])
        v1 = update_velocity([(11, 10)], WORKED_PARTICLE, WORKED_LOCAL,
                             WORKED_GLOBAL, c1=1.0, c2=2.0, rng=rng)
        assert v1 == [(11, 10), (0, 1), (1, 3), (2, 3), (4, 7), (5, 7)]

    def test_mask_rebuilt_on_length_change(self):
        # (0, 3) is out of range for 3-long particles, so the mask built
        # there leaves it out; rebuilt at length 4, it must block the
        # cognitive pair (0, 3)
        v = update_velocity([(0, 3)], [0, 1, 2], [0, 1, 2], [0, 1, 2],
                            c1=1.0, c2=2.0, rng=ScriptedRng([0.5, 0.5]))
        assert v == [(0, 3)]
        v2 = update_velocity(v, [3, 1, 2, 0], [0, 1, 2, 3], [0, 1, 2, 3],
                             c1=1.0, c2=0.0,
                             rng=ScriptedRng([1.0, 0.0], [[0]]))
        assert v2 == [(0, 3)]


class TestDenseVelocityStep:
    """The swarm's velocity step on dense task indices, and the public
    update on arbitrary ids, append what the reference appends and
    leave the generator where the reference leaves it."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference_with_rng_draws(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        m = data.draw(st.integers(1, 40), label="tasks")
        particle, local, best = (data.draw(st.permutations(range(m)))
                                 for _ in range(3))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1),
                                             st.integers(0, m - 1)),
                                   max_size=10))
        c1, c2 = data.draw(st.sampled_from([(1.0, 2.0), (0.5, 3.0)]))
        ref_rng = np.random.default_rng(seed)
        want = reference_update(pairs, particle, local, best, c1, c2,
                                ref_rng)
        dense_rng = np.random.default_rng(seed)
        mask = bytearray(m * m)
        for i, j in pairs:
            mask[i * m + j] = mask[j * m + i] = 1
        draws_mask = bytearray(mask)
        got = _step_velocity(mask, list(particle), list(local), list(best),
                             c1, c2, _GeneratorSampler(dense_rng))
        assert pairs + got == want
        # the swarm's stream computes the same draws from raw output, on
        # difference lists of up to _SMALL pairs
        if m <= _SMALL + 1:
            draws = Draws(np.random.PCG64(seed))
            assert _step_velocity(draws_mask, list(particle), list(local),
                                  list(best), c1, c2, draws) == got
            assert draws_mask == mask
            twin = np.random.default_rng(seed)
            twin.bit_generator.state = ref_rng.bit_generator.state
            assert ([draws.random() for _ in range(4)]
                    == twin.random(4).tolist())
        # the step marks exactly the pairs it returns
        for i, j in got:
            mask[i * m + j] = mask[j * m + i] = 0
        assert not any(mask[i * m + j] for i in range(m) for j in range(m)
                       if (i, j) not in pairs and (j, i) not in pairs)
        assert dense_rng.bit_generator.state == ref_rng.bit_generator.state
        # the same step on sparse, unordered ids through the public name
        ids = data.draw(st.lists(st.integers(-50, 10**6), min_size=m,
                                 max_size=m, unique=True))
        id_rng = np.random.default_rng(seed)
        relabel = [[ids[d] for d in seq] for seq in (particle, local, best)]
        assert list(update_velocity(pairs, *relabel, c1, c2, id_rng)) == want
        assert id_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("equal", ["local", "global", "both"])
    def test_best_equal_to_particle(self, equal):
        # a best equal to the particle differs from it by no pair, so its
        # walk draws nothing: the same pairs and generator state as the
        # reference
        m = 30
        perms = np.random.default_rng(4)
        particle, local, best = (perms.permutation(m).tolist()
                                 for _ in range(3))
        if equal in ("local", "both"):
            local = list(particle)
        if equal in ("global", "both"):
            best = list(particle)
        pairs = [(0, 1), (5, 2)]
        for seed in range(20):
            ref_rng = np.random.default_rng(seed)
            want = reference_update(pairs, particle, local, best, 1.0, 2.0,
                                    ref_rng)
            rng = np.random.default_rng(seed)
            mask = bytearray(m * m)
            for i, j in pairs:
                mask[i * m + j] = mask[j * m + i] = 1
            got = _step_velocity(mask, particle, local, best, 1.0, 2.0,
                                 _GeneratorSampler(rng))
            assert pairs + got == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if equal == "both":
                assert got == []

    # the stream serves difference lists of up to _SMALL pairs
    @pytest.mark.parametrize("sampler, m", [("draws", 12),
                                            ("draws", _SMALL + 1),
                                            ("generator", 12),
                                            ("generator", 40)])
    @pytest.mark.parametrize("covered", ["local", "global", "both", "all"])
    def test_list_already_in_the_mask_is_skipped(self, covered, sampler, m):
        # a difference list whose every pair the mask holds adds nothing,
        # so the step skips its draw: the reference's pairs, and the
        # stream left where the reference's choice leaves it
        perms = np.random.default_rng(11)
        calls = {"sample": 0, "skip": 0}
        for seed in range(25):
            particle, local, best = (perms.permutation(m).tolist()
                                     for _ in range(3))
            diffs = {"local": reference_difference(local, particle),
                     "global": reference_difference(best, particle)}
            if covered == "all":
                pairs = [(i, j) for i in range(m) for j in range(i)]
            elif covered == "both":
                pairs = diffs["local"] + diffs["global"]
            else:
                pairs = diffs[covered]
            ref_rng = np.random.default_rng(seed)
            want = reference_update(pairs, particle, local, best, 1.0, 2.0,
                                    ref_rng)
            mask = bytearray(m * m)
            for i, j in pairs:
                mask[i * m + j] = mask[j * m + i] = 1
            if sampler == "draws":
                stream = rng = Draws(np.random.PCG64(seed))
            else:
                stream = np.random.default_rng(seed)
                rng = _GeneratorSampler(stream)
            got = _step_velocity(mask, particle, local, best, 1.0, 2.0,
                                 CountingSampler(rng, calls))
            assert pairs + got == want
            if covered in ("both", "all"):
                assert got == []
            twin = np.random.default_rng(seed)
            twin.bit_generator.state = ref_rng.bit_generator.state
            for _ in range(4):
                assert (int(stream.integers(0, 1000))
                        == int(twin.integers(0, 1000)))
                assert stream.random() == twin.random()
        assert calls["skip"] >= 20
        if covered in ("both", "all"):
            assert calls["sample"] == 0

    def test_best_that_is_not_a_permutation_raises(self):
        with pytest.raises(SequenceError, match="not permutations"):
            update_velocity([], [1, 2, 3], [1, 2, 4], [1, 2, 3], 1.0, 2.0,
                            np.random.default_rng(0))
        with pytest.raises(SequenceError, match="not permutations"):
            update_velocity([], [1, 2, 3], [1, 2, 3], [1, 1, 2], 1.0, 2.0,
                            np.random.default_rng(0))

    @pytest.mark.parametrize("particle, local, best", [
        ([1, 2, 2], [1, 2, 2], [2, 1, 2]),
        ([1, 2, 3], [1, 2, 2], [1, 2, 3]),
        ([1, 2, 3], [1, 2, 3], [3, 3, 1]),
    ])
    def test_repeated_item_raises(self, particle, local, best):
        # the check comes before any draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(SequenceError, match="not permutations"):
            update_velocity([], particle, local, best, 1.0, 2.0, rng)
        assert rng.bit_generator.state == state


def reference_initial_velocity(n, cap, rng):
    """The initial velocity as first written: one two-index draw per
    pair, redrawn while the pair is a repeat or an index twice."""
    perm = list(range(n))
    mask = bytearray(n * n)
    if n < 2 or cap < 1:
        return perm, mask
    count = int(rng.integers(1, cap + 1))
    count = min(count, n * (n - 1) // 2)
    while count:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j or mask[i * n + j]:
            continue
        mask[i * n + j] = mask[j * n + i] = 1
        perm[i], perm[j] = perm[j], perm[i]
        count -= 1
    return perm, mask


def assert_stream_at(draws, rng):
    """The `Draws` stands where the numpy Generator on its seed stands,
    buffered half-word included: their next draws agree."""
    for _ in range(4):
        assert draws.integers(0, 1000) == int(rng.integers(0, 1000))
        assert draws.random() == rng.random()


class TestInitialVelocity:
    """Top-up rounds of draws from a `Draws` give the pairs of the
    per-pair loop on a numpy Generator, and leave the stream where that
    loop leaves its Generator, including a cap above the n(n-1)/2
    distinct pairs and a bit generator holding a buffered half-word."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 40), cap=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1), odd=st.booleans())
    def test_matches_per_pair_draws(self, n, cap, seed, odd):
        rng = Draws(np.random.PCG64(seed))
        ref_rng = np.random.default_rng(seed)
        if odd:
            rng.integers(0, 5)
            ref_rng.integers(0, 5)
        perm, mask = _random_initial_velocity(n, cap, rng)
        want_perm, want_mask = reference_initial_velocity(n, cap, ref_rng)
        assert perm == want_perm
        assert mask == want_mask
        assert_stream_at(rng, ref_rng)


def reference_mutate(sequence, instance, rng):
    """The mutation as first written: a full feasibility check per swap."""
    seq = list(sequence)
    n = len(seq)
    if n < 2:
        return seq
    for _ in range(max(1, n // 2)):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j:
            continue
        seq[i], seq[j] = seq[j], seq[i]
        if not is_feasible_sequence(seq, instance):
            seq[i], seq[j] = seq[j], seq[i]
    return seq


class TestMutationWindowCheck:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(0, 40), seed=st.integers(0, 10**6),
           max_preds=st.integers(0, 4))
    def test_matches_full_feasibility_check(self, n, seed, max_preds):
        inst = generate_instance(GenSpec(n_tasks=n, seed=seed,
                                         max_predecessors=max_preds))
        ids = [t.id for t in inst.tasks]
        order = np.random.default_rng(seed).permutation(len(ids))
        base = repair([ids[k] for k in order], inst)
        graph = PrecedenceGraph({t.id: t.predecessors for t in inst.tasks})
        preds, succs = graph.direct_predecessors, graph.direct_successors
        rng, ref_rng = Draws(np.random.PCG64(seed)), np.random.default_rng(seed)
        got = _mutate_preserving_precedence(base, preds, succs, rng)
        want = reference_mutate(base, inst, ref_rng)
        assert got == want
        assert is_feasible_sequence(got, inst)
        # one bulk draw consumes what the per-attempt draws consume
        assert_stream_at(rng, ref_rng)
        # and the frozen copy on a Generator, which the reference search
        # builds its swarm with, draws the same
        assert frozen_mutate_preserving_precedence(
            base, preds, succs, np.random.default_rng(seed)) == want


def initial_swarm_ids(instance, swarm_size, rng, build=_initial_swarm):
    """`_initial_swarm`'s particles (or build's) as lists of task ids."""
    ids = list(instance.compiled().task_index)
    return [[ids[d] for d in p] for p in build(instance, swarm_size, rng)]


class TestInitialSwarm:
    def test_rule_particles_lead(self, lab):
        from uavsched.sequences import priority_orderings
        rng = Draws(np.random.PCG64(0))
        swarm = initial_swarm_ids(lab, 40, rng)
        assert len(swarm) == 40
        rules = [list(s) for s in priority_orderings(lab).values()]
        assert swarm[:8] == rules

    def test_all_members_feasible(self, lab):
        rng = Draws(np.random.PCG64(3))
        for p in initial_swarm_ids(lab, 24, rng):
            assert is_feasible_sequence(p, lab)

    def test_deterministic_given_seed(self, lab):
        a = initial_swarm_ids(lab, 16, Draws(np.random.PCG64(5)))
        b = initial_swarm_ids(lab, 16, Draws(np.random.PCG64(5)))
        assert a == b

    @pytest.mark.parametrize("n, size, seed", [(None, 16, 5), (None, 40, 0),
                                               (10, 40, 1), (30, 13, 2),
                                               (100, 40, 3)])
    def test_matches_the_generator_copy(self, lab, n, size, seed):
        # the set-up draws from a `Draws` at every size, on either side
        # of pso.DRAWS_MAX_TASKS, what the frozen copy draws from numpy
        inst = lab if n is None else generate_instance(GenSpec(n_tasks=n,
                                                               seed=seed))
        rng, ref_rng = Draws(np.random.PCG64(seed)), np.random.default_rng(seed)
        assert (_initial_swarm(inst, size, rng)
                == frozen_initial_swarm(inst, size, ref_rng))
        assert_stream_at(rng, ref_rng)


class TestRunPso:
    def test_report_shape(self, lab):
        cfg = PsoConfig(max_iterations=8, rng_seed=1)
        rep = run_pso(lab, cfg)
        assert rep.best_makespan == rep.best_schedule.makespan()
        assert sorted(rep.best_sequence) == list(range(1, 13))
        assert rep.history[0][0] == 0
        assert len(rep.history) == rep.iterations_run + 1
        assert rep.wall_clock_ms > 0

    def test_same_seed_same_result(self, lab):
        cfg = PsoConfig(max_iterations=12, rng_seed=42)
        a = run_pso(lab, cfg)
        b = run_pso(lab, cfg)
        assert a.best_sequence == b.best_sequence
        assert a.best_makespan == b.best_makespan
        assert a.history == b.history

    def test_different_seed_may_differ_but_stays_feasible(self, lab):
        a = run_pso(lab, PsoConfig(max_iterations=6, rng_seed=1))
        b = run_pso(lab, PsoConfig(max_iterations=6, rng_seed=2))
        assert is_feasible_sequence(a.best_sequence, lab)
        assert is_feasible_sequence(b.best_sequence, lab)

    def test_best_history_non_increasing(self, lab):
        rep = run_pso(lab, PsoConfig(max_iterations=20, rng_seed=7))
        bests = [b for _, b, _ in rep.history]
        assert all(x >= y for x, y in zip(bests, bests[1:]))

    def test_stagnation_stop(self, lab):
        cfg = PsoConfig(max_iterations=40, convergence_window=5, rng_seed=3)
        rep = run_pso(lab, cfg)
        if rep.converged:
            assert rep.iterations_run >= rep.last_improvement + 5
        else:
            assert rep.iterations_run == 40

    def test_single_task_instance(self):
        inst = make_instance([inspect(1, "a", 60)])
        rep = run_pso(inst, PsoConfig(max_iterations=3, rng_seed=0))
        assert rep.best_sequence == [1]
        # flight 20s + execution 60s
        assert rep.best_makespan == 80


def reference_initial_pairs(n, cap, rng):
    """The initial velocity as its list of pairs, drawn one two-index
    draw per pair as `reference_initial_velocity` draws them."""
    pairs = []
    if n < 2 or cap < 1:
        return pairs
    count = min(int(rng.integers(1, cap + 1)), n * (n - 1) // 2)
    while len(pairs) < count:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j and (i, j) not in pairs and (j, i) not in pairs:
            pairs.append((i, j))
    return pairs


def reference_run_pso(instance, config):
    """run_pso as a plain loop without a memo: particles are lists of
    task ids, velocities lists of pairs, and every step applies the
    whole velocity, repairs the result and scores it afresh. Also
    returns the initial swarm and each step's (moved, repaired) pair."""
    streams = np.random.SeedSequence(config.rng_seed).spawn(
        config.swarm_size + 1)
    rng_init = np.random.default_rng(streams[0])
    rngs = [np.random.default_rng(s) for s in streams[1:]]
    n = len(instance.tasks)
    particles = initial_swarm_ids(instance, config.swarm_size, rng_init,
                                  frozen_initial_swarm)
    initial = [list(p) for p in particles]
    velocities = [reference_initial_pairs(n, velocity_cap(n), rng_init)
                  for _ in particles]
    fits = [fitness(p, instance) for p in particles]
    local_best, local_fit = [list(p) for p in particles], list(fits)
    g = min(range(len(fits)), key=lambda i: fits[i])
    global_best, global_fit = list(particles[g]), fits[g]
    history = [(0, global_fit, float(np.mean(fits)))]
    moves = []
    stagnation, converged = 0, False
    for it in range(1, config.max_iterations + 1):
        improved = False
        for i, rng in enumerate(rngs):
            velocities[i] = reference_update(
                velocities[i], particles[i], local_best[i], global_best,
                config.c1, config.c2, rng)
            moved = apply_swaps(particles[i], velocities[i])
            particles[i] = repair(moved, instance)
            moves.append((moved, particles[i]))
            fits[i] = f = fitness(particles[i], instance)
            if f < local_fit[i]:
                local_fit[i], local_best[i] = f, list(particles[i])
            if f < global_fit:
                global_fit, global_best = f, list(particles[i])
                improved = True
        history.append((it, global_fit, float(np.mean(fits))))
        stagnation = 0 if improved else stagnation + 1
        if stagnation >= config.convergence_window:
            converged = True
            break
    result = dict(best_sequence=global_best, best_makespan=global_fit,
                  history=history, iterations_run=it, converged=converged)
    return result, initial, moves


class TestRunPsoDifferential:
    """run_pso, with its one dict of moves and scores, against the
    memo-free loop: same best, history and stop, and each distinct move
    decoded once and each distinct sequence built once."""

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(4, 12), inst_seed=st.integers(0, 10**6),
           rng_seed=st.integers(0, 2**32 - 1),
           swarm=st.sampled_from([8, 13, 40]),
           window=st.sampled_from([3, 10, 40]),
           factors=st.sampled_from([(1.0, 2.0), (0.5, 3.0), (2.5, 0.0)]))
    def test_matches_memo_free_loop(self, n, inst_seed, rng_seed, swarm,
                                    window, factors):
        inst = generate_instance(GenSpec(n_tasks=n, seed=inst_seed))
        cfg = PsoConfig(c1=factors[0], c2=factors[1], swarm_size=swarm,
                        max_iterations=40, convergence_window=window,
                        rng_seed=rng_seed)
        want, _, _ = reference_run_pso(inst, cfg)
        rep = run_pso(inst, cfg)
        got = dict(best_sequence=rep.best_sequence,
                   best_makespan=rep.best_makespan, history=rep.history,
                   iterations_run=rep.iterations_run,
                   converged=rep.converged)
        assert got == want
        assert rep.best_schedule.makespan() == rep.best_makespan

    @pytest.mark.parametrize("n", [pso.DRAWS_MAX_TASKS,
                                   pso.DRAWS_MAX_TASKS + 1])
    def test_either_side_of_the_draw_stream_size(self, monkeypatch, n):
        # up to DRAWS_MAX_TASKS tasks the particles draw from `Draws`,
        # above it from Generators, and the swarm's set-up from a `Draws`
        # on both sides; the reference always from Generators
        made = []
        monkeypatch.setattr(pso, "stream",
                            lambda seed: made.append(seed) or stream(seed))
        inst = generate_instance(GenSpec(n_tasks=n, seed=n))
        cfg = PsoConfig(max_iterations=12, convergence_window=12,
                        rng_seed=n)
        want, _, _ = reference_run_pso(inst, cfg)
        rep = run_pso(inst, cfg)
        got = dict(best_sequence=rep.best_sequence,
                   best_makespan=rep.best_makespan, history=rep.history,
                   iterations_run=rep.iterations_run,
                   converged=rep.converged)
        assert got == want
        assert len(made) == 1 + (cfg.swarm_size
                                 if n <= pso.DRAWS_MAX_TASKS else 0)

    @pytest.mark.parametrize("n, inst_seed, rng_seed",
                             [(6, 3, 0), (12, 7, 11)])
    def test_each_move_decoded_and_each_sequence_built_once(
            self, monkeypatch, n, inst_seed, rng_seed):
        inst = generate_instance(GenSpec(n_tasks=n, seed=inst_seed))
        cfg = PsoConfig(max_iterations=40, convergence_window=40,
                        rng_seed=rng_seed)
        _, initial, moves = reference_run_pso(inst, cfg)
        index = inst.compiled().task_index

        def dense(seq):
            return tuple(index[t] for t in seq)

        # a move is decoded unless it was met before, as a move or as a
        # sequence (a feasible move decodes to itself)
        met = {dense(p) for p in initial}
        want_decodes = []
        for moved, repaired in moves:
            if dense(moved) not in met:
                want_decodes.append(dense(moved))
                met.add(dense(moved))
            met.add(dense(repaired))
        want_builds = list(dict.fromkeys(
            [dense(p) for p in initial] + [dense(r) for _, r in moves]))

        decodes, builds = [], []
        decode, construct = pso._decode, eat._construct

        def counting_decode(seq, preds, succs):
            decodes.append(tuple(seq))
            return decode(seq, preds, succs)

        def counting_construct(instance, seq, placed=None):
            builds.append((tuple(seq), placed is not None))
            return construct(instance, seq, placed)

        monkeypatch.setattr(pso, "_decode", counting_decode)
        monkeypatch.setattr(pso, "_construct", counting_construct)
        monkeypatch.setattr(eat, "_construct", counting_construct)
        rep = run_pso(inst, cfg)
        assert decodes == want_decodes
        assert builds[:-1] == [(seq, False) for seq in want_builds]
        assert builds[-1] == (dense(rep.best_sequence), True)
        # repeats happen, so the counts are below one per step
        assert len(decodes) < len(moves)
        assert len(builds) - 1 < len(initial) + len(moves)
