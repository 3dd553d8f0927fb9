import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched.datagen import GenSpec, generate_instance
from uavsched.eat import build_schedule
from uavsched.model import SequenceError
from uavsched.pso import (
    PsoConfig,
    _mutate_preserving_precedence,
    _random_initial_velocity,
    _step_velocity,
    fitness,
    generate_initial_swarm,
    run_pso,
    update_velocity,
    velocity_cap,
)
from uavsched.sequences import (
    apply_swaps,
    is_feasible_sequence,
    repair,
)

from conftest import inspect, make_instance

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

    def choice(self, n, size, replace):
        assert not replace and size <= n
        got = np.asarray(next(self._selections))
        assert len(got) == size
        return got


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
                                       float("-inf")])
    def test_non_finite_factor_rejected(self, factor, value):
        with pytest.raises(ValueError, match="must be finite"):
            PsoConfig(**{factor: value})


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


def reference_difference(target, current):
    """sequence_difference as first written: a sorted-multiset check,
    then a walk with an id -> position dict."""
    if sorted(current) != sorted(target):
        raise SequenceError("sequences are not permutations of each other")
    work = list(current)
    pos = {t: i for i, t in enumerate(work)}
    pairs = []
    for i, want in enumerate(target):
        have = work[i]
        if have == want:
            continue
        j = pos[want]
        pairs.append((i, j))
        work[i], work[j] = want, have
        pos[want], pos[have] = i, j
    return pairs


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
        got = _step_velocity(mask, list(particle), list(local), list(best),
                             c1, c2, dense_rng)
        assert pairs + got == want
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
            got = _step_velocity(mask, particle, local, best, 1.0, 2.0, rng)
            assert pairs + got == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if equal == "both":
                assert got == []

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


class TestInitialVelocity:
    """Top-up rounds of bulk draws give the per-pair loop's pairs and
    leave its generator state, including a cap above the n(n-1)/2
    distinct pairs and a bit generator holding a buffered half-word."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 40), cap=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1), odd=st.booleans())
    def test_matches_per_pair_draws(self, n, cap, seed, odd):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if odd:
            rng.integers(0, 5)
            ref_rng.integers(0, 5)
        perm, mask = _random_initial_velocity(n, cap, rng)
        want_perm, want_mask = reference_initial_velocity(n, cap, ref_rng)
        assert perm == want_perm
        assert mask == want_mask
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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
        graph = inst.graph()
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _mutate_preserving_precedence(
            base, graph.direct_predecessors, graph.direct_successors, rng)
        want = reference_mutate(base, inst, ref_rng)
        assert got == want
        assert is_feasible_sequence(got, inst)
        # one bulk draw consumes what the per-attempt draws consume
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestInitialSwarm:
    def test_rule_particles_lead(self, lab):
        from uavsched.sequences import priority_orderings
        rng = np.random.default_rng(0)
        swarm = generate_initial_swarm(lab, 40, rng)
        assert len(swarm) == 40
        rules = [list(s) for s in priority_orderings(lab).values()]
        assert swarm[:8] == rules

    def test_all_members_feasible(self, lab):
        rng = np.random.default_rng(3)
        for p in generate_initial_swarm(lab, 24, rng):
            assert is_feasible_sequence(p, lab)

    def test_deterministic_given_seed(self, lab):
        a = generate_initial_swarm(lab, 16, np.random.default_rng(5))
        b = generate_initial_swarm(lab, 16, np.random.default_rng(5))
        assert a == b


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
            assert rep.convergence_iteration == rep.iterations_run
        else:
            assert rep.iterations_run == 40

    def test_single_task_instance(self):
        inst = make_instance([inspect(1, "a", 60)])
        rep = run_pso(inst, PsoConfig(max_iterations=3, rng_seed=0))
        assert rep.best_sequence == [1]
        # flight 20s + execution 60s
        assert rep.best_makespan == 80
