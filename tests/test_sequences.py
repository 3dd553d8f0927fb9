import heapq
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched.datagen import GenSpec, generate_instance
from uavsched.model import SequenceError
from uavsched.sequences import (
    PRIORITY_RULES,
    _decode,
    _greedy_order,
    apply_swaps,
    extend_sequence,
    is_feasible_sequence,
    priority_orderings,
    repair,
    sequence_difference,
)

from conftest import TABLE_ROWS, inspect, make_instance

permutations = st.permutations(list(range(1, 13)))


class TestApplySwaps:
    def test_empty_velocity_is_identity(self):
        assert apply_swaps([1, 2, 3], []) == [1, 2, 3]

    def test_left_to_right(self):
        assert apply_swaps([1, 2, 3], [(0, 1), (1, 2)]) == [2, 3, 1]

    def test_pair_applied_twice_is_identity(self):
        seq = [5, 6, 7, 8]
        assert apply_swaps(seq, [(1, 3), (1, 3)]) == seq

    def test_out_of_range_rejected(self):
        with pytest.raises(SequenceError):
            apply_swaps([1, 2, 3], [(0, 3)])

    def test_worked_position_update(self):
        particle = [1, 2, 4, 6, 5, 8, 7, 3, 10, 9, 12, 11]
        velocity = [(6, 7), (10, 11), (0, 1), (1, 3), (2, 3), (4, 7), (5, 7)]
        assert apply_swaps(particle, velocity) == \
            [2, 6, 1, 4, 7, 5, 3, 8, 10, 9, 11, 12]


class TestSequenceDifference:
    def test_identical_sequences(self):
        assert sequence_difference([1, 2, 3], [1, 2, 3]) == []

    def test_single_adjacent_swap(self):
        assert len(sequence_difference([1, 3, 2], [1, 2, 3])) == 1

    def test_multiset_mismatch(self):
        with pytest.raises(SequenceError):
            sequence_difference([1, 2], [1, 3])

    def test_worked_decomposition(self):
        # Global best minus the particle from the documented update
        # example: the greedy scan lands on the same six pairs.
        gbest = [2, 6, 1, 4, 3, 5, 7, 8, 10, 9, 11, 12]
        part = [1, 2, 4, 6, 5, 8, 7, 3, 10, 9, 12, 11]
        pairs = sequence_difference(gbest, part)
        assert pairs == [(0, 1), (1, 3), (2, 3), (4, 7), (5, 7), (10, 11)]
        assert apply_swaps(part, pairs) == gbest

    @settings(max_examples=80)
    @given(permutations, permutations)
    def test_roundtrip(self, target, current):
        pairs = sequence_difference(target, current)
        assert apply_swaps(current, pairs) == list(target)
        assert len(pairs) <= len(target) - 1


def reference_sequence_difference(target, current):
    """The difference as first written: a sorted-multiset check up front."""
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


@st.composite
def difference_inputs(draw):
    """Permutations of one id set, then maybe a length mismatch, an
    unknown id or a repeated id in either argument."""
    ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=12))
    target = draw(st.permutations(ids))
    current = draw(st.permutations(ids))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(
            ["drop", "append", "unknown", "repeat"]))
        which = draw(st.sampled_from(["target", "current"]))
        seq = list(target if which == "target" else current)
        if edit == "drop" and seq:
            del seq[draw(st.integers(0, len(seq) - 1))]
        elif edit == "append":
            seq.append(draw(st.integers(0, 30)))
        elif edit == "unknown" and seq:
            seq[draw(st.integers(0, len(seq) - 1))] = 99
        elif edit == "repeat" and len(seq) > 1:
            i, j = draw(st.lists(st.integers(0, len(seq) - 1), min_size=2,
                                 max_size=2, unique=True))
            seq[i] = seq[j]
        if which == "target":
            target = seq
        else:
            current = seq
    return target, current


class TestSequenceDifferenceMatchesReference:
    """The walk's permutation check against the sorted comparison."""

    @settings(max_examples=400, deadline=None)
    @given(difference_inputs())
    def test_same_pairs_or_same_error(self, args):
        assert outcome(sequence_difference, *args) == \
            outcome(reference_sequence_difference, *args)

    @pytest.mark.parametrize("target, current", [
        ([1, 2, 3], [1, 2]), ([1, 2], [1, 2, 3]), ([1, 2, 9], [1, 2, 3]),
        ([1, 1, 2], [1, 2, 3]), ([1, 2, 3], [1, 1, 2]),
        ([2, 1, 1], [1, 2, 1]), ([3, 1, 2], [3, 1, 1]),
        # the sorted check passes, then the walk meets a stale position
        ([1, 1, 2, 3], [2, 3, 1, 1]),
    ])
    def test_scripted(self, target, current):
        assert outcome(sequence_difference, target, current) == \
            outcome(reference_sequence_difference, target, current)


class TestRepair:
    def test_feasible_passthrough(self, lab):
        seq = [t.id for t in lab.tasks]
        assert repair(seq, lab) == seq

    def test_single_violation_deferred(self, lab):
        # 4 requires 1; everything else stays in relative order.
        seq = [4, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12]
        got = repair(seq, lab)
        assert got.index(1) < got.index(4)
        assert is_feasible_sequence(got, lab)

    def test_duplicate_rejected(self, lab):
        with pytest.raises(SequenceError):
            repair([1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], lab)

    def test_idempotent_and_stable(self, lab):
        seq = [12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        once = repair(seq, lab)
        assert repair(once, lab) == once

    @settings(max_examples=100)
    @given(permutations)
    def test_always_feasible(self, seq):
        from uavsched.sampledata import sample_instance
        inst = sample_instance()
        got = repair(list(seq), inst)
        assert sorted(got) == sorted(seq)
        assert is_feasible_sequence(got, inst)


class TestExtendSequence:
    def test_prefix_kept_rest_in_id_order(self, lab):
        got = extend_sequence([3, 2, 1], lab)
        assert got[:3] == [3, 2, 1]
        assert sorted(got) == list(range(1, 13))
        assert is_feasible_sequence(got, lab)

    def test_full_permutation_unchanged(self, lab):
        seq = [t.id for t in lab.tasks]
        assert extend_sequence(seq, lab) == seq

    def test_infeasible_prefix_rejected(self, lab):
        with pytest.raises(SequenceError):
            extend_sequence([7], lab)


def reference_greedy_order(items, predecessors, done):
    """The decode as first written: every ready task goes on one heap."""
    rank = {tid: i for i, tid in enumerate(items)}
    pending = {tid: [p for p in predecessors[tid]
                     if p not in done and p in rank]
               for tid in items}
    waiting_on = {}
    ready = []
    for tid in items:
        if pending[tid]:
            for p in pending[tid]:
                waiting_on.setdefault(p, []).append(tid)
        else:
            heapq.heappush(ready, (rank[tid], tid))
    out = []
    while ready:
        _, tid = heapq.heappop(ready)
        out.append(tid)
        for follower in waiting_on.get(tid, ()):
            rest = pending[follower]
            rest.remove(tid)
            if not rest:
                heapq.heappush(ready, (rank[follower], follower))
    if len(out) != len(items):
        stuck = sorted(set(items) - set(out))
        raise SequenceError(
            f"tasks {stuck} cannot be ordered: missing or cyclic predecessors")
    return out


def reference_repair(sequence, instance):
    seq = list(sequence)
    if len(set(seq)) != len(seq):
        raise SequenceError("sequence contains duplicate task ids")
    preds = {tid: instance.task(tid).predecessors for tid in seq}
    return reference_greedy_order(seq, preds, done=set())


def reference_extend(prefix, instance):
    seen = set(prefix)
    rest = sorted(t.id for t in instance.tasks if t.id not in seen)
    preds = {tid: instance.task(tid).predecessors for tid in rest}
    return list(prefix) + reference_greedy_order(rest, preds, done=seen)


def outcome(fn, *args):
    try:
        return fn(*args)
    except SequenceError as exc:
        return ("error", str(exc))


class TestGreedyOrderMatchesReference:
    """The cursor-and-deferred-heap decode against the all-heap one."""

    instances = st.builds(
        lambda n, seed, preds: generate_instance(
            GenSpec(n_tasks=n, seed=seed, max_predecessors=preds)),
        st.integers(0, 40), st.integers(0, 10**6), st.integers(0, 4))

    @settings(max_examples=150, deadline=None)
    @given(instances, st.data())
    def test_repair(self, inst, data):
        ids = [t.id for t in inst.tasks]
        seq = data.draw(st.permutations(ids))
        if ids:
            # subsets (all but one task among them), and sequences with
            # a duplicate or an unknown id, must agree too
            k = data.draw(st.integers(0, len(ids)))
            seq = data.draw(st.sampled_from(
                [seq, seq[:k], seq[:k] + seq[k + 1:], seq[:k] + [seq[0]],
                 seq[:k] + [-1]]))
        assert outcome(repair, seq, inst) == \
            outcome(reference_repair, seq, inst)

    @settings(max_examples=150, deadline=None)
    @given(instances, st.data())
    def test_extend_sequence(self, inst, data):
        ids = [t.id for t in inst.tasks]
        order = np.random.default_rng(len(ids)).permutation(len(ids))
        feasible = repair([ids[k] for k in order], inst)
        prefix = feasible[:data.draw(st.integers(0, len(ids)))]
        assert extend_sequence(prefix, inst) == reference_extend(prefix, inst)

    @settings(max_examples=100, deadline=None)
    @given(instances, st.data())
    def test_dense_decode(self, inst, data):
        # the swarm decodes whole permutations of dense indices
        view = inst.compiled()
        seq = data.draw(st.permutations([t.id for t in inst.tasks]))
        dense = [view.task_index[t] for t in seq]
        want = [view.task_index[t] for t in reference_repair(seq, inst)]
        assert _decode(dense, view) == want

    def test_cycle_message(self):
        # No valid instance has a cycle, so a stub carries the compiled
        # view's dense task fields for these predecessor lists.
        preds = {1: (), 2: (3,), 3: (2,), 4: (1, 3), 5: (5,)}
        index = {t: k for k, t in enumerate(sorted(preds))}
        dense = tuple(tuple(index[p] for p in preds[t]) for t in index)
        view = SimpleNamespace(
            task_index=index, task_preds=dense,
            task_succs=tuple(tuple(k for k, ps in enumerate(dense) if d in ps)
                             for d in range(len(dense))))
        stub = SimpleNamespace(compiled=lambda: view)
        items = [4, 3, 1, 5, 2]
        with pytest.raises(SequenceError) as got:
            _greedy_order(items, stub)
        with pytest.raises(SequenceError) as want:
            reference_greedy_order(items, preds, done=set())
        assert str(got.value) == str(want.value)
        assert "tasks [2, 3, 4, 5] cannot be ordered" in str(got.value)


class TestPriorityRules:
    def test_rule_names_and_count(self, lab):
        got = priority_orderings(lab)
        assert tuple(got) == PRIORITY_RULES
        assert len(PRIORITY_RULES) == 8

    def test_all_feasible_permutations(self, lab):
        for name, seq in priority_orderings(lab).items():
            assert sorted(seq) == list(range(1, 13)), name
            assert is_feasible_sequence(seq, lab), name

    def test_max_proc_time_row(self, lab):
        got = priority_orderings(lab)
        assert got["proc-time-desc"] == TABLE_ROWS["max_proc_time"]

    def test_min_proc_time_row(self, lab):
        got = priority_orderings(lab)
        assert got["proc-time-asc"] == TABLE_ROWS["min_proc_time"]

    def test_predecessor_and_follower_rows_present(self, lab):
        # The reference table's predecessor/follower rows appear among
        # the rule outputs (the direct and cumulative labels there are
        # swapped relative to the row contents).
        got = [list(s) for s in priority_orderings(lab).values()]
        for row in ("min_total_predecessors", "max_total_followers",
                    "min_cumulative_predecessors",
                    "max_cumulative_followers"):
            assert TABLE_ROWS[row] in got, row

    def test_tiny_instance_rules_cover_all_tasks(self):
        tasks = [inspect(1, "a", 30), inspect(2, "b", 40, preds=[1]),
                 inspect(3, "a", 50, preds=[1])]
        inst = make_instance(tasks)
        for seq in priority_orderings(inst).values():
            assert sorted(seq) == [1, 2, 3]
