import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched.datagen import GenSpec, generate_instance
from uavsched.model import ProblemInstance, SequenceError, Task, _decode
from uavsched.sequences import (
    PRIORITY_RULES,
    _difference,
    _relabel,
    apply_swaps,
    extend_sequence,
    priority_orderings,
    repair,
)

from conftest import TABLE_ROWS, inspect, make_instance
from oracles import (
    PrecedenceGraph,
    is_feasible_sequence,
    reference_difference,
)

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


def sequence_difference(target, current):
    """The difference walk as `update_velocity` runs it: `_relabel`
    checks both sequences and puts target onto current's positions,
    then `_difference` walks labels 0..n-1."""
    (want,) = _relabel(current, target)
    n = len(want)
    return _difference(want, list(range(n)), list(range(n)))


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


def expected_difference(target, current):
    """The reference's outcome, or the permutation error when either
    argument repeats an item: only permutations of distinct items have
    a difference."""
    if len(set(target)) < len(target) or len(set(current)) < len(current):
        return ("error", "sequences are not permutations of each other")
    return outcome(reference_difference, target, current)


class TestSequenceDifferenceMatchesReference:
    """The walk's permutation check against the sorted comparison."""

    @settings(max_examples=400, deadline=None)
    @given(difference_inputs())
    def test_same_pairs_or_same_error(self, args):
        assert outcome(sequence_difference, *args) == \
            expected_difference(*args)

    @pytest.mark.parametrize("target, current", [
        ([1, 2, 3], [1, 2]), ([1, 2], [1, 2, 3]), ([1, 2, 9], [1, 2, 3]),
        ([1, 1, 2], [1, 2, 3]), ([1, 2, 3], [1, 1, 2]),
        ([2, 1, 1], [1, 2, 1]), ([3, 1, 2], [3, 1, 1]),
        # the sorted check passes, then the walk meets a stale position
        ([1, 1, 2, 3], [2, 3, 1, 1]),
    ])
    def test_scripted(self, target, current):
        assert outcome(sequence_difference, target, current) == \
            expected_difference(target, current)


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

    def test_integral_ids_come_back_as_int(self, lab):
        seq = [3.0, 2, np.int64(1), 4, 6, 5, 7, 8, 9, 10, 11, 12]
        got = repair(seq, lab)
        assert got == [3, 2, 1, 4, 6, 5, 7, 8, 9, 10, 11, 12]
        assert all(type(t) is int for t in got)

    @pytest.mark.parametrize("bad", [True, 1.5])
    def test_non_integer_id_rejected(self, lab, bad):
        # check_sequence rejects these ids, so repair must not pass them on
        seq = [3.0, 2, bad, 4, 6, 5, 7, 8, 9, 10, 11, 12]
        with pytest.raises(SequenceError, match="is not an integer"):
            repair(seq, lab)

    @pytest.mark.parametrize("seq", [[1, 99, 1.0], [1.0, 1, 99], [99, 2, 2]])
    def test_duplicate_reported_before_unknown(self, lab, seq):
        with pytest.raises(SequenceError, match="duplicate"):
            repair(seq, lab)

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
        assert _decode(dense, view.task_preds, view.task_succs) == want


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


def reference_priority_orderings(instance):
    """`priority_orderings` as it ran on the id-keyed `PrecedenceGraph`
    validation kept, before the dense core, with `reference_repair`
    standing in for `repair`."""
    graph = PrecedenceGraph({t.id: t.predecessors for t in instance.tasks})
    ids = graph.task_ids
    proc = {t: instance.task(t).proc_time for t in ids}
    order = graph.topological_order()
    trans_pred = {}
    for t in order:
        trans_pred[t] = set(graph.direct_predecessors[t]).union(
            *(trans_pred[p] for p in graph.direct_predecessors[t]))
    trans_succ = graph.transitive_successors()
    pw = {t: proc[t] + sum(proc[s] for s in trans_succ[t]) for t in ids}
    ipw = {t: proc[t] + sum(proc[p] for p in trans_pred[t]) for t in ids}
    keys = {
        "positional-weight-desc": lambda t: -pw[t],
        "inverse-positional-weight-asc": lambda t: ipw[t],
        "direct-predecessors-asc": lambda t: len(graph.direct_predecessors[t]),
        "direct-followers-desc": lambda t: -len(graph.direct_successors[t]),
        "proc-time-desc": lambda t: -proc[t],
        "proc-time-asc": lambda t: proc[t],
        "transitive-predecessors-asc": lambda t: len(trans_pred[t]),
        "transitive-followers-desc": lambda t: -len(trans_succ[t]),
    }
    return {name: reference_repair(
        sorted(ids, key=lambda t: (keys[name](t), t)), instance)
        for name in PRIORITY_RULES}


@st.composite
def relabelled_instances(draw):
    """Generated instances with sparse ids drawn in random order, so
    ascending ids are mostly not a topological order, and the tasks
    listed shuffled."""
    inst = generate_instance(GenSpec(
        n_tasks=draw(st.integers(0, 60)), seed=draw(st.integers(0, 10**6)),
        max_predecessors=draw(st.integers(0, 4))))
    new_ids = draw(st.lists(st.integers(0, 10**6), min_size=len(inst.tasks),
                            max_size=len(inst.tasks), unique=True))
    label = dict(zip((t.id for t in inst.tasks), new_ids))
    tasks = [Task(label[t.id], t.type, t.start_pos, t.end_pos, t.proc_time,
                  tuple(label[p] for p in t.predecessors))
             for t in inst.tasks]
    return ProblemInstance(trajectory_map=inst.trajectory_map,
                           stations=inst.stations,
                           tasks=draw(st.permutations(tasks)),
                           uavs=inst.uavs)


class TestPriorityRulesMatchReference:
    @settings(max_examples=80, deadline=None)
    @given(relabelled_instances())
    def test_equal_on_relabelled_ids(self, inst):
        assert priority_orderings(inst) == reference_priority_orderings(inst)
        # the compiled view's successors invert its predecessors
        view = inst.compiled()
        graph = PrecedenceGraph({t.id: t.predecessors for t in inst.tasks})
        assert view.task_succs == tuple(
            tuple(view.task_index[s] for s in graph.direct_successors[t])
            for t in view.task_index)
