"""Permutation algebra for task sequences.

Sequences are lists of task ids; the difference walk and the priority
rules run on dense labels (the swarm passes the compiled view's task
indices), and `repair`, `priority_orderings` and `pso.update_velocity`
convert ids for them.
Velocities for the discrete swarm are ordered lists of index
transpositions (swap pairs) applied left to right. Repair restores
precedence feasibility with `model._decode`, the stable greedy walk
that also orders validation, generation and the swarm: it keeps the
relative priority of every task as far as its predecessors allow.
"""

from __future__ import annotations

from .eat import _task_ids, check_sequence
from .model import ProblemInstance, SequenceError, _closure, _decode


def apply_swaps(sequence, pairs) -> list[int]:
    """Apply index transpositions left to right to a copy of sequence."""
    out = list(sequence)
    n = len(out)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise SequenceError(
                f"swap pair ({i}, {j}) out of range for length {n}")
        out[i], out[j] = out[j], out[i]
    return out


_NOT_PERMUTATIONS = "sequences are not permutations of each other"


def _relabel(current, *targets):
    """Each target with every item replaced by its position in current:
    how `update_velocity` puts a particle's bests onto the labels
    0..n-1 that `_difference` walks.

    Raises SequenceError, before any draw, when current or a target
    repeats an item, or when a target differs in length or holds an
    item missing from current.
    """
    current = list(current)
    label = {t: i for i, t in enumerate(current)}
    n = len(current)
    if len(label) != n:
        raise SequenceError(_NOT_PERMUTATIONS)
    out = []
    for target in targets:
        if len(target) != n or len(set(target)) != n:
            raise SequenceError(_NOT_PERMUTATIONS)
        try:
            out.append([label[t] for t in target])
        except KeyError:
            raise SequenceError(_NOT_PERMUTATIONS) from None
    return out


def _difference(target, work, pos):
    """Ordered swap pairs turning the current sequence into target, on
    labels that index pos.

    Greedy: walk positions left to right and, wherever the current
    sequence disagrees with the target, swap the target's label into
    place. Applying the pairs to it yields target; the list never
    exceeds len - 1 pairs and skips positions already in agreement.

    target must be a permutation of the labels in work, as `_relabel`
    makes it; the walk does not check this. work is a copy of current
    and pos[x] the position of label x in it; the walk updates both in
    place, leaving work stale at the positions it has passed.
    """
    pairs: list[tuple[int, int]] = []
    for i, want in enumerate(target):
        have = work[i]
        if have == want:
            continue
        j = pos[want]
        pairs.append((i, j))
        work[j] = have  # position i is never read again
        pos[want], pos[have] = i, j
    return pairs


def _greedy_order(items, instance: ProblemInstance) -> list[int]:
    """`_decode` of a list of task ids, checked first: repeated ids
    raise before unknown ones. Validation ruled out cycles."""
    if len(set(items)) != len(items):
        raise SequenceError("sequence contains duplicate task ids")
    view = instance.compiled()
    try:
        dense = [view.task_index[tid] for tid in items]
    except KeyError as missing:
        instance.task(missing.args[0])  # raises: unknown id
        raise
    return _decode(dense, view.task_preds, view.task_succs, items)


def repair(sequence, instance: ProblemInstance) -> list[int]:
    """Reorder a permutation into precedence feasibility, stably.

    Tasks keep their relative priority; one that arrives before a
    predecessor is deferred until the predecessor has been emitted.
    Feasible inputs pass through unchanged and the operation is
    idempotent. Ids are read as check_sequence reads them (3.0 is 3);
    a boolean or fractional id, a repeated id or an unknown one raises
    SequenceError.
    """
    return _greedy_order(_task_ids(sequence), instance)


def extend_sequence(prefix, instance: ProblemInstance) -> list[int]:
    """Complete a feasible prefix with the remaining tasks in id order,
    deferring each until its predecessors are placed. The prefix is
    checked by check_sequence."""
    seq = check_sequence(instance, prefix)
    placed = set(seq)
    rest = sorted(t for t in instance.tasks_by_id if t not in placed)
    return seq + _greedy_order(rest, instance)


PRIORITY_RULES = (
    "positional-weight-desc",
    "inverse-positional-weight-asc",
    "direct-predecessors-asc",
    "direct-followers-desc",
    "proc-time-desc",
    "proc-time-asc",
    "transitive-predecessors-asc",
    "transitive-followers-desc",
)


def priority_orderings(instance: ProblemInstance) -> dict[str, list[int]]:
    """Eight classic priority-rule sequences, precedence-repaired.

    Positional weight is a task's processing time plus that of all its
    transitive followers; the inverse variant sums transitive
    predecessors instead. Ties always break toward the lower task id.
    """
    view = instance.compiled()
    ids = list(view.task_index)
    return {name: [ids[d] for d in seq]
            for name, seq in zip(PRIORITY_RULES, _priority_rules(view))}


def _priority_rules(view) -> list[list[int]]:
    """`priority_orderings` on the compiled view: the rules in
    PRIORITY_RULES order as dense sequences. Dense indices follow the
    ids, so the stable sort breaks ties toward the lower id."""
    preds, succs = view.task_preds, view.task_succs
    proc = [t[2] for t in view.tasks]
    every = range(len(proc))
    order = _decode(every, preds, succs)    # a topological order
    trans_pred = _closure(order, preds)
    trans_succ = _closure(reversed(order), succs)
    pw = [proc[d] + sum(proc[s] for s in trans_succ[d]) for d in every]
    ipw = [proc[d] + sum(proc[p] for p in trans_pred[d]) for d in every]
    keys = ([-w for w in pw], ipw,
            [len(p) for p in preds], [-len(s) for s in succs],
            [-p for p in proc], proc,
            [len(trans_pred[d]) for d in every],
            [-len(trans_succ[d]) for d in every])
    return [_decode(sorted(every, key=key.__getitem__), preds, succs)
            for key in keys]
