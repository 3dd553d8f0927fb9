"""Permutation algebra for task sequences.

Sequences are lists of task ids; the difference walk and the greedy
decode run on dense labels (the swarm passes the compiled view's task
indices), and the public functions convert ids for them. Velocities for
the discrete swarm are ordered lists of index transpositions (swap
pairs) applied left to right. Repair restores precedence feasibility
with a stable greedy decode that keeps the relative priority of every
task as far as its predecessors allow.
"""

from __future__ import annotations

import heapq

from .eat import _task_ids, check_sequence
from .model import ProblemInstance, SequenceError


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


def sequence_difference(target, current) -> list[tuple[int, int]]:
    """Ordered swap pairs turning current into target.

    Greedy: walk positions left to right and, wherever the working copy
    disagrees with the target, swap the target's element into place.
    Applying the result to current yields target; the list never exceeds
    len - 1 pairs and skips positions already in agreement.

    Both sequences must be permutations of one set of distinct items;
    `_relabel` checks both before the walk (in update_velocity, before
    any draw) and maps target onto 0..n-1.
    """
    (want,) = _relabel(current, target)
    n = len(want)
    return _difference(want, list(range(n)), list(range(n)))


def _relabel(current, *targets):
    """Each target with every item replaced by its position in current.

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
    """The difference walk on labels that index pos.

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


def is_feasible_sequence(sequence, instance: ProblemInstance) -> bool:
    """True when every task appears once, after all of its predecessors
    (the rule check_sequence enforces)."""
    try:
        check_sequence(instance, sequence)
    except SequenceError:
        return False
    return True


def _greedy_order(items, instance: ProblemInstance) -> list[int]:
    """`_decode` of a list of task ids, checked first: repeated ids
    raise before unknown ones."""
    if len(set(items)) != len(items):
        raise SequenceError("sequence contains duplicate task ids")
    view = instance.compiled()
    index = view.task_index
    try:
        dense = [index[tid] for tid in items]
    except KeyError as missing:
        instance.task(missing.args[0])  # raises: unknown id
        raise
    return _decode(dense, view, items)


def _decode(dense, view, labels=None) -> list[int]:
    """Emit the tasks of dense (distinct compiled-view indices, which the
    walk does not check) in the given priority order, each as soon as
    its predecessors among them are emitted; predecessors outside dense
    count as already placed.

    The task at rank r comes out as labels[r] (dense[r] by default).
    `rank` maps each task to its place in dense (-1 when absent). A
    cursor walks dense in order and emits every task whose pending count
    is zero; a task it has to skip goes onto a heap (by rank) once its
    last predecessor is emitted, and the heap, holding only ranks behind
    the cursor, always goes first.
    """
    preds, succs = view.task_preds, view.task_succs
    if labels is None:
        labels = dense
    n = len(dense)
    rank = [-1] * len(preds)
    for r, d in enumerate(dense):
        rank[d] = r
    if n == len(preds):     # every task: all predecessors count
        pending = [len(preds[d]) for d in dense]
    else:
        pending = [0] * n
        for r, d in enumerate(dense):
            for p in preds[d]:
                if rank[p] >= 0:
                    pending[r] += 1
    deferred: list[int] = []
    cursor = 0
    out: list[int] = []
    while True:
        if deferred:
            r = heapq.heappop(deferred)
        else:
            while cursor < n and pending[cursor]:
                cursor += 1
            if cursor == n:
                break
            r = cursor
            cursor += 1
        out.append(labels[r])
        for f in succs[dense[r]]:
            q = rank[f]
            if q >= 0:
                pending[q] -= 1
                if not pending[q] and q < cursor:
                    heapq.heappush(deferred, q)
    if len(out) != n:
        ids = list(view.task_index)
        stuck = sorted(ids[dense[r]] for r in range(n) if pending[r])
        raise SequenceError(
            f"tasks {stuck} cannot be ordered: missing or cyclic predecessors")
    return out


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
    graph = instance.graph()
    ids = graph.task_ids
    proc = {t: instance.task(t).proc_time for t in ids}
    trans_pred = graph.transitive_predecessors()
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
    out: dict[str, list[int]] = {}
    for name in PRIORITY_RULES:
        key = keys[name]
        ranked = sorted(ids, key=lambda t: (key(t), t))
        out[name] = repair(ranked, instance)
    return out
