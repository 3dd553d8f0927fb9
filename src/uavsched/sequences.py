"""Permutation algebra for task sequences.

Sequences are lists of task ids; the difference walk and the greedy
decode run on dense labels (the swarm passes the compiled view's task
indices), and the public functions convert ids for them. Velocities for
the discrete swarm are ordered lists of index transpositions (swap
pairs) applied left to right; a `Velocity` also carries the composed
index permutation of its pairs so that re-applying it after new pairs
are appended costs O(n + new pairs). Repair restores precedence
feasibility with a stable greedy decode that keeps the relative
priority of every task as far as its predecessors allow.
"""

from __future__ import annotations

import heapq

from .eat import check_sequence
from .model import ProblemInstance, SequenceError


class Velocity(list):
    """Swap pairs plus the composed index permutation of a prefix of them.

    Behaves as (and compares equal to) the plain list of (i, j) tuples.
    Pairs are only ever appended, so `perm` (the composition of the first
    `folded` pairs, or None) stays valid and `apply_swaps` folds in just
    the pairs added since it last ran on this velocity. Likewise `mask`,
    an n*n bytearray with both orientations of each of the first
    `masked` pairs set (pairs out of range for n are left out), lets
    `update_velocity` dedup new pairs without rebuilding a set.
    """

    __slots__ = ("perm", "folded", "mask", "masked")

    def __init__(self, pairs=()):
        super().__init__(pairs)
        self.perm: list[int] | None = None
        self.folded = 0
        self.mask: bytearray | None = None
        self.masked = 0

    @classmethod
    def lift(cls, pairs) -> Velocity:
        """pairs itself if it is a Velocity, else a new one holding them."""
        return pairs if isinstance(pairs, cls) else cls(map(tuple, pairs))

    def copy(self) -> Velocity:
        """Same pairs and carried state, sharing no mutable state."""
        out = Velocity(self)
        if self.perm is not None:
            out.perm = self.perm.copy()
            out.folded = self.folded
        if self.mask is not None:
            out.mask = self.mask.copy()
            out.masked = self.masked
        return out

    def pair_mask(self, n: int) -> bytearray:
        """The dedup mask for indices below n, holding every pair so far
        (rebuilt when n differs from the last call)."""
        mask = self.mask
        if mask is None or len(mask) != n * n:
            mask = bytearray(n * n)
            self.masked = 0
        for i, j in self[self.masked:]:
            if 0 <= i < n and 0 <= j < n:
                mask[i * n + j] = mask[j * n + i] = 1
        self.mask = mask
        self.masked = len(self)
        return mask


def apply_swaps(sequence, pairs) -> list[int]:
    """Apply index transpositions left to right to a copy of sequence.

    pairs is lifted into a Velocity whose carried permutation is brought
    up to date (rebuilt when the sequence length differs from the last
    call); the result is ``out[k] = sequence[perm[k]]``.
    """
    v = Velocity.lift(pairs)
    if not isinstance(sequence, (list, tuple)):
        sequence = list(sequence)
    n = len(sequence)
    perm = v.perm
    if perm is None or len(perm) != n:
        perm = list(range(n))
        v.folded = 0
    v.perm = None  # invalid until the fold below completes
    for i, j in v[v.folded:]:
        if not (0 <= i < n and 0 <= j < n):
            raise SequenceError(
                f"swap pair ({i}, {j}) out of range for length {n}")
        perm[i], perm[j] = perm[j], perm[i]
    v.perm = perm
    v.folded = len(v)
    return [sequence[k] for k in perm]


_NOT_PERMUTATIONS = "sequences are not permutations of each other"


def sequence_difference(target, current) -> list[tuple[int, int]]:
    """Ordered swap pairs turning current into target.

    Greedy: walk positions left to right and, wherever the working copy
    disagrees with the target, swap the target's element into place.
    Applying the result to current yields target; the list never exceeds
    len - 1 pairs and skips positions already in agreement.

    Items are relabelled (see `_relabel`) and walked by `_difference`.
    With distinct items in current, the relabelling and the walk check
    that target is a permutation of it; repeated items are checked up
    front by comparing the sorted sequences.
    """
    work, (want,), distinct = _relabel(current, target)
    return _difference(want, work, list(range(len(work))), distinct)


def _relabel(current, *targets):
    """current and each target with every item replaced by its last
    position in current, and whether current's items are distinct.

    Distinct items turn current into 0..n-1; with repeated ones, label
    x sits at position x in current at first, as a dict of positions
    would have it. Raises SequenceError when
    a target differs in length or holds an item missing from current,
    and, for repeated items in current, when the sorted sequences differ.
    """
    current = list(current)
    label = {t: i for i, t in enumerate(current)}
    n = len(current)
    distinct = len(label) == n
    out = []
    for target in targets:
        if len(target) != n or (not distinct
                                and sorted(current) != sorted(target)):
            raise SequenceError(_NOT_PERMUTATIONS)
        try:
            out.append([label[t] for t in target])
        except KeyError:
            raise SequenceError(_NOT_PERMUTATIONS) from None
    return [label[t] for t in current], out, distinct


def _difference(target, work, pos, strict: bool = True):
    """The difference walk on labels that index pos.

    work is a copy of current and pos[x] the position of label x in it;
    the walk updates both in place. When strict, a wanted label already
    placed further left raises SequenceError: with distinct labels in
    current, target is then not a permutation of it.
    """
    pairs: list[tuple[int, int]] = []
    for i, want in enumerate(target):
        have = work[i]
        if have == want:
            continue
        j = pos[want]
        if j < i and strict:
            raise SequenceError(_NOT_PERMUTATIONS)
        pairs.append((i, j))
        work[i], work[j] = want, have
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
    """`_decode` of a list of task ids: repeated ids raise before
    unknown ones."""
    view = instance.compiled()
    index = view.task_index
    try:
        dense = [index[tid] for tid in items]
    except KeyError:
        if len(set(items)) != len(items):
            raise SequenceError("sequence contains duplicate task ids") from None
        for tid in items:
            instance.task(tid)  # raises: unknown id
        raise
    return _decode(dense, view, items)


def _decode(dense, view, labels=None) -> list[int]:
    """Emit the tasks of dense (compiled-view indices) in the given
    priority order, each as soon as its predecessors among them are
    emitted; predecessors outside dense count as already placed.

    The task at rank r comes out as labels[r] (dense[r] by default).
    `rank` maps each task to its place in dense (-1 when absent). A
    cursor walks dense in order and emits every task whose pending count
    is zero; a task it has to skip goes onto a heap (by rank) once its
    last predecessor is emitted, and the heap, holding only ranks behind
    the cursor, always goes first. A repeated task raises.
    """
    preds, succs = view.task_preds, view.task_succs
    if labels is None:
        labels = dense
    n = len(dense)
    rank = [-1] * len(preds)
    for r, d in enumerate(dense):
        rank[d] = r
    # a repeated task leaves more ranks unset than there are absent tasks
    if rank.count(-1) != len(preds) - n:
        raise SequenceError("sequence contains duplicate task ids")
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
    idempotent. Repeated ids raise SequenceError.
    """
    return _greedy_order(list(sequence), instance)


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
