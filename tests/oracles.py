"""Reference implementations that more than one test file compares
against, one frozen copy of each. Each is the package's rule as it was
first written (or as its per-id form last read), kept here so a faster
or denser package path is checked against the plain one. An oracle
that a single test file needs stays in that file."""

import heapq

from uavsched.eat import check_sequence
from uavsched.model import (
    CompiledInstance,
    InstanceError,
    SequenceError,
    Task,
    TrajectoryMap,
)


def is_feasible_sequence(sequence, instance) -> bool:
    """True when every task appears once, after all of its predecessors
    (the rule check_sequence enforces)."""
    try:
        check_sequence(instance, sequence)
    except SequenceError:
        return False
    return True


def reference_difference(target, current):
    """The swap-pair difference as first written: a sorted-multiset
    check, then a walk with an id -> position dict."""
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


# The per-id battery bound: the rule `model.position_tables` computes
# per position for validation, generation and the compiled view.

def nearest_recharge_station(trajectory_map: TrajectoryMap, pos: str,
                             stations):
    """Closest station by flight time from pos; ties keep list order."""
    stations = tuple(stations)
    if not stations:
        raise InstanceError("no recharge stations configured")
    t, k = min((trajectory_map.flight_time(pos, s.pos), k)
               for k, s in enumerate(stations))
    return stations[k], t


def task_upper_bound_time(prep_time: int, task: Task,
                          trajectory_map: TrajectoryMap, stations) -> int:
    """Airborne seconds a UAV must afford to take the task now.

    Preparation (flight plus any hover) plus execution plus the escape
    flight to the station nearest the task's end position.
    """
    _, rs = nearest_recharge_station(trajectory_map, task.end_pos, stations)
    return prep_time + task.proc_time + rs


def worst_case_engagement_time(task: Task, trajectory_map: TrajectoryMap,
                               stations) -> int:
    """Feasibility bound: a fresh UAV from the farthest position must be
    able to fly in, execute, and still reach a recharge station."""
    worst_in = max(trajectory_map.flight_time(p.id, task.start_pos)
                   for p in trajectory_map.positions)
    return task_upper_bound_time(worst_in, task, trajectory_map, stations)


def reference_position_tables(trajectory_map: TrajectoryMap, stations):
    """`model.position_tables` as first written: each position's row max
    and one flight_time lookup per (position, station) pair."""
    m = trajectory_map
    return (tuple(map(max, m.seconds)),
            tuple(min([m.flight_time(p.id, s.pos) for s in stations],
                      default=float("inf")) for p in m.positions))


# The id-keyed precedence graph that validation and generation used
# before they shared the dense walk `model._decode`, with the error its
# Kahn pass raised.

class CycleError(InstanceError):
    """The precedence graph has a cycle; `tasks` are the ids caught in it."""

    def __init__(self, tasks: list[int]):
        super().__init__(f"precedence graph has a cycle among tasks {tasks}")
        self.tasks = tasks


class PrecedenceGraph:
    """Directed acyclic dependency structure over task ids: topological
    order, the successor closure and redundant-edge detection."""

    def __init__(self, predecessors):
        """predecessors maps each task id to the ids it depends on; each
        id's direct neighbours are kept as ascending tuples."""
        self.task_ids = sorted(predecessors)
        self.direct_predecessors = {
            t: tuple(sorted(set(predecessors[t]))) for t in self.task_ids}
        succs: dict[int, list[int]] = {t: [] for t in self.task_ids}
        for t, preds in self.direct_predecessors.items():   # t ascending
            for p in preds:
                if p in succs:
                    succs[p].append(t)
        self.direct_successors = {t: tuple(s) for t, s in succs.items()}

    def topological_order(self) -> list[int]:
        """Kahn topological order (ids ascending among ready tasks).

        Raises CycleError naming the tasks left in a cycle.
        """
        indeg = {t: len(p) for t, p in self.direct_predecessors.items()}
        ready = [t for t in self.task_ids if not indeg[t]]  # sorted: a heap
        order = []
        while ready:
            t = heapq.heappop(ready)
            order.append(t)
            for s in self.direct_successors[t]:
                indeg[s] -= 1
                if not indeg[s]:
                    heapq.heappush(ready, s)
        if len(order) != len(self.task_ids):
            raise CycleError([t for t in self.task_ids if indeg[t]])
        return order

    def transitive_successors(self) -> dict[int, frozenset[int]]:
        closure: dict[int, frozenset[int]] = {}
        for t in reversed(self.topological_order()):
            acc: set[int] = set()
            for u in self.direct_successors[t]:
                acc.add(u)
                acc |= closure[u]
            closure[t] = frozenset(acc)
        return closure

    def redundant_edges(self) -> list[tuple[int, int]]:
        """Direct edges already implied by a longer path, ordered by
        (source, target); raises CycleError on a cycle."""
        closure = self.transitive_successors()
        redundant = []
        for u in self.task_ids:
            for v in self.direct_successors[u]:
                if any(v in closure[w]
                       for w in self.direct_successors[u] if w != v):
                    redundant.append((u, v))
        return redundant


def reference_compiled(instance) -> CompiledInstance:
    """`ProblemInstance.compiled()` as it was built lazily on first use:
    a second pass after validation, over the tasks in ascending id
    order, looking each one's endpoints up again. The task graph comes
    from `PrecedenceGraph` and the legs from the per-pair table here."""
    m = instance.trajectory_map
    idx = m.index
    stations = instance.stations
    hosted = {s.pos for s in stations}
    nearest_leg = reference_position_tables(m, stations)[1]
    graph = PrecedenceGraph({t.id: t.predecessors for t in instance.tasks})
    task_index = {t: d for d, t in enumerate(graph.task_ids)}
    ordered = [instance.task(t) for t in graph.task_ids]
    return CompiledInstance(
        position_ids=tuple(p.id for p in m.positions),
        seconds=m.seconds,
        is_station=tuple(p.id in hosted for p in m.positions),
        station_pos=tuple(idx[s.pos] for s in stations),
        station_slots=tuple(s.slots for s in stations),
        nearest_leg=nearest_leg,
        tasks=tuple((idx[t.start_pos], idx[t.end_pos], t.proc_time,
                     nearest_leg[idx[t.end_pos]]) for t in ordered),
        task_index=task_index,
        task_preds=tuple(tuple(task_index[p]
                               for p in graph.direct_predecessors[t])
                         for t in graph.task_ids),
        task_succs=tuple(tuple(task_index[s]
                               for s in graph.direct_successors[t])
                         for t in graph.task_ids),
        uav_ids=tuple(u.id for u in instance.uavs),
        uav_start=tuple(idx[u.initial_pos] for u in instance.uavs),
        uav_capacity=tuple(u.battery_capacity for u in instance.uavs),
        uav_recharge=tuple(u.recharge_duration for u in instance.uavs),
        stranded=max((k for k, u in enumerate(instance.uavs)
                      if nearest_leg[idx[u.initial_pos]] > u.battery_capacity),
                     default=-1),
    )
