"""Domain model for battery-constrained task scheduling of indoor UAV fleets.

Positions live on a fixed trajectory network described by a symmetric
flight-time matrix. Tasks occupy their start and end positions for their
whole execution window, may depend on other tasks, and are flown by UAVs
that must return to a recharge station before their airborne time budget
runs out.
"""

from __future__ import annotations

import enum
import heapq
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

DEFAULT_BATTERY_CAPACITY = 1200
DEFAULT_RECHARGE_DURATION = 2700


class SchedulingError(Exception):
    """Base class for errors raised by this package."""


class UnknownPositionError(SchedulingError):
    """A position id was looked up that the trajectory map does not know."""


class InstanceError(SchedulingError):
    """A problem instance violates its structural invariants."""


class SequenceError(SchedulingError):
    """A task sequence is malformed or precedence-infeasible."""


class CycleError(InstanceError):
    """The precedence graph has a cycle; `tasks` are the ids caught in it."""

    def __init__(self, tasks: list[int]):
        super().__init__(f"precedence graph has a cycle among tasks {tasks}")
        self.tasks = tasks


def exact_int(value) -> int | None:
    """value as an int when it equals one: an integer or an integral
    float (3.0 is 3). None for a boolean, a string, a fraction or
    anything else int() would coerce or truncate."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return out if out == value else None


class PositionKind(str, enum.Enum):
    WORK = "work"
    RECHARGE = "recharge"


@dataclass(frozen=True)
class Position:
    id: str
    kind: PositionKind = PositionKind.WORK


class TrajectoryMap:
    """Complete flight-time lookup between named positions.

    The matrix is authoritative: entry [i][j] is the flight duration in
    seconds between positions i and j, already accounting for the network
    of allowed trajectories. It must be symmetric with a zero diagonal
    and positive off-diagonal entries.
    """

    def __init__(self, positions: list[Position] | tuple[Position, ...],
                 seconds: list[list[int]]):
        self.positions = tuple(positions)
        self.seconds = tuple(tuple(int(v) for v in row) for row in seconds)
        self.index = {p.id: i for i, p in enumerate(self.positions)}
        if len(self.index) != len(self.positions):
            raise InstanceError("duplicate position ids in trajectory map")
        self._check_matrix()

    def _check_matrix(self):
        n = len(self.positions)
        m = np.array(self.seconds, dtype=np.int64)
        if m.shape != (n, n):
            raise InstanceError(
                f"flight time matrix is {m.shape}, expected ({n}, {n})")
        if not (m == m.T).all():
            raise InstanceError("flight time matrix is not symmetric")
        if (np.diag(m) != 0).any():
            raise InstanceError("flight time matrix diagonal must be zero")
        off = m[~np.eye(n, dtype=bool)]
        if n > 1 and (off <= 0).any():
            raise InstanceError(
                "flight times between distinct positions must be positive")

    def flight_time(self, from_pos: str, to_pos: str) -> int:
        try:
            i = self.index[from_pos]
        except KeyError:
            raise UnknownPositionError(f"unknown position {from_pos!r}") from None
        try:
            j = self.index[to_pos]
        except KeyError:
            raise UnknownPositionError(f"unknown position {to_pos!r}") from None
        return self.seconds[i][j]

    def position(self, pos_id: str) -> Position:
        try:
            return self.positions[self.index[pos_id]]
        except KeyError:
            raise UnknownPositionError(f"unknown position {pos_id!r}") from None

    def work_positions(self) -> list[str]:
        return [p.id for p in self.positions if p.kind == PositionKind.WORK]

    def __eq__(self, other):
        return (isinstance(other, TrajectoryMap)
                and self.positions == other.positions
                and self.seconds == other.seconds)


class TaskType(str, enum.Enum):
    SINGLE_INSPECTION = "single_inspection"
    COMPOUND_INSPECTION = "compound_inspection"
    MATERIAL_HANDLING = "material_handling"


def infer_task_type(start_pos: str, end_pos: str, proc_time: int) -> TaskType:
    """The type of a task given only its endpoints and duration.

    Moving tasks are material handling; stationary ones are single
    inspections up to 80 s and compound inspections above that.
    """
    if start_pos != end_pos:
        return TaskType.MATERIAL_HANDLING
    return (TaskType.SINGLE_INSPECTION if proc_time <= 80
            else TaskType.COMPOUND_INSPECTION)


@dataclass(frozen=True)
class Task:
    """One unit of work occupying start_pos and end_pos while it runs.

    Inspection tasks have identical start and end positions; material
    handling moves a payload and is the only type allowed to differ.
    """

    id: int
    type: TaskType
    start_pos: str
    end_pos: str
    proc_time: int
    predecessors: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "predecessors",
                           tuple(sorted(set(self.predecessors))))


@dataclass(frozen=True)
class RechargeStation:
    """A charging site with a fixed number of simultaneous bays."""

    pos: str
    slots: int = 1


@dataclass(frozen=True)
class Uav:
    id: str
    initial_pos: str
    battery_capacity: int = DEFAULT_BATTERY_CAPACITY
    recharge_duration: int = DEFAULT_RECHARGE_DURATION


class ActionKind(str, enum.Enum):
    FLIGHT = "flight"
    TASK_EXEC = "task_exec"
    HOVER = "hover"
    WAIT_ON_GROUND = "wait_on_ground"
    RECHARGE = "recharge"


# Action kinds during which the UAV is airborne and consuming battery.
AIRBORNE_KINDS = frozenset(
    {ActionKind.FLIGHT, ActionKind.TASK_EXEC, ActionKind.HOVER})


@dataclass(frozen=True)
class Action:
    """One contiguous span of a UAV timeline.

    Non-flight actions keep from_pos == to_pos. task_id is set only for
    task_exec actions, station only for recharge and wait_on_ground.
    """

    kind: ActionKind
    start: int
    end: int
    from_pos: str
    to_pos: str
    task_id: int | None = None
    station: str | None = None


class PrecedenceGraph:
    """Directed acyclic dependency structure over task ids.

    The one owner of reachability: topological order, transitive
    closures and redundant-edge detection all live here.
    """

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

    @classmethod
    def from_tasks(cls, tasks) -> PrecedenceGraph:
        return cls({t.id: t.predecessors for t in tasks})

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

    def transitive_predecessors(self) -> dict[int, frozenset[int]]:
        return _closure(self.topological_order(), self.direct_predecessors)

    def transitive_successors(self) -> dict[int, frozenset[int]]:
        return _closure(reversed(self.topological_order()),
                        self.direct_successors)

    def redundant_edges(self) -> list[tuple[int, int]]:
        """Direct edges already implied by a longer path, ordered by
        (source, target); raises CycleError on a cycle."""
        closure = self.transitive_successors()
        redundant = []
        for u in self.task_ids:
            for v in sorted(self.direct_successors[u]):
                if any(v in closure[w]
                       for w in self.direct_successors[u] if w != v):
                    redundant.append((u, v))
        return redundant


def _closure(order, edges) -> dict[int, frozenset[int]]:
    """Every id reachable over edges from each id; order must list each
    id after all of its edge targets."""
    closure: dict[int, frozenset[int]] = {}
    for t in order:
        acc: set[int] = set()
        for u in edges[t]:
            acc.add(u)
            acc |= closure[u]
        closure[t] = frozenset(acc)
    return closure


def validate_precedence(tasks) -> list[str]:
    """Report structural problems in a raw task list.

    Returns human-readable findings: repeated task ids, unknown
    predecessor references and self-dependencies, then either the tasks
    caught in a cycle or the redundant edges already implied by longer
    paths. The edges of repeated ids are pooled.
    """
    return _precedence_findings(tasks)[0]


def _precedence_findings(tasks) -> tuple[list[str], PrecedenceGraph]:
    """validate_precedence's findings and the graph of the known edges
    it checked for a cycle and for redundancy."""
    counts = Counter(t.id for t in tasks)
    problems = [f"task {tid} appears more than once"
                for tid in sorted(tid for tid, c in counts.items() if c > 1)]
    preds: dict[int, set[int]] = {tid: set() for tid in counts}
    for t in tasks:
        for p in t.predecessors:
            if p not in counts:
                problems.append(
                    f"task {t.id} references unknown predecessor {p}")
            elif p == t.id:
                problems.append(f"task {t.id} depends on itself")
            else:
                preds[t.id].add(p)
    graph = PrecedenceGraph(preds)
    try:
        problems += [f"edge {u} -> {v} is redundant (implied by a longer path)"
                     for u, v in graph.redundant_edges()]
    except CycleError as exc:
        problems.append(f"cycle among tasks {exc.tasks}")
    return problems, graph


@dataclass(frozen=True)
class CompiledInstance:
    """Dense int-indexed view of a ProblemInstance for the constructor.

    Positions are indices into the trajectory map; stations and UAVs
    keep declaration order. Tasks get dense indices in ascending id
    order: `task_index` maps each id to its index and lists the ids in
    that order. `tasks[d]` is task d's (start index, end index,
    proc_time, escape seconds from its end), and
    `task_preds`/`task_succs` hold the indices of its direct
    predecessors and successors, ascending. `nearest_leg` is the flight
    time from each position to its nearest station.
    """

    position_ids: tuple[str, ...]
    seconds: tuple[tuple[int, ...], ...]
    is_station: tuple[bool, ...]
    station_pos: tuple[int, ...]
    station_slots: tuple[int, ...]
    nearest_leg: tuple[float, ...]
    tasks: tuple[tuple[int, int, int, int], ...]
    task_index: dict[int, int]
    task_preds: tuple[tuple[int, ...], ...]
    task_succs: tuple[tuple[int, ...], ...]
    uav_ids: tuple[str, ...]
    uav_start: tuple[int, ...]
    uav_capacity: tuple[int, ...]
    uav_recharge: tuple[int, ...]


@dataclass
class ProblemInstance:
    """An immutable scheduling problem: map, stations, tasks and fleet.

    Treated as read-only after validate(); safe to share across parallel
    runs.
    """

    trajectory_map: TrajectoryMap
    stations: tuple[RechargeStation, ...]
    tasks: tuple[Task, ...]
    uavs: tuple[Uav, ...]
    name: str = "instance"

    def __post_init__(self):
        self.stations = tuple(self.stations)
        self.tasks = tuple(self.tasks)
        self.uavs = tuple(self.uavs)
        self.tasks_by_id = {t.id: t for t in self.tasks}
        self.uavs_by_id = {u.id: u for u in self.uavs}
        self._station_pos = frozenset(s.pos for s in self.stations)
        self._compiled: CompiledInstance | None = None
        self.validate()     # sets self._graph

    def task(self, task_id: int) -> Task:
        try:
            return self.tasks_by_id[task_id]
        except KeyError:
            raise SequenceError(f"unknown task id {task_id}") from None

    def uav(self, uav_id: str) -> Uav:
        try:
            return self.uavs_by_id[uav_id]
        except KeyError:
            raise InstanceError(f"unknown uav id {uav_id!r}") from None

    def graph(self) -> PrecedenceGraph:
        """The precedence graph validation built; shared, so read-only."""
        return self._graph

    def station_positions(self) -> frozenset[str]:
        return self._station_pos

    def compiled(self) -> CompiledInstance:
        """The constructor's dense view, built on first use and cached."""
        if self._compiled is None:
            m = self.trajectory_map
            idx = m.index
            station_pos = tuple(idx[s.pos] for s in self.stations)
            nearest_leg = tuple(min((row[sp] for sp in station_pos),
                                    default=float("inf"))
                                for row in m.seconds)
            task_index = {t: k for k, t in enumerate(sorted(self.tasks_by_id))}
            ordered = [self.tasks_by_id[t] for t in task_index]
            preds = tuple(tuple(task_index[p] for p in t.predecessors)
                          for t in ordered)
            succs = self._graph.direct_successors
            self._compiled = CompiledInstance(
                position_ids=tuple(p.id for p in m.positions),
                seconds=m.seconds,
                is_station=tuple(p.id in self._station_pos
                                 for p in m.positions),
                station_pos=station_pos,
                station_slots=tuple(s.slots for s in self.stations),
                nearest_leg=nearest_leg,
                tasks=tuple((idx[t.start_pos], idx[t.end_pos], t.proc_time,
                             nearest_leg[idx[t.end_pos]]) for t in ordered),
                task_index=task_index,
                task_preds=preds,
                task_succs=tuple(tuple(map(task_index.get, succs[t]))
                                 for t in task_index),
                uav_ids=tuple(u.id for u in self.uavs),
                uav_start=tuple(idx[u.initial_pos] for u in self.uavs),
                uav_capacity=tuple(u.battery_capacity for u in self.uavs),
                uav_recharge=tuple(u.recharge_duration for u in self.uavs),
            )
        return self._compiled

    def min_battery_capacity(self) -> int:
        return min(u.battery_capacity for u in self.uavs)

    def validate(self):
        """Raise InstanceError at the first broken invariant; the
        precedence findings of `validate_precedence` come all at once."""
        m = self.trajectory_map
        if len(self.tasks_by_id) != len(self.tasks):
            raise InstanceError("duplicate task ids")
        if len({u.id for u in self.uavs}) != len(self.uavs):
            raise InstanceError("duplicate uav ids")
        if len({s.pos for s in self.stations}) != len(self.stations):
            raise InstanceError("duplicate station positions")
        recharge_positions = {p.id for p in m.positions
                              if p.kind == PositionKind.RECHARGE}
        for s in self.stations:
            if m.position(s.pos).kind != PositionKind.RECHARGE:
                raise InstanceError(
                    f"station at {s.pos!r} must sit on a recharge-kind position")
            if s.slots < 1:
                raise InstanceError(f"station {s.pos!r} needs at least one slot")
        unhosted = recharge_positions - {s.pos for s in self.stations}
        if unhosted:
            raise InstanceError(
                f"recharge positions without a station: {sorted(unhosted)}")
        for u in self.uavs:
            m.position(u.initial_pos)
            if u.battery_capacity <= 0 or u.recharge_duration <= 0:
                raise InstanceError(f"uav {u.id!r} has non-positive budgets")
        for t in self.tasks:
            if m.position(t.start_pos).kind != PositionKind.WORK:
                raise InstanceError(
                    f"task {t.id} starts at non-work position {t.start_pos!r}")
            if m.position(t.end_pos).kind != PositionKind.WORK:
                raise InstanceError(
                    f"task {t.id} ends at non-work position {t.end_pos!r}")
            if t.proc_time <= 0:
                raise InstanceError(f"task {t.id} has non-positive proc_time")
            if t.type != TaskType.MATERIAL_HANDLING and t.start_pos != t.end_pos:
                raise InstanceError(
                    f"inspection task {t.id} must start and end at one position")
        problems, self._graph = _precedence_findings(self.tasks)
        if problems:
            raise InstanceError("; ".join(problems))
        if self.tasks:
            if not self.uavs:
                raise InstanceError("instance has tasks but no UAVs")
            if not self.stations:
                raise InstanceError("instance has tasks but no recharge stations")
            cap = self.min_battery_capacity()
            for t in self.tasks:
                bound = worst_case_engagement_time(t, m, self.stations)
                if bound > cap:
                    raise InstanceError(
                        f"task {t.id} cannot fit any battery window: "
                        f"worst-case airborne time {bound} > capacity {cap}")


def nearest_recharge_station(trajectory_map: TrajectoryMap, pos: str,
                             stations) -> tuple[RechargeStation, int]:
    """Closest station by flight time from pos; ties keep list order."""
    stations = tuple(stations)
    if not stations:
        raise InstanceError("no recharge stations configured")
    best = None
    best_t = None
    for s in stations:
        t = trajectory_map.flight_time(pos, s.pos)
        if best_t is None or t < best_t:
            best, best_t = s, t
    return best, best_t


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


@dataclass
class Schedule:
    """Per-UAV ordered action timelines for one instance."""

    instance: ProblemInstance
    actions: dict[str, list[Action]]

    def all_actions(self):
        for uav_id in self.uav_order():
            for a in self.actions[uav_id]:
                yield uav_id, a

    def uav_order(self) -> list[str]:
        ordered = [u.id for u in self.instance.uavs if u.id in self.actions]
        extra = [u for u in self.actions if u not in set(ordered)]
        return ordered + sorted(extra)

    def task_executions(self) -> dict[int, tuple[str, Action]]:
        out: dict[int, tuple[str, Action]] = {}
        for uav_id, a in self.all_actions():
            if a.kind == ActionKind.TASK_EXEC and a.task_id is not None:
                out.setdefault(a.task_id, (uav_id, a))
        return out

    def makespan(self) -> int:
        """Latest action end over the whole fleet; 0 when empty."""
        ends = [a.end for acts in self.actions.values() for a in acts]
        return max(ends) if ends else 0
