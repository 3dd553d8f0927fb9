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
from dataclasses import dataclass

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


def exact_int(value) -> int | None:
    """value as an int when it equals one: an integer or an integral
    float (3.0 is 3). None for a boolean, a string, a fraction or
    anything else int() would coerce or truncate."""
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return out if out == value else None


def _integer(value, what: str) -> int:
    """value as an integer field of an instance (an id, a count or a
    time) by `exact_int`, so 3.0 is stored as 3; a boolean, a fraction,
    a string, NaN or an infinity raises InstanceError naming the field."""
    if type(value) is int:
        return value
    out = exact_int(value)
    if out is None:
        raise InstanceError(f"{what} must be an integer, not {value!r}")
    return out


def _iterate(value, what: str):
    """An iterator over value; InstanceError naming what when value
    is not a sequence."""
    try:
        return iter(value)
    except TypeError:
        raise InstanceError(f"{what} is not a sequence: {value!r}") from None


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
        self.seconds = tuple(
            tuple(_integer(v, "flight time")
                  for v in _iterate(row, f"flight time matrix row {i}"))
            for i, row in enumerate(_iterate(seconds, "flight time matrix")))
        self.index = {p.id: i for i, p in enumerate(self.positions)}
        if len(self.index) != len(self.positions):
            raise InstanceError("duplicate position ids in trajectory map")
        self._check_matrix()

    def _check_matrix(self):
        n = len(self.positions)
        if len({len(row) for row in self.seconds}) > 1:
            raise InstanceError(
                f"flight time matrix is ragged, expected ({n}, {n})")
        try:
            m = np.array(self.seconds, dtype=np.int64)
        except OverflowError:
            big = max((v for row in self.seconds for v in row), key=abs)
            raise InstanceError(
                f"flight time {big} does not fit in int64") from None
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

    def _at(self, pos_id: str) -> int:
        try:
            return self.index[pos_id]
        except KeyError:
            raise UnknownPositionError(f"unknown position {pos_id!r}") from None

    def flight_time(self, from_pos: str, to_pos: str) -> int:
        return self.seconds[self._at(from_pos)][self._at(to_pos)]

    def position(self, pos_id: str) -> Position:
        return self.positions[self._at(pos_id)]

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


@dataclass(frozen=True, init=False)
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

    def __init__(self, id, type, start_pos, end_pos, proc_time,
                 predecessors=()):
        # the instance dict, not slots as in Action: a dict store costs
        # less than a slot setter call, and tasks are built often and
        # read little on the audit path; no object.__setattr__ per
        # field, and a checked field is not checked twice
        d = self.__dict__
        d["id"], d["type"] = _integer(id, "task id"), type
        d["start_pos"], d["end_pos"] = start_pos, end_pos
        d["proc_time"] = _integer(proc_time, "proc_time")
        d["predecessors"] = tuple(sorted(
            {_integer(p, "predecessor id") for p in predecessors}))


@dataclass(frozen=True)
class RechargeStation:
    """A charging site with a fixed number of simultaneous bays."""

    pos: str
    slots: int = 1

    def __post_init__(self):
        object.__setattr__(self, "slots", _integer(self.slots, "slots"))


@dataclass(frozen=True)
class Uav:
    id: str
    initial_pos: str
    battery_capacity: int = DEFAULT_BATTERY_CAPACITY
    recharge_duration: int = DEFAULT_RECHARGE_DURATION

    def __post_init__(self):
        for field in ("battery_capacity", "recharge_duration"):
            object.__setattr__(self, field,
                               _integer(getattr(self, field), field))


class ActionKind(str, enum.Enum):
    FLIGHT = "flight"
    TASK_EXEC = "task_exec"
    HOVER = "hover"
    WAIT_ON_GROUND = "wait_on_ground"
    RECHARGE = "recharge"


@dataclass(frozen=True, slots=True, init=False)
class Action:
    """One contiguous span of a UAV timeline.

    Non-flight actions keep from_pos == to_pos, so a recharge or a
    ground wait is at the station from_pos. task_id is set only for
    task_exec actions.
    """

    kind: ActionKind
    start: int
    end: int
    from_pos: str
    to_pos: str
    task_id: int | None = None

    def __init__(self, kind, start, end, from_pos, to_pos, task_id=None):
        # slots, since the validator and the writers read every field
        # of every action; the frozen dataclass __init__ pays an
        # object.__setattr__ per field, a slot's own setter skips the
        # frozen check
        _set_kind(self, kind)
        _set_start(self, start)
        _set_end(self, end)
        _set_from_pos(self, from_pos)
        _set_to_pos(self, to_pos)
        _set_task_id(self, task_id)


(_set_kind, _set_start, _set_end, _set_from_pos, _set_to_pos,
 _set_task_id) = (Action.__dict__[name].__set__
                  for name in Action.__dataclass_fields__)


def _closure(order, edges) -> dict[int, frozenset[int]]:
    """Every task (id or dense index) reachable over edges from each
    task; order must list each task after all of its edge targets."""
    closure: dict[int, frozenset[int]] = {}
    for t in order:
        acc: set[int] = set()
        for u in edges[t]:
            acc.add(u)
            acc |= closure[u]
        closure[t] = frozenset(acc)
    return closure


def _decode(dense, preds, succs, labels=None) -> list[int]:
    """Emit the tasks of dense (distinct indices into preds and succs,
    which the walk does not check) in the given priority order, each as
    soon as its predecessors among them are emitted; predecessors
    outside dense count as already placed. The result is shorter than
    dense exactly when edges among its tasks form a cycle; the tasks
    left out are those on a cycle or behind one.

    The task at rank r comes out as labels[r] (dense[r] by default).
    `rank` maps each task to its place in dense (-1 when absent). A
    cursor walks dense in order and emits every task whose pending count
    is zero; a task it has to skip goes onto a heap (by rank) once its
    last predecessor is emitted, and the heap, holding only ranks behind
    the cursor, always goes first. On range(n) this is Kahn's order with
    the lowest ready index first.
    """
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
    return out


def _check_precedence(pairs):
    """The precedence structure of tasks given as (id, predecessor ids)
    pairs, checked in one walk.

    Returns (findings, redundant, task_index, task_preds, task_succs):
    the findings `validate_precedence` reports; the redundant edges as
    (source, target) id pairs in that order; and the kept edges on dense
    indices. `task_index` maps each distinct id to its index, in
    ascending id order, and `task_preds`/`task_succs` hold each index's
    direct predecessors and successors, ascending. The edges of repeated
    ids are pooled.
    """
    counts = Counter([tid for tid, _ in pairs])
    ids = sorted(counts)
    findings = [f"task {tid} appears more than once"
                for tid in ids if counts[tid] > 1]
    index = {tid: d for d, tid in enumerate(ids)}
    kept: list[set[int]] = [set() for _ in ids]
    for tid, predecessors in pairs:
        mine = kept[index[tid]]
        for p in predecessors:
            if p not in index:
                findings.append(
                    f"task {tid} references unknown predecessor {p}")
            elif p == tid:
                findings.append(f"task {tid} depends on itself")
            else:
                mine.add(index[p])
    preds = tuple(tuple(sorted(ps)) for ps in kept)
    succs: list[list[int]] = [[] for _ in ids]
    for d, ps in enumerate(preds):  # d ascending
        for p in ps:
            succs[p].append(d)
    succs = tuple(map(tuple, succs))
    order = range(len(ids))     # Kahn's order when every edge runs upward
    if any(ps and ps[-1] > d for d, ps in enumerate(preds)):
        order = _decode(order, preds, succs)
    redundant = []
    if len(order) < len(ids):
        placed = set(order)
        findings.append(f"cycle among tasks "
                        f"{[t for d, t in enumerate(ids) if d not in placed]}")
    else:
        closure = _closure(reversed(order), succs)
        for u, vs in enumerate(succs):
            if len(vs) > 1:     # no task reaches itself: w == v is False
                for v in vs:
                    if any(v in closure[w] for w in vs):
                        redundant.append((ids[u], ids[v]))
        findings += [f"edge {u} -> {v} is redundant (implied by a longer path)"
                     for u, v in redundant]
    return findings, redundant, index, preds, succs


def validate_precedence(tasks) -> list[str]:
    """Report structural problems in a raw task list.

    Returns human-readable findings: repeated task ids, unknown
    predecessor references and self-dependencies, then either the tasks
    caught in a cycle or the redundant edges already implied by longer
    paths. The edges of repeated ids are pooled.
    """
    return _check_precedence([(t.id, t.predecessors) for t in tasks])[0]


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
    time from each position to its nearest station. `stranded` is the
    last UAV in fleet order that starts out of every station's
    reach, or -1.
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
    stranded: int


@dataclass
class ProblemInstance:
    """An immutable scheduling problem: map, stations, tasks and fleet.

    Validated and compiled in one pass on construction; no reader
    writes to it, so it is safe to share across parallel runs.
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
        self.validate()     # sets self._compiled

    def task(self, task_id: int) -> Task:
        try:
            return self.tasks_by_id[task_id]
        except KeyError:
            raise SequenceError(f"unknown task id {task_id}") from None

    def station_positions(self) -> frozenset[str]:
        return self._station_pos

    def compiled(self) -> CompiledInstance:
        """The constructor's dense view, built by validation."""
        return self._compiled

    def min_battery_capacity(self) -> int:
        return min(u.battery_capacity for u in self.uavs)

    def validate(self):
        """Raise InstanceError at the first broken invariant (the
        `validate_precedence` findings at once), then build the view."""
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
        work = set(m.work_positions())
        for t in self.tasks:
            if t.start_pos not in work:
                m.position(t.start_pos)     # an unknown id raises first
                raise InstanceError(
                    f"task {t.id} starts at non-work position {t.start_pos!r}")
            if t.end_pos not in work:
                m.position(t.end_pos)
                raise InstanceError(
                    f"task {t.id} ends at non-work position {t.end_pos!r}")
            if t.proc_time <= 0:
                raise InstanceError(f"task {t.id} has non-positive proc_time")
            if t.start_pos != t.end_pos and t.type != TaskType.MATERIAL_HANDLING:
                raise InstanceError(
                    f"inspection task {t.id} must start and end at one position")
        problems, _, task_index, preds, succs = _check_precedence(
            [(t.id, t.predecessors) for t in self.tasks])
        if problems:
            raise InstanceError("; ".join(problems))
        worst_in, nearest_leg = position_tables(m, self.stations)
        dense = [None] * len(self.tasks)
        if self.tasks:
            if not self.uavs:
                raise InstanceError("instance has tasks but no UAVs")
            if not self.stations:
                raise InstanceError("instance has tasks but no recharge stations")
            cap = self.min_battery_capacity()
            for t in self.tasks:    # declaration order: the first to fail
                start, end = m.index[t.start_pos], m.index[t.end_pos]
                escape = nearest_leg[end]
                bound = worst_in[start] + t.proc_time + escape
                if bound > cap:
                    raise InstanceError(
                        f"task {t.id} cannot fit any battery window: "
                        f"worst-case airborne time {bound} > capacity {cap}")
                dense[task_index[t.id]] = (start, end, t.proc_time, escape)
        self._compiled = CompiledInstance(
            position_ids=tuple(p.id for p in m.positions),
            seconds=m.seconds,
            is_station=tuple(p.id in self._station_pos for p in m.positions),
            station_pos=tuple(m.index[s.pos] for s in self.stations),
            station_slots=tuple(s.slots for s in self.stations),
            nearest_leg=nearest_leg,
            tasks=tuple(dense),
            task_index=task_index,
            task_preds=preds,
            task_succs=succs,
            uav_ids=tuple(u.id for u in self.uavs),
            uav_start=tuple(m.index[u.initial_pos] for u in self.uavs),
            uav_capacity=tuple(u.battery_capacity for u in self.uavs),
            uav_recharge=tuple(u.recharge_duration for u in self.uavs),
            stranded=max((k for k, u in enumerate(self.uavs)
                          if nearest_leg[m.index[u.initial_pos]]
                          > u.battery_capacity), default=-1),
        )


def position_tables(trajectory_map: TrajectoryMap, stations
                    ) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Per position of the map: the longest flight into it (its row's
    max) and the flight from it to the nearest station (the stations'
    rows' element-wise min, the matrix being symmetric), inf if none."""
    m = trajectory_map
    rows = [m.seconds[m._at(s.pos)] for s in stations]
    return (tuple(map(max, m.seconds)),
            tuple(map(min, zip(*rows))) if rows
            else (float("inf"),) * len(m.positions))


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
        """The timelines' UAV ids in fleet order, then any others sorted."""
        ordered = [u.id for u in self.instance.uavs if u.id in self.actions]
        known = set(ordered)
        return ordered + sorted(u for u in self.actions if u not in known)

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
