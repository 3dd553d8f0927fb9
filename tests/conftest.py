from functools import cache

import pytest
from hypothesis import strategies as st

from uavsched.model import (
    Action,
    ActionKind,
    Position,
    PositionKind,
    ProblemInstance,
    RechargeStation,
    Schedule,
    Task,
    TaskType,
    TrajectoryMap,
    Uav,
)
from uavsched.sampledata import sample_instance

# Seven-step reference timeline on the bundled 12-task instance:
# (task, uav, exec start). Frozen by hand from the step-by-step
# construction; the schedule builder must reproduce it exactly.
GOLDEN_PREFIX = [3, 2, 1, 4, 6, 5, 7]
GOLDEN_ASSIGNMENTS = [
    (3, "UAV3", 40),
    (2, "UAV1", 60),
    (1, "UAV2", 260),
    (4, "UAV1", 533),
    (6, "UAV2", 759),
    (5, "UAV3", 890),
    (7, "UAV1", 3883),
]
GOLDEN_PREFIX_MAKESPAN = 4361
FULL_COMPLETION = [3, 2, 1, 4, 6, 5, 7, 12, 8, 9, 10, 11]
FULL_COMPLETION_MAKESPAN = 4963

_F, _T, _H, _W, _R = (ActionKind.FLIGHT, ActionKind.TASK_EXEC,
                      ActionKind.HOVER, ActionKind.WAIT_ON_GROUND,
                      ActionKind.RECHARGE)
# Action kinds during which the UAV is airborne and consuming battery.
AIRBORNE_KINDS = frozenset({_F, _T, _H})

# Full action-level expansion of the seven-step timeline, frozen by
# hand. Tuples: (kind, start, end, from, to, task_id).
GOLDEN_TIMELINE = {
    "UAV1": [
        (_F, 0, 60, "R1", "c", None),
        (_T, 60, 305, "c", "c", 2),
        (_F, 305, 533, "c", "e", None),
        (_T, 533, 1083, "e", "b", 4),
        (_F, 1083, 1143, "b", "R1", None),
        (_R, 1143, 3843, "R1", "R1", None),
        (_F, 3843, 3883, "R1", "a", None),
        (_T, 3883, 4361, "a", "e", 7),
    ],
    "UAV2": [
        (_F, 0, 260, "R1", "e", None),
        (_T, 260, 503, "e", "f", 1),
        (_F, 503, 625, "f", "d", None),
        (_H, 625, 759, "d", "d", None),
        (_T, 759, 1000, "d", "d", 6),
    ],
    "UAV3": [
        (_F, 0, 40, "R2", "d", None),
        (_T, 40, 759, "d", "a", 3),
        (_F, 759, 890, "a", "c", None),
        (_T, 890, 1125, "c", "c", 5),
    ],
}


def golden_schedule(instance: ProblemInstance) -> Schedule:
    """The frozen prefix timeline materialized as Action objects."""
    actions = {u.id: [] for u in instance.uavs}
    for uav_id, rows in GOLDEN_TIMELINE.items():
        for kind, start, end, src, dst, task_id in rows:
            actions[uav_id].append(Action(kind, start, end, src, dst,
                                          task_id=task_id))
    return Schedule(instance=instance, actions=actions)


@pytest.fixture(scope="session")
def lab() -> ProblemInstance:
    instance = sample_instance()
    instance.validate()
    return instance


SMALL_MAP = TrajectoryMap(
    (Position("a"), Position("b"),
     Position("R1", PositionKind.RECHARGE),
     Position("R2", PositionKind.RECHARGE)),
    ((0, 30, 20, 40),
     (30, 0, 40, 20),
     (20, 40, 0, 50),
     (40, 20, 50, 0)),
)


def make_instance(tasks, n_uavs=2, slots=1, battery=1200, recharge=2700,
                  name="tiny") -> ProblemInstance:
    """Small two-work-position environment for focused unit tests."""
    stations = (RechargeStation("R1", slots), RechargeStation("R2", slots))
    uavs = tuple(Uav(f"UAV{i + 1}", "R1" if i % 2 == 0 else "R2",
                     battery, recharge) for i in range(n_uavs))
    return ProblemInstance(trajectory_map=SMALL_MAP, stations=stations,
                           tasks=tuple(tasks), uavs=uavs, name=name)


def inspect(tid, pos, proc, preds=(), kind=TaskType.SINGLE_INSPECTION):
    return Task(tid, kind, pos, pos, proc, tuple(preds))


def haul(tid, start, end, proc, preds=()):
    return Task(tid, TaskType.MATERIAL_HANDLING, start, end, proc,
                tuple(preds))


# Reference initial-population table for the bundled 12-task instance.
TABLE_ROWS = {
    "max_positional_weight": [1, 2, 4, 6, 5, 8, 3, 7, 10, 9, 11, 12],
    "min_inverse_positional_weight": [1, 2, 3, 4, 5, 6, 7, 12, 9, 8, 10, 11],
    "min_total_predecessors": [1, 2, 3, 4, 5, 6, 7, 9, 12, 8, 10, 11],
    "max_total_followers": [1, 2, 4, 5, 6, 8, 3, 7, 10, 9, 11, 12],
    "max_proc_time": [3, 2, 1, 4, 7, 9, 6, 12, 5, 8, 10, 11],
    "min_proc_time": [1, 2, 5, 6, 4, 8, 10, 11, 7, 9, 3, 12],
    "min_cumulative_predecessors": [1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11, 12],
    "max_cumulative_followers": [2, 6, 1, 4, 3, 5, 7, 8, 10, 9, 11, 12],
}


# Ids that a CSV cell must quote or an SVG text must escape, and
# non-ASCII ones.
AWKWARD_TEXT = st.text(alphabet='aZ1 ,"\n\r&<>é電', min_size=1, max_size=4)
# A makespan the plot width (980) divides or is divided by, so that
# x = 70 + start * scale or its width often ends in 0 before trimming.
ROUND_SPANS = (98, 245, 490, 980, 1960, 3920, 9800)


@cache
def _bundled():
    return sample_instance()


@st.composite
def drawn_schedules(draw) -> Schedule:
    """Schedules on the bundled instance for the writers: awkward UAV
    and position ids (some UAVs the instance does not know, some lanes
    empty), zero-length and tiny actions (the Gantt chart's 0.5 width
    floor), task bars either side of its 14-unit label cut-off, and
    often a last hover that pads the makespan to one of ROUND_SPANS."""
    inst = _bundled()
    names = draw(st.lists(AWKWARD_TEXT, min_size=1, max_size=4))
    uav_ids = draw(st.lists(AWKWARD_TEXT | st.sampled_from(
        [u.id for u in inst.uavs]), min_size=1, max_size=4, unique=True))
    actions = {}
    for uav_id in uav_ids:
        t = draw(st.integers(0, 50))
        lane = actions[uav_id] = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(list(ActionKind)))
            length = draw(st.integers(0, 60)
                          | st.sampled_from([1, 2, 7, 13, 14, 28]))
            lane.append(Action(kind, t, t + length,
                               draw(st.sampled_from(names)),
                               draw(st.sampled_from(names)),
                               task_id=draw(st.none() | st.integers(0, 10**4))))
            t += length
    span = draw(st.none() | st.sampled_from(ROUND_SPANS))
    lanes = [lane for lane in actions.values() if lane]
    if span is not None and lanes:
        last = max(lanes, key=lambda lane: lane[-1].end)
        end, pos = last[-1].end, last[-1].to_pos
        if end < span:
            last.append(Action(ActionKind.HOVER, end, span, pos, pos))
    return Schedule(instance=inst, actions=actions)
