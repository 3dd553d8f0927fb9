"""Bundled laboratory example: six work positions, two stations, 12 tasks.

This is the small indoor scenario used throughout the tests and demos.
Flight times are symmetric seconds between the six work positions a-f and
the two recharge stations R1/R2. The fleet is three identical UAVs that
begin fully charged: two parked at R1, one at R2.
"""

from __future__ import annotations

from .model import (
    Position,
    PositionKind,
    ProblemInstance,
    RechargeStation,
    Task,
    TrajectoryMap,
    Uav,
    infer_task_type,
)

SAMPLE_POSITIONS = [
    Position("a"), Position("b"), Position("c"),
    Position("d"), Position("e"), Position("f"),
    Position("R1", PositionKind.RECHARGE),
    Position("R2", PositionKind.RECHARGE),
]

SAMPLE_FLIGHT_SECONDS = [
    [0, 108, 131, 222, 376, 353, 40, 160],
    [108, 0, 120, 241, 347, 371, 60, 160],
    [131, 120, 0, 127, 228, 254, 60, 60],
    [222, 241, 127, 0, 116, 122, 160, 40],
    [376, 347, 228, 116, 0, 123, 260, 60],
    [353, 371, 254, 122, 123, 0, 260, 60],
    [40, 60, 60, 160, 260, 260, 0, 120],
    [160, 160, 60, 40, 60, 60, 120, 0],
]

# (id, start, end, proc_time, predecessors)
SAMPLE_TASK_ROWS = [
    (1, "e", "f", 243, ()),
    (2, "c", "c", 245, ()),
    (3, "d", "a", 719, ()),
    (4, "e", "b", 550, (1,)),
    (5, "c", "c", 235, (2,)),
    (6, "d", "d", 241, (2,)),
    (7, "a", "e", 478, (4,)),
    (8, "b", "c", 304, (4, 5)),
    (9, "e", "e", 395, (7,)),
    (10, "c", "f", 344, (6, 8)),
    (11, "f", "f", 270, (10,)),
    (12, "a", "d", 514, (3, 6)),
]


def sample_map() -> TrajectoryMap:
    return TrajectoryMap(SAMPLE_POSITIONS, SAMPLE_FLIGHT_SECONDS)


def sample_tasks() -> tuple[Task, ...]:
    return tuple(
        Task(tid, infer_task_type(s, e, p), s, e, p, preds)
        for tid, s, e, p, preds in SAMPLE_TASK_ROWS)


def sample_stations() -> tuple[RechargeStation, ...]:
    # Two bays each: the example's full 12-task timeline needs concurrent
    # recharging to finish in 4963 seconds.
    return (RechargeStation("R1", slots=2), RechargeStation("R2", slots=2))


def sample_fleet() -> tuple[Uav, ...]:
    return (Uav("UAV1", "R1"), Uav("UAV2", "R1"), Uav("UAV3", "R2"))


def sample_instance() -> ProblemInstance:
    return ProblemInstance(
        trajectory_map=sample_map(),
        stations=sample_stations(),
        tasks=sample_tasks(),
        uavs=sample_fleet(),
        name="lab-12",
    )
