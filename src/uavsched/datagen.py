"""Randomized instance generation with feasibility guarantees.

Tasks are drawn from three families: quick single inspections, longer
compound inspections, and material handling whose duration is a fixed
handling overhead plus the carry flight. Every generated task must fit
the tightest battery window in the fleet no matter where the assigned
UAV comes from; draws that cannot are resampled. Precedence edges run
from lower to higher ids and are transitively reduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PrecedenceGraph,
    ProblemInstance,
    RechargeStation,
    SchedulingError,
    Task,
    TaskType,
    TrajectoryMap,
    Uav,
    validate_precedence,  # re-exported as uavsched.datagen.validate_precedence
    worst_case_engagement_time,
)
from .sampledata import sample_map

MAX_RESAMPLE_ATTEMPTS = 1000


class GenerationError(SchedulingError):
    """The generation spec cannot be satisfied."""


@dataclass
class GenSpec:
    """Knobs for one generated instance."""

    n_tasks: int
    seed: int = 0
    max_predecessors: int = 2
    # (single inspection, compound inspection, material handling)
    type_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    single_band: tuple[int, int] = (20, 80)
    compound_band: tuple[int, int] = (100, 200)
    material_handling_base: int = 60
    n_uavs: int = 3
    slots_per_station: int = 1
    name: str | None = None

    def __post_init__(self):
        if self.n_tasks < 0:
            raise GenerationError("n_tasks must be non-negative")
        if self.max_predecessors < 0:
            raise GenerationError("max_predecessors must be non-negative")
        for lo, hi in (self.single_band, self.compound_band):
            if not (0 < lo <= hi):
                raise GenerationError(f"bad processing band ({lo}, {hi})")
        if min(self.type_weights) < 0 or sum(self.type_weights) <= 0:
            raise GenerationError("type weights must be non-negative, not all zero")
        if self.n_uavs < 1:
            raise GenerationError("need at least one uav")


_TYPES = (TaskType.SINGLE_INSPECTION, TaskType.COMPOUND_INSPECTION,
          TaskType.MATERIAL_HANDLING)


def _draw_task(tid: int, spec: GenSpec, fm: TrajectoryMap, stations,
               capacity: int, work: list[str], weights, rng) -> Task:
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        kind = _TYPES[int(rng.choice(3, p=weights))]
        if kind == TaskType.MATERIAL_HANDLING:
            i, j = rng.choice(len(work), size=2, replace=False)
            start, end = work[int(i)], work[int(j)]
            proc = spec.material_handling_base + fm.flight_time(start, end)
        else:
            start = end = work[int(rng.integers(0, len(work)))]
            lo, hi = (spec.single_band if kind == TaskType.SINGLE_INSPECTION
                      else spec.compound_band)
            proc = int(rng.integers(lo, hi + 1))
        task = Task(tid, kind, start, end, proc)
        if worst_case_engagement_time(task, fm, stations) <= capacity:
            return task
    raise GenerationError(
        f"task {tid}: no draw fit the battery window after "
        f"{MAX_RESAMPLE_ATTEMPTS} attempts; bands exceed capacity {capacity}")


def generate_instance(spec: GenSpec,
                      trajectory_map: TrajectoryMap | None = None,
                      stations: tuple[RechargeStation, ...] | None = None,
                      uavs: tuple[Uav, ...] | None = None) -> ProblemInstance:
    """Build a random valid instance from the spec.

    Same spec (seed included) and environment give an identical
    instance. Without an explicit environment the bundled map is used,
    one station per recharge position, and the fleet is placed round
    robin over the stations.
    """
    fm = trajectory_map or sample_map()
    work = fm.work_positions()
    if not work:
        raise GenerationError("trajectory map has no work positions")
    if stations is None:
        recharge = [p.id for p in fm.positions if p.id not in set(work)]
        if not recharge:
            raise GenerationError("trajectory map has no recharge positions")
        stations = tuple(RechargeStation(pos, spec.slots_per_station)
                         for pos in recharge)
    if uavs is None:
        uavs = tuple(
            Uav(f"UAV{i + 1}", stations[i % len(stations)].pos)
            for i in range(spec.n_uavs))
    capacity = min(u.battery_capacity for u in uavs)

    weights = np.asarray(spec.type_weights, dtype=float)
    if len(work) < 2:
        weights = weights * np.array([1.0, 1.0, 0.0])
        if weights.sum() <= 0:
            raise GenerationError(
                "material handling needs at least two work positions")
    weights = weights / weights.sum()

    rng = np.random.default_rng(spec.seed)
    tasks = [_draw_task(tid, spec, fm, stations, capacity, work, weights, rng)
             for tid in range(1, spec.n_tasks + 1)]

    preds_of: dict[int, tuple[int, ...]] = {t.id: () for t in tasks}
    for task in tasks:
        lower = task.id - 1
        if lower == 0 or spec.max_predecessors == 0:
            continue
        k = int(rng.integers(0, spec.max_predecessors + 1))
        k = min(k, lower)
        if k == 0:
            continue
        preds = rng.choice(lower, size=k, replace=False) + 1
        preds_of[task.id] = tuple(preds.tolist())
    redundant = set(PrecedenceGraph(preds_of).redundant_edges())
    tasks = [Task(t.id, t.type, t.start_pos, t.end_pos, t.proc_time,
                  tuple(p for p in preds_of[t.id] if (p, t.id) not in redundant))
             for t in tasks]

    name = spec.name or f"gen-{spec.n_tasks}t-s{spec.seed}"
    return ProblemInstance(trajectory_map=fm, stations=tuple(stations),
                           tasks=tuple(tasks), uavs=tuple(uavs), name=name)
