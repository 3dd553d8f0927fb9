"""Randomized instance generation with feasibility guarantees.

Tasks are drawn from three families: quick single inspections, longer
compound inspections, and material handling whose duration is a fixed
handling overhead plus the carry flight. A family only picks what is
drawn; each task's type is `infer_task_type` of the draw. Every
generated task must fit the tightest battery window in the fleet no
matter where the assigned UAV comes from; draws that cannot are
resampled. Precedence edges run from lower to higher ids and are
transitively reduced. The bundled map, the default stations and UAVs
and the type table are built once per process and distinct arguments;
the instances that use them share those read-only objects.
"""

from __future__ import annotations

import functools
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from ._draws import stream
from .model import (
    _COMPOUND,
    _MATERIAL,
    _SINGLE,
    InstanceError,
    PositionKind,
    ProblemInstance,
    RechargeStation,
    SchedulingError,
    Task,
    TrajectoryMap,
    Uav,
    _closure,
    exact_int,
    infer_task_type,
    position_tables,
)
from .sampledata import sample_map

MAX_RESAMPLE_ATTEMPTS = 1000

# the bundled map, built and checked once, and the default stations and
# UAVs, one per distinct fields: read-only, so instances share them
_bundled_map = functools.cache(sample_map)
_station, _uav = functools.cache(RechargeStation), functools.cache(Uav)


class GenerationError(SchedulingError):
    """The generation spec cannot be satisfied."""


@dataclass(frozen=True)
class GenSpec:
    """Knobs for one generated instance; frozen, so a derived spec
    (`dataclasses.replace`) is checked again."""

    n_tasks: int
    seed: int = 0
    max_predecessors: int = 2
    # draw weights of (single_band, compound_band, material handling);
    # a task's type is infer_task_type of its draw, so a band that
    # crosses 80 s gives tasks of the other inspection type
    type_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    single_band: tuple[int, int] = (20, 80)
    compound_band: tuple[int, int] = (100, 200)
    material_handling_base: int = 60
    n_uavs: int = 3
    slots_per_station: int = 1
    name: str | None = None

    def __post_init__(self):
        for field in ("n_tasks", "seed", "max_predecessors", "n_uavs",
                      "slots_per_station", "material_handling_base"):
            value = exact_int(getattr(self, field))
            if value is None:
                raise GenerationError(f"{field} must be an integer")
            object.__setattr__(self, field, value)
        for field in ("n_tasks", "seed"):
            if getattr(self, field) < 0:
                raise GenerationError(f"{field} must be non-negative")
        # a draw's range stays inside numpy's int64 `integers`, whose
        # values the draw stream reproduces
        if not 0 <= self.max_predecessors < 2 ** 63:
            raise GenerationError("max_predecessors must be non-negative "
                                  "and below 2**63")
        for field in ("single_band", "compound_band"):
            band = getattr(self, field)
            try:    # not a pair raises
                lo, hi = map(exact_int, band)
            except (TypeError, ValueError):
                lo = hi = None
            if lo is None or hi is None or not 0 < lo <= hi < 2 ** 63:
                raise GenerationError(
                    f"bad processing band {band!r}: need two integers "
                    f"0 < low <= high < 2**63")
            object.__setattr__(self, field, (lo, hi))
        try:    # a non-number reads as NaN; 10**400 raises
            w = tuple(float(x) if isinstance(x, numbers.Real) else math.nan
                      for x in self.type_weights)
        except (TypeError, OverflowError):
            w = ()
        # a NaN fails min or sum, an inf the sum
        if len(w) != 3 or not (min(w) >= 0 and 0 < sum(w) < math.inf):
            raise GenerationError("type weights must be three finite "
                                  "non-negative numbers, not all zero")
        object.__setattr__(self, "type_weights", w)
        if self.n_uavs < 1:
            raise GenerationError("need at least one uav")


_TYPES = (_SINGLE, _COMPOUND, _MATERIAL)


@functools.cache
def _type_cdf(weights: tuple[float, float, float]) -> tuple[float, ...]:
    """The table `Generator.choice(3, p=w / w.sum())` searches, w the
    weights as an array: bisect_right of a `random()` in it draws that.
    Added left to right as numpy adds, not by `sum()`, which compensates
    from Python 3.12."""
    total = weights[0] + weights[1] + weights[2]
    cdf = list(accumulate(w / total for w in weights))
    return tuple(x / cdf[-1] for x in cdf)


def _draw_task(tid: int, spec: GenSpec, fm: TrajectoryMap, worst_in,
               nearest_leg, capacity: int, work: list[str], cdf, rng):
    """(type, start, end, proc_time) of the first draw that a fresh UAV
    can fly from the farthest position, escape flight included; the
    type is `infer_task_type`'s."""
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        kind = _TYPES[bisect_right(cdf, rng.random())]
        if kind is _MATERIAL:
            i, j = rng.choice(len(work), 2)
            start, end = work[i], work[j]
            proc = spec.material_handling_base + fm.flight_time(start, end)
        else:
            start = end = work[rng.integers(0, len(work))]
            lo, hi = (spec.single_band if kind is _SINGLE
                      else spec.compound_band)
            proc = rng.integers(lo, hi + 1)
        if (worst_in[fm.index[start]] + proc
                + nearest_leg[fm.index[end]] <= capacity):
            return infer_task_type(start, end, proc), start, end, proc
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
    robin over the stations. Instances share these default objects; an
    explicit map, stations or fleet is used as given.
    """
    fm = _bundled_map() if trajectory_map is None else trajectory_map
    work = fm.work_positions()
    if not work:
        raise GenerationError("trajectory map has no work positions")
    if stations is None:
        recharge = [p.id for p in fm.positions if p.kind != PositionKind.WORK]
        if not recharge:
            raise GenerationError("trajectory map has no recharge positions")
        stations = tuple(_station(pos, spec.slots_per_station)
                         for pos in recharge)
    if uavs is None:
        if not stations:
            raise GenerationError("no recharge stations to place the "
                                  "fleet at")
        uavs = tuple(
            _uav(f"UAV{i + 1}", stations[i % len(stations)].pos)
            for i in range(spec.n_uavs))
    uavs = tuple(uavs)
    if not uavs:
        raise GenerationError("need at least one uav")
    capacity = min(u.battery_capacity for u in uavs)

    weights = spec.type_weights
    if len(work) < 2:
        weights = (*weights[:2], 0.0)
        if sum(weights) <= 0:
            raise GenerationError(
                "material handling needs at least two work positions")
    cdf = _type_cdf(weights)
    if spec.n_tasks and not stations:
        raise InstanceError("no recharge stations configured")
    worst_in, nearest_leg = position_tables(fm, stations)

    rng = stream(spec.seed)
    drawn = [_draw_task(tid, spec, fm, worst_in, nearest_leg, capacity, work,
                        cdf, rng) for tid in range(1, spec.n_tasks + 1)]

    preds_of = dict.fromkeys(range(1, spec.n_tasks + 1), ())
    for tid in range(2, spec.n_tasks + 1) if spec.max_predecessors else ():
        k = min(rng.integers(0, spec.max_predecessors + 1), tid - 1)
        if k:   # k distinct ids below tid
            preds_of[tid] = tuple(p + 1 for p in rng.choice(tid - 1, k))
    # ids ascend topologically; p -> tid is redundant when p is an
    # ancestor of another predecessor of tid, so never when it is alone
    ancestors = _closure(preds_of, preds_of)
    tasks = tuple(
        Task(tid, kind, start, end, proc,
             [p for p in ps if not any(p in ancestors[q] for q in ps)]
             if len(ps) > 1 else ps)
        for (tid, ps), (kind, start, end, proc)
        in zip(preds_of.items(), drawn))

    name = spec.name or f"gen-{spec.n_tasks}t-s{spec.seed}"
    return ProblemInstance(trajectory_map=fm, stations=tuple(stations),
                           tasks=tasks, uavs=uavs, name=name)
