"""Randomized instances of the bundled lab.

Tasks are drawn from three equally likely families: single inspections
of 20-80 s, compound inspections of 100-200 s, and material handling
whose duration is a 60 s handling overhead plus the carry flight; with
these bands each family's type is `infer_task_type`'s. Every draw fits
a fresh UAV of the default battery from any position of the bundled
map: the longest, material handling out of the farthest position,
needs 872 s airborne against 1200 s, so no draw is resampled
(`tests/test_datagen.py` pins that bound). Precedence edges run from
lower to higher ids and are transitively reduced. The bundled map, and
the stations and UAVs of each distinct bay count and fleet size, are
built once per process; the instances that use them share those
read-only objects.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass

from ._draws import stream
from .model import (
    _COMPOUND,
    _MATERIAL,
    _SINGLE,
    PositionKind,
    ProblemInstance,
    RechargeStation,
    SchedulingError,
    Task,
    Uav,
    _closure,
    exact_int,
)
from .sampledata import sample_map

_SINGLE_BAND = (20, 80)         # processing seconds, both ends drawn
_COMPOUND_BAND = (100, 200)
_HANDLING_S = 60                # material handling's overhead on the flight
_FAMILIES = (_SINGLE, _COMPOUND, _MATERIAL)
# the table `Generator.choice(3, p=[1/3] * 3)` searches: bisect_right of
# a `random()` in it draws what that call draws
_FAMILY_CDF = (1 / 3, 2 / 3, 1.0)

# the bundled map, built and checked once: read-only, so instances share it
_bundled_map = functools.cache(sample_map)


class GenerationError(SchedulingError):
    """The generation spec cannot be satisfied."""


@dataclass(frozen=True)
class GenSpec:
    """Size, seed and fleet of one generated instance; frozen, so a
    derived spec (`dataclasses.replace`) is checked again."""

    n_tasks: int
    seed: int = 0
    max_predecessors: int = 2
    n_uavs: int = 3
    slots_per_station: int = 1

    def __post_init__(self):
        for field in ("n_tasks", "seed", "max_predecessors", "n_uavs",
                      "slots_per_station"):
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
        if self.n_uavs < 1:
            raise GenerationError("need at least one uav")


@functools.cache
def _lab(slots: int, n_uavs: int):
    """The bundled map, its work positions, one station per recharge
    position and the fleet placed round robin over the stations."""
    fm = _bundled_map()
    stations = tuple(RechargeStation(p.id, slots) for p in fm.positions
                     if p.kind != PositionKind.WORK)
    uavs = tuple(Uav(f"UAV{i + 1}", stations[i % len(stations)].pos)
                 for i in range(n_uavs))
    return fm, tuple(fm.work_positions()), stations, uavs


def _draw_task(fm, work: tuple[str, ...], rng):
    """(type, start, end, proc_time) of one draw."""
    kind = _FAMILIES[bisect_right(_FAMILY_CDF, rng.random())]
    if kind is _MATERIAL:
        i, j = rng.choice(len(work), 2)
        start, end = work[i], work[j]
        return kind, start, end, _HANDLING_S + fm.flight_time(start, end)
    lo, hi = _SINGLE_BAND if kind is _SINGLE else _COMPOUND_BAND
    start = work[rng.integers(0, len(work))]
    return kind, start, start, rng.integers(lo, hi + 1)


def generate_instance(spec: GenSpec) -> ProblemInstance:
    """Build a random valid instance of the bundled lab from the spec.

    The same spec (seed included) gives an identical instance, named
    `gen-{n_tasks}t-s{seed}`.
    """
    fm, work, stations, uavs = _lab(spec.slots_per_station, spec.n_uavs)
    rng = stream(spec.seed)
    drawn = [_draw_task(fm, work, rng) for _ in range(spec.n_tasks)]

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

    return ProblemInstance(trajectory_map=fm, stations=stations, tasks=tasks,
                           uavs=uavs, name=f"gen-{spec.n_tasks}t-s{spec.seed}")
