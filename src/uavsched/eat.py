"""Earliest-available-time list scheduler.

Walks a task sequence once. For each task it computes the earliest
timestamp every UAV could begin executing it, inserting a recharge leg
when the remaining battery cannot cover the engagement plus the escape
flight to the nearest station, and hands the task to the UAV that can
start first. Waiting before an occupied or not-yet-released position is
spent hovering in the air, except when the UAV sits at a recharge
station, where it waits on the ground instead and conserves battery.
"""

from __future__ import annotations

import heapq

from .model import (
    Action,
    ActionKind,
    ProblemInstance,
    Schedule,
    SchedulingError,
    SequenceError,
    exact_int,
)

_FLIGHT, _EXEC, _HOVER, _WAIT, _RECHARGE = (
    ActionKind.FLIGHT, ActionKind.TASK_EXEC, ActionKind.HOVER,
    ActionKind.WAIT_ON_GROUND, ActionKind.RECHARGE)


def _task_ids(sequence) -> list[int]:
    """The sequence's items as task ids by `exact_int` (3.0 is 3); a
    boolean or a non-integral item raises SequenceError naming it."""
    items = list(sequence)
    seq = [exact_int(t) for t in items]
    if None in seq:
        raise SequenceError(
            f"task id {items[seq.index(None)]!r} is not an integer")
    return seq


def check_sequence(instance: ProblemInstance, sequence) -> list[int]:
    """Reject non-integer, duplicate and unknown ids and precedence
    breaks up front."""
    seq = _task_ids(sequence)
    seen: set[int] = set()
    for tid in seq:
        task = instance.task(tid)
        if tid in seen:
            raise SequenceError(f"task {tid} appears twice in the sequence")
        for p in task.predecessors:
            if p not in seen:
                raise SequenceError(
                    f"task {tid} is sequenced before its predecessor {p}")
        seen.add(tid)
    return seq


def build_schedule(instance: ProblemInstance, sequence) -> Schedule:
    """Construct the full timeline for a precedence-feasible sequence.

    The sequence may be a prefix-closed subset of the task set (every
    listed task's predecessors must appear earlier in it); a permutation
    of all task ids yields a complete schedule.
    """
    placed: list[tuple[int, ...]] = []
    _construct(instance, _dense_sequence(instance, sequence), placed)
    return _timeline(instance, placed)


def _dense_sequence(instance: ProblemInstance, sequence) -> list[int]:
    """The sequence, checked by check_sequence, as the compiled view's
    dense indices."""
    index = instance.compiled().task_index
    return [index[t] for t in check_sequence(instance, sequence)]


def _construct(instance: ProblemInstance, dense, placed=None) -> int:
    """The one EAT decision procedure, on the instance's compiled view.

    dense lists distinct dense task indices (`compiled().task_index`),
    each after its predecessors, as `_dense_sequence` gives them; the
    walk does not check this. Per task:
    the availability is the later of both endpoint releases and every
    predecessor's end. Each UAV, in fleet order, offers its arrival
    floored at the availability when the battery covers the flight, any
    hover (ground waits at a station are free), the execution and the
    escape flight; otherwise it offers the earliest start after a
    recharge detour through a station it can still reach (ties keep
    station order). The earliest offer wins; ties keep fleet order. A
    recharge holds the station's earliest-free bay until departure.

    A recharge offer starts no earlier than the availability or the end
    of a recharge begun at once, whichever is later; when that bound
    cannot beat the best offer so far and some station is in reach, the
    station loop is skipped. Once an offer equals the availability,
    later UAVs can only tie, so the fleet loop stops there, unless a
    later UAV started out of every station's reach (the last such UAV
    is `compiled().stranded`): it is still evaluated, so a recharge it
    cannot make still raises. (Only such a UAV can be out of reach, and
    only before its first task, since every offer keeps the escape
    flight.)

    A station's bays are a count of bays never used, free from 0, and a
    min-heap of the release times of the used ones, so memory follows
    the recharges made, not the slot count.

    Returns the makespan. A list given as placed gets one tuple per
    task, (task, uav, position, ready, station, begin, start): the dense
    task, the winner's fleet index, position and ready time before it,
    its detour's station and recharge begin (-1, -1 without one), and
    the start; `_timeline` turns them into the Schedule.
    """
    view = instance.compiled()
    secs, names, nearest = view.seconds, view.position_ids, view.nearest_leg
    tasks, preds = view.tasks, view.task_preds
    is_station, station_pos = view.is_station, view.station_pos
    caps, durations = view.uav_capacity, view.uav_recharge
    left = list(caps)                   # battery seconds left
    unused = list(view.station_slots)   # per station: bays never used
    bays = [[] for _ in unused]         # per station: heap of used releases
    bay_free = [0] * len(unused)        # earliest bay release per station
    release = [0] * len(names)          # per position
    pos = list(view.uav_start)
    ready = [0] * len(pos)
    fleet = range(len(pos))
    stations, stranded = view.stations, view.stranded
    ends = [0] * len(tasks)
    for d in dense:
        s, e, proc, escape = tasks[d]
        need = proc + escape
        at = release[s] if release[s] > release[e] else release[e]
        for p in preds[d]:
            if ends[p] > at:
                at = ends[p]
        best = -1
        col = secs[s]                   # symmetric: col[p] is p -> s
        for k in fleet:
            here, t0, room = pos[k], ready[k], left[k]
            ft = col[here]
            start = t0 + ft
            if start < at:
                start = at
            airborne = ft if is_station[here] else start - t0
            station = -1
            if airborne + need > room:
                dur = durations[k]
                start = t0 + dur        # no recharge offer starts earlier
                if start < at:
                    start = at
                if best >= 0 and start >= best_start and \
                        nearest[here] <= room:
                    continue            # cannot win; a station is in reach
                for j, out in stations:
                    leg = out[here]
                    if leg > room:
                        continue
                    charge = t0 + leg
                    begin = bay_free[j] if bay_free[j] > charge else charge
                    prepared = begin + dur + out[s]
                    if prepared < at:
                        prepared = at
                    if station < 0 or prepared < start:
                        station, start = j, prepared
                if station < 0:
                    raise SchedulingError(
                        f"uav {view.uav_ids[k]} cannot reach any recharge "
                        f"station from {names[here]} with "
                        f"{caps[k] - room}s used")
            if best < 0 or start < best_start:
                best, best_start, best_station = k, start, station
                if start == at and k >= stranded:
                    break               # later UAVs can only tie

        k, start, j = best, best_start, best_station
        here, t0 = pos[k], ready[k]
        if j >= 0:
            sp = station_pos[j]
            charge = t0 + secs[here][sp]
            begin = bay_free[j] if bay_free[j] > charge else charge
            out = secs[sp][s]
            b = bays[j]
            if unused[j]:
                unused[j] -= 1
                heapq.heappush(b, start - out)
            else:
                heapq.heapreplace(b, start - out)
            bay_free[j] = 0 if unused[j] else b[0]
            left[k] = caps[k] - out
        else:
            begin = -1
            left[k] -= secs[here][s] if is_station[here] else start - t0
        if placed is not None:
            placed.append((d, k, here, t0, j, begin, start))
        end = start + proc
        left[k] -= proc
        if left[k] < 0:
            raise SchedulingError(
                f"internal accounting error: uav {view.uav_ids[k]} over budget")
        pos[k], ready[k] = e, end
        if end > release[s]:
            release[s] = end
        if end > release[e]:
            release[e] = end
        ends[d] = end
    return max(ready, default=0)


def _timeline(instance: ProblemInstance, placed) -> Schedule:
    """The Schedule of `_construct`'s placements: per task, a recharge
    detour if any, then the ground wait and flight out of a station or
    the flight and hover from elsewhere, then the execution."""
    view = instance.compiled()
    secs, names, tasks = view.seconds, view.position_ids, view.tasks
    ids = list(view.task_index)
    timelines = [[] for _ in view.uav_ids]
    for d, k, here, t0, j, begin, start in placed:
        s, e, proc, _ = tasks[d]
        acts = timelines[k]
        if j >= 0:
            sp = view.station_pos[j]
            st = names[sp]
            charge = t0 + secs[here][sp]
            if charge > t0:
                acts.append(Action(_FLIGHT, t0, charge, names[here], st))
            if begin > charge:
                acts.append(Action(_WAIT, charge, begin, st, st, station=st))
            here, t0 = sp, begin + view.uav_recharge[k]
            acts.append(Action(_RECHARGE, begin, t0, st, st, station=st))
        if view.is_station[here]:
            st = names[here]
            depart = start - secs[here][s]
            if depart > t0:
                acts.append(Action(_WAIT, t0, depart, st, st, station=st))
            if depart < start:
                acts.append(Action(_FLIGHT, depart, start, st, names[s]))
        else:
            arrival = t0 + secs[here][s]
            if arrival > t0:
                acts.append(Action(_FLIGHT, t0, arrival, names[here],
                                   names[s]))
            if arrival < start:
                acts.append(Action(_HOVER, arrival, start, names[s],
                                   names[s]))
        acts.append(Action(_EXEC, start, start + proc, names[s], names[e],
                           task_id=ids[d]))
    return Schedule(instance=instance,
                    actions=dict(zip(view.uav_ids, timelines)))
