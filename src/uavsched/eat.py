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

from .model import (
    Action,
    ActionKind,
    ProblemInstance,
    Schedule,
    SchedulingError,
    SequenceError,
)

_FLIGHT, _EXEC, _HOVER, _WAIT, _RECHARGE = (
    ActionKind.FLIGHT, ActionKind.TASK_EXEC, ActionKind.HOVER,
    ActionKind.WAIT_ON_GROUND, ActionKind.RECHARGE)


def check_sequence(instance: ProblemInstance, sequence) -> list[int]:
    """Reject duplicates, unknown ids and precedence breaks up front."""
    seq = [int(t) for t in sequence]
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
    return _construct(instance, sequence, True)


def build_makespan(instance: ProblemInstance, sequence) -> int:
    """Makespan of build_schedule(instance, sequence) without recording
    the timeline; 0 for an empty sequence."""
    return _construct(instance, sequence, False)


def _construct(instance: ProblemInstance, sequence, record: bool):
    """The one EAT decision procedure, on the instance's compiled view.

    Per task: the availability is the later of both endpoint releases and
    every predecessor's end. Each UAV, in fleet order, offers its arrival
    floored at the availability when the battery covers the flight, any
    hover (ground waits at a station are free), the execution and the
    escape flight; otherwise it offers the earliest start after a
    recharge detour through a station it can still reach (ties keep
    station order). The earliest offer wins; ties keep fleet order. A
    recharge holds the station's earliest-free bay until departure.

    A recharge offer starts no earlier than the availability or the end
    of a recharge begun at once, whichever is later; when that bound
    cannot beat the best offer so far and some station is in reach, the
    station loop is skipped.

    The walk only notices a malformed sequence (an unknown id or a
    missing predecessor, a repeated id at the end); check_sequence then
    names the first offending task, so errors are those of checking the
    sequence up front.

    Returns the Schedule when record is true, else the makespan.
    """
    seq = [int(t) for t in sequence]
    view = instance.compiled()
    secs, names, tasks = view.seconds, view.position_ids, view.tasks
    is_station, station_pos = view.is_station, view.station_pos
    nearest = view.nearest_leg
    caps, durations = view.uav_capacity, view.uav_recharge
    left = list(caps)                   # battery seconds left
    bays = [[0] * n for n in view.station_slots]
    bay_free = [0] * len(bays)          # earliest bay release per station
    release = [0] * len(names)          # per position
    pos = list(view.uav_start)
    ready = [0] * len(pos)
    fleet = range(len(pos))
    stations = tuple((j, sp, secs[sp]) for j, sp in enumerate(station_pos))
    timelines = [[] for _ in fleet]
    ends: dict[int, int] = {}
    for tid in seq:
        try:
            s, e, proc, escape, preds = tasks[tid]
            need = proc + escape
            at = release[s] if release[s] > release[e] else release[e]
            for p in preds:
                if ends[p] > at:
                    at = ends[p]
        except KeyError:
            check_sequence(instance, seq)
            raise
        best = -1
        for k in fleet:
            here, t0, room = pos[k], ready[k], left[k]
            row = secs[here]
            ft = row[s]
            start = t0 + ft if t0 + ft > at else at
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
                for j, sp, out in stations:
                    leg = row[sp]
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
                    check_sequence(instance, seq)
                    raise SchedulingError(
                        f"uav {view.uav_ids[k]} cannot reach any recharge "
                        f"station from {names[here]} with "
                        f"{caps[k] - room}s used")
            if best < 0 or start < best_start:
                best, best_start, best_station = k, start, station

        k, start = best, best_start
        here, t0 = pos[k], ready[k]
        acts = timelines[k]
        if best_station >= 0:
            j = best_station
            sp = station_pos[j]
            charge = t0 + secs[here][sp]
            begin = bay_free[j] if bay_free[j] > charge else charge
            done = begin + durations[k]
            out = secs[sp][s]
            depart = start - out
            if record:
                st = names[sp]
                if charge > t0:
                    acts.append(Action(_FLIGHT, t0, charge, names[here], st))
                if begin > charge:
                    acts.append(Action(_WAIT, charge, begin, st, st, station=st))
                acts.append(Action(_RECHARGE, begin, done, st, st, station=st))
                if depart > done:
                    acts.append(Action(_WAIT, done, depart, st, st, station=st))
                if out:
                    acts.append(Action(_FLIGHT, depart, start, st, names[s]))
            b = bays[j]
            b[b.index(bay_free[j])] = depart
            bay_free[j] = min(b)
            left[k] = caps[k] - out
        elif is_station[here]:
            ft = secs[here][s]
            depart = start - ft
            if record:
                if depart > t0:
                    acts.append(Action(_WAIT, t0, depart, names[here],
                                       names[here], station=names[here]))
                if ft:
                    acts.append(Action(_FLIGHT, depart, start, names[here],
                                       names[s]))
            left[k] -= ft
        else:
            arrival = t0 + secs[here][s]
            if record:
                if arrival > t0:
                    acts.append(Action(_FLIGHT, t0, arrival, names[here],
                                       names[s]))
                if arrival < start:
                    acts.append(Action(_HOVER, arrival, start, names[s],
                                       names[s]))
            left[k] -= start - t0
        end = start + proc
        if record:
            acts.append(Action(_EXEC, start, end, names[s], names[e],
                               task_id=tid))
        left[k] -= proc
        if left[k] < 0:
            check_sequence(instance, seq)
            raise SchedulingError(
                f"internal accounting error: uav {view.uav_ids[k]} over budget")
        pos[k], ready[k] = e, end
        if end > release[s]:
            release[s] = end
        if end > release[e]:
            release[e] = end
        ends[tid] = end
    if len(ends) != len(seq):
        check_sequence(instance, seq)
    if record:
        return Schedule(instance=instance,
                        actions=dict(zip(view.uav_ids, timelines)))
    return max(ready, default=0)
