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

import functools
import heapq
import textwrap

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
    """The sequence's ids as ints, after `_dense_sequence`'s check:
    non-integer, duplicate and unknown ids and precedence breaks raise
    SequenceError."""
    seq = _task_ids(sequence)
    _dense_sequence(instance, seq)
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
    """The sequence as the compiled view's dense indices, checked in one
    walk. A non-integer id anywhere is named first (`_task_ids`, after
    a scan that passes plain ints); then the first id that is unknown,
    repeated or listed before a predecessor, naming the lowest missing
    predecessor (dense indices ascend with the ids)."""
    view = instance.compiled()
    index, preds = view.task_index, view.task_preds
    seq = list(sequence)
    for t in seq:
        if type(t) is not int:
            seq = _task_ids(seq)
            break
    placed = bytearray(len(preds))
    dense = []
    try:
        for tid in seq:
            d = index[tid]
            if placed[d]:
                raise SequenceError(
                    f"task {tid} appears twice in the sequence")
            for p in preds[d]:
                if not placed[p]:
                    raise SequenceError(
                        f"task {tid} is sequenced before its predecessor "
                        f"{list(index)[p]}")
            placed[d] = 1
            dense.append(d)
    except KeyError:
        raise SequenceError(f"unknown task id {tid}") from None
    return dense


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

    The procedure is written once, as the source templates below, and
    generated per fleet shape (number of UAVs, number of stations) with
    the fleet loop, the station loop and the winner's commit unrolled,
    so each UAV's position, ready time and battery left are locals.
    `_kernel` compiles a shape on its first walk and keeps it for the
    process, so `fitness`, `run_pso` and `build_schedule` share it; the
    instance's values (batteries, recharge times, flight rows, bays,
    `stranded`) are read from the view on each call, so instances of one
    shape share one kernel. A traceback through it names the shape.

    Returns the makespan. A list given as placed gets one tuple per
    task, (task, uav, position, ready, station, begin, start): the dense
    task, the winner's fleet index, position and ready time before it,
    its detour's station and recharge begin (-1, -1 without one), and
    the start; `_timeline` turns them into the Schedule.
    """
    view = instance.compiled()
    walk = _kernel(len(view.uav_ids), len(view.station_pos))
    return walk(view, dense, placed)


# The walk of one fleet shape. A name ending in {k} or {j} is a local of
# UAV k or station j; a bracketed list names that local for every UAV or
# station; {offers}, {bay} and {winner} are the blocks below, one per
# UAV or station. The bay and the winner are `match` cases: an `elif`
# chain nests each branch, past the compiler's bound near 3000 of them.
_WALK = """\
def walk(view, dense, placed):
    secs, is_station, nearest = view.seconds, view.is_station, view.nearest_leg
    tasks, preds, stranded = view.tasks, view.task_preds, view.stranded
    [{pos}] = view.uav_start
    [{ready}] = [0] * len(view.uav_ids)
    [{left}] = [{cap}] = view.uav_capacity      # battery seconds left
    [{dur}] = view.uav_recharge
    [{out}] = [secs[sp] for sp in view.station_pos]
    [{unused}] = view.station_slots             # bays never used
    [{bays}] = [[] for _ in view.station_pos]   # heaps of used releases
    [{free}] = [0] * len(view.station_pos)      # earliest bay release
    release = [0] * len(secs)                   # per position
    ends = [0] * len(tasks)
    for d in dense:
        s, e, proc, escape = tasks[d]
        need = proc + escape
        at = release[s] if release[s] > release[e] else release[e]
        for p in preds[d]:
            if ends[p] > at:
                at = ends[p]
        col = secs[s]                   # symmetric: col[p] is p -> s
        while True:                     # a break skips the later UAVs
{offers}
            break
        start, station = best_start, best_station
        here, t0 = best_here, best_t0
        match station:
            case -1:                    # no recharge
                begin = -1
                drain = proc + (col[here] if is_station[here] else start - t0)
{bay}
        if placed is not None:
            placed.append((d, best, here, t0, station, begin, start))
        end = start + proc
        match best:
{winner}
        if end > release[s]:
            release[s] = end
        if end > release[e]:
            release[e] = end
        ends[d] = end
    return {makespan}
"""

# UAV {k}'s offer; {detours} holds its offers through each station.
# {first} is True for UAV 0, which has no best offer to beat, and False
# after it; the compiler drops the tests that a True or False decides.
_OFFER = """\
ft = col[pos{k}]
start = ready{k} + ft
if start < at:
    start = at
station = -1
if (ft if is_station[pos{k}] else start - ready{k}) + need > left{k}:
    start = ready{k} + dur{k}           # no recharge offer starts earlier
    if start < at:
        start = at
    if {first} or start < best_start or nearest[pos{k}] > left{k}:
{detours}
        if station < 0:
            raise _unreachable(view, {k}, pos{k}, cap{k} - left{k})
if {first} or start < best_start:
    best, best_start, best_station = {k}, start, station
    best_here, best_t0 = pos{k}, ready{k}
    if start == at and stranded <= {k}:
        break                           # later UAVs can only tie
"""

# UAV {k}'s offer through station {j}.
_DETOUR = """\
leg = out{j}[pos{k}]
if leg <= left{k}:
    begin = ready{k} + leg
    if begin < free{j}:
        begin = free{j}
    prepared = begin + dur{k} + out{j}[s]
    if prepared < at:
        prepared = at
    if station < 0 or prepared < start:
        station, start = {j}, prepared
"""

# The winner's recharge at station {j}, which holds a bay until departure.
_BAY = """\
case {j}:
    back = out{j}[s]
    if placed is not None:
        begin = t0 + out{j}[here]
        if begin < free{j}:
            begin = free{j}
    if unused{j}:
        unused{j} -= 1
        heappush(bays{j}, start - back)
        if not unused{j}:
            free{j} = bays{j}[0]
    else:
        heapreplace(bays{j}, start - back)
        free{j} = bays{j}[0]
    drain = proc + back
"""

# The winner's new state when it is UAV {k}.
_WINNER = """\
case {k}:
    left{k} = (left{k} if station < 0 else cap{k}) - drain
    if left{k} < 0:
        raise SchedulingError(
            f"internal accounting error: uav {{view.uav_ids[{k}]}} over budget")
    pos{k}, ready{k} = e, end
"""


def _unreachable(view, k, here, used) -> SchedulingError:
    return SchedulingError(
        f"uav {view.uav_ids[k]} cannot reach any recharge station from "
        f"{view.position_ids[here]} with {used}s used")


def _fill(template, depth, fields):
    """The template filled in with each of fields, indented depth levels."""
    text = "".join(template.format(**f) for f in fields)
    return textwrap.indent(text, "    " * depth).rstrip("\n")


@functools.lru_cache(maxsize=64)
def _kernel(n_uavs: int, n_stations: int):
    """The walk compiled for n_uavs UAVs and n_stations stations."""
    if not n_uavs:      # no fleet, so no tasks: nothing to place
        return lambda view, dense, placed: 0
    namespace = {"_unreachable": _unreachable,
                 "SchedulingError": SchedulingError,
                 "heappush": heapq.heappush, "heapreplace": heapq.heapreplace}
    shape = f"<eat._construct for {n_uavs} UAVs and {n_stations} stations>"
    exec(compile(_source(n_uavs, n_stations), shape, "exec"), namespace)
    return namespace["walk"]


def _source(n_uavs: int, n_stations: int) -> str:
    """The walk's source for a fleet of at least one UAV."""
    fleet, stations = range(n_uavs), range(n_stations)

    def names(prefix, count):
        return ", ".join(f"{prefix}{i}" for i in count)

    offers = [{"k": k, "first": k == 0, "detours": _fill(
        _DETOUR, 2, [{"k": k, "j": j} for j in stations])} for k in fleet]
    readies = names("ready", fleet)
    return _WALK.format(
        pos=names("pos", fleet), ready=readies, left=names("left", fleet),
        cap=names("cap", fleet), dur=names("dur", fleet),
        out=names("out", stations), unused=names("unused", stations),
        bays=names("bays", stations), free=names("free", stations),
        offers=_fill(_OFFER, 3, offers),
        bay=_fill(_BAY, 3, [{"j": j} for j in stations]),
        winner=_fill(_WINNER, 3, [{"k": k} for k in fleet]),
        makespan=f"max({readies})" if n_uavs > 1 else readies)


def _timeline(instance: ProblemInstance, placed) -> Schedule:
    """The Schedule of `_construct`'s placements: per task, a recharge
    detour if any, then the ground wait and flight out of a station or
    the flight and hover from elsewhere, then the execution."""
    view = instance.compiled()
    secs, names, tasks = view.seconds, view.position_ids, view.tasks
    station_pos, recharge = view.station_pos, view.uav_recharge
    is_station = view.is_station
    ids = list(view.task_index)
    timelines = [[] for _ in view.uav_ids]
    for d, k, here, t0, j, begin, start in placed:
        s, e, proc, _ = tasks[d]
        acts = timelines[k]
        if j >= 0:
            sp = station_pos[j]
            st = names[sp]
            charge = t0 + secs[here][sp]
            if charge > t0:
                acts.append(Action(_FLIGHT, t0, charge, names[here], st))
            if begin > charge:
                acts.append(Action(_WAIT, charge, begin, st, st))
            here, t0 = sp, begin + recharge[k]
            acts.append(Action(_RECHARGE, begin, t0, st, st))
        if is_station[here]:
            st = names[here]
            depart = start - secs[here][s]
            if depart > t0:
                acts.append(Action(_WAIT, t0, depart, st, st))
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
                           ids[d]))
    return Schedule(instance=instance,
                    actions=dict(zip(view.uav_ids, timelines)))
