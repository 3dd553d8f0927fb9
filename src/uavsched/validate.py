"""Structural checks for finished schedules.

The validator re-derives every constraint from the instance instead of
trusting the constructor: known positions, timeline continuity, flight
durations against the matrix, task execution windows, precedence,
position exclusivity, airborne battery budgets and recharge bay
capacity. It returns an empty list exactly when the schedule is clean;
a position the map does not know is a violation, not an error. Schedules
covering only a subset of the task set are acceptable as long as every
scheduled task's predecessors are scheduled too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Action, ActionKind, AIRBORNE_KINDS, Schedule, Task

_FLIGHT, _EXEC, _WAIT, _RECHARGE = (
    ActionKind.FLIGHT, ActionKind.TASK_EXEC, ActionKind.WAIT_ON_GROUND,
    ActionKind.RECHARGE)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    uav_id: str | None = None
    task_id: int | None = None
    position: str | None = None
    tstp: int | None = None

    def __str__(self):
        return f"[{self.kind}] {self.message}"


def validate_schedule(schedule: Schedule) -> list[Violation]:
    """The schedule's violations: the per-action ones in `actions` order,
    then the task, battery and bay ones, each in `uav_order()`."""
    inst = schedule.instance
    out: list[Violation] = []
    add = out.append
    station_pos = inst.station_positions()
    index, secs = inst.trajectory_map.index, inst.trajectory_map.seconds
    # uav id -> its task executions, recharges and over-long stretches
    per_uav: dict[str, tuple[list[Action], list[Action], list[tuple]]] = {}

    for uav_id, acts in schedule.actions.items():
        execs, charges, low = per_uav[uav_id] = [], [], []
        uav = inst.uavs_by_id.get(uav_id)
        if uav is None:
            add(Violation("unknown_uav", f"actions for unknown uav {uav_id!r}",
                          uav_id=uav_id))
            # the task and bay checks still see these actions
            execs += [a for a in acts if a.kind is _EXEC]
            charges += [a for a in acts if a.kind is _RECHARGE]
            continue
        cap = uav.battery_capacity
        airborne, span_start, prev = 0, None, None
        for a in acts:
            kind, start, end = a.kind, a.start, a.end
            src, dst = a.from_pos, a.to_pos
            if end < start:
                add(Violation("negative_span",
                              f"{uav_id}: {kind.value} ends at {end} "
                              f"before start {start}",
                              uav_id=uav_id, tstp=start))
            if src in index and dst in index:
                if kind is _FLIGHT:
                    expect = secs[index[src]][index[dst]]
                    if end - start != expect:
                        add(Violation("flight_duration",
                                      f"{uav_id}: flight {src}->{dst} lasts "
                                      f"{end - start}, matrix says {expect}",
                                      uav_id=uav_id, tstp=start))
            else:   # unknown, so no matrix entry to compare a flight with
                for p in dict.fromkeys((src, dst)):
                    if p not in index:
                        add(Violation("unknown_position",
                                      f"{uav_id}: {kind.value} at {p!r}, "
                                      "which the trajectory map does not know",
                                      uav_id=uav_id, position=p, tstp=start))
            # Only flights and task executions (material handling) may
            # change position.
            if kind is not _FLIGHT and kind is not _EXEC and src != dst:
                add(Violation("action_shape",
                              f"{uav_id}: {kind.value} moves from {src} to {dst}",
                              uav_id=uav_id, tstp=start))
            if kind in AIRBORNE_KINDS:
                if span_start is None:
                    span_start = start
                airborne += end - start
                if kind is _EXEC:
                    execs.append(a)
            else:   # on the ground: an airborne stretch ends
                if airborne > cap:
                    low.append((airborne, span_start, cap))
                airborne, span_start = 0, None
                if kind is _RECHARGE:
                    charges.append(a)
                    if src not in station_pos:
                        add(Violation("recharge_position",
                                      f"{uav_id}: recharge at non-station {src!r}",
                                      uav_id=uav_id, position=src))
                    if end - start != uav.recharge_duration:
                        add(Violation("recharge_duration",
                                      f"{uav_id}: recharge lasts {end - start}, "
                                      f"expected {uav.recharge_duration}",
                                      uav_id=uav_id, tstp=start))
                elif kind is _WAIT and src not in station_pos:
                    add(Violation("ground_wait_position",
                                  f"{uav_id}: wait on ground away from a "
                                  f"station at {src!r}",
                                  uav_id=uav_id, position=src))
            if prev is not None:
                if start != prev.end:
                    gap = ("timeline_gap" if start > prev.end
                           else "timeline_overlap")
                    add(Violation(gap,
                                  f"{uav_id}: {prev.kind.value} ends {prev.end} "
                                  f"but {kind.value} starts {start}",
                                  uav_id=uav_id, tstp=start))
                if src != prev.to_pos:
                    add(Violation("spatial_continuity",
                                  f"{uav_id}: jumps from {prev.to_pos!r} to "
                                  f"{src!r} at {start}",
                                  uav_id=uav_id, tstp=start))
            elif src != uav.initial_pos:
                add(Violation("spatial_continuity",
                              f"{uav_id}: first action starts at {src!r}, "
                              f"uav is placed at {uav.initial_pos!r}",
                              uav_id=uav_id, tstp=start))
            prev = a
        if airborne > cap:
            low.append((airborne, span_start, cap))

    order = [(u, per_uav[u]) for u in schedule.uav_order()]
    out += _check_tasks(inst, [(u, a) for u, (execs, _, _) in order
                               for a in execs])
    out += [Violation("battery", f"{u} airborne {airborne}s from {t0}, "
                                 f"capacity {cap}", uav_id=u, tstp=t0)
            for u, (_, _, low) in order for airborne, t0, cap in low]
    out += _check_bays(inst, [a for _, (_, charges, _) in order
                              for a in charges])
    return out


def _check_tasks(inst, execs) -> list[Violation]:
    """Task findings over the (uav id, task execution) pairs."""
    out: list[Violation] = []
    seen: dict[int, tuple[str, Action, Task]] = {}
    by_position: dict[str, list[tuple[int, int, int]]] = {}
    for uav_id, a in execs:
        tid = a.task_id
        if (task := inst.tasks_by_id.get(tid)) is None:
            out.append(Violation("unknown_task",
                                 f"{uav_id}: execution of unknown task {tid}",
                                 uav_id=uav_id, task_id=tid, tstp=a.start))
            continue
        if tid in seen:
            out.append(Violation("duplicate_task",
                                 f"task {tid} executed more than once",
                                 uav_id=uav_id, task_id=tid, tstp=a.start))
            continue
        seen[tid] = (uav_id, a, task)
        if a.end - a.start != task.proc_time:
            out.append(Violation("task_duration",
                                 f"task {tid} ran {a.end - a.start}s, "
                                 f"needs {task.proc_time}s",
                                 uav_id=uav_id, task_id=tid, tstp=a.start))
        if a.from_pos != task.start_pos or a.to_pos != task.end_pos:
            out.append(Violation("task_position",
                                 f"task {tid} ran {a.from_pos}->{a.to_pos}, "
                                 f"defined {task.start_pos}->{task.end_pos}",
                                 uav_id=uav_id, task_id=tid, tstp=a.start))
        for pos in {task.start_pos, task.end_pos}:
            by_position.setdefault(pos, []).append((a.start, a.end, tid))
    for tid, (uav_id, a, task) in seen.items():
        for p in task.predecessors:
            if p not in seen:
                out.append(Violation("precedence",
                                     f"task {tid} scheduled without its "
                                     f"predecessor {p}",
                                     uav_id=uav_id, task_id=tid, tstp=a.start))
            elif seen[p][1].end > a.start:
                out.append(Violation("precedence",
                                     f"task {tid} starts at {a.start} before "
                                     f"predecessor {p} ends at {seen[p][1].end}",
                                     uav_id=uav_id, task_id=tid, tstp=a.start))
    for pos, spans in by_position.items():
        spans.sort()
        for (s1, e1, t1), (s2, e2, t2) in zip(spans, spans[1:]):
            if t1 != t2 and s2 < e1:
                out.append(Violation("position_exclusivity",
                                     f"tasks {t1} and {t2} overlap at "
                                     f"position {pos!r} ({s2} < {e1})",
                                     task_id=t2, position=pos, tstp=s2))
    return out


def _check_bays(inst, recharges) -> list[Violation]:
    """Concurrent recharges at a station never exceed its bay count."""
    out: list[Violation] = []
    slots = {s.pos: s.slots for s in inst.stations}
    per_station: dict[str, list[tuple[int, int]]] = {}
    for a in recharges:
        per_station.setdefault(a.from_pos, []).append((a.start, a.end))
    for pos, spans in per_station.items():
        limit = slots.get(pos)
        if limit is None:
            continue  # already reported as recharge_position
        events = sorted([(s, 1) for s, _ in spans] + [(e, -1) for _, e in spans])
        level = 0
        for tstp, delta in events:
            level += delta
            if level > limit:
                out.append(Violation("bay_capacity",
                                     f"{level} concurrent recharges at {pos!r} "
                                     f"(limit {limit}) at {tstp}",
                                     position=pos, tstp=tstp))
                break
    return out
