"""The one-pass validator against the four-walk one it replaced.

`reference_validate` below is the validator as it was when it walked
every timeline four times. Random edits to audit-style schedules
(50 tasks, 4 UAVs, 2 bays per station, as in the benchmark's audit
workload) must give both the same violations: same kinds, messages,
fields and order.
"""

import dataclasses
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched.datagen import GenSpec, generate_instance
from uavsched.eat import build_schedule
from uavsched.model import (ActionKind, ProblemInstance, RechargeStation,
                            Schedule)
from uavsched.sequences import repair
from uavsched.validate import Violation, validate_schedule

from conftest import AIRBORNE_KINDS

_FLIGHT, _EXEC, _WAIT, _RECHARGE = (
    ActionKind.FLIGHT, ActionKind.TASK_EXEC, ActionKind.WAIT_ON_GROUND,
    ActionKind.RECHARGE)


def is_member(kind) -> bool:
    return isinstance(kind, ActionKind)


def kind_text(kind) -> str:
    return kind.value if is_member(kind) else repr(kind)


def reference_validate(schedule: Schedule) -> list[Violation]:
    """The four-walk validator, kept as it was before the one-pass
    rewrite: a main loop over `schedule.actions`, then separate
    walks for tasks, battery stretches and recharge bays. Two changes
    since: a task enters the exclusivity check at its start position,
    then its end position, where a set left that order to hashing; and
    an action whose kind is not an `ActionKind` member gets one
    `action_kind` finding and no kind-dependent check (every walk skips
    it, and messages name it by its repr), where `.value` crashed."""
    inst = schedule.instance
    out: list[Violation] = []
    add = out.append
    station_pos = inst.station_positions()
    fm = inst.trajectory_map
    index, secs = fm.index, fm.seconds

    for uav_id, acts in schedule.actions.items():
        if uav_id not in inst.uavs_by_id:
            add(Violation("unknown_uav", f"actions for unknown uav {uav_id!r}",
                          uav_id=uav_id))
            continue
        uav = inst.uavs_by_id[uav_id]
        prev = None
        for a in acts:
            if a.end < a.start:
                add(Violation("negative_span",
                              f"{uav_id}: {kind_text(a.kind)} ends at {a.end} "
                              f"before start {a.start}",
                              uav_id=uav_id, tstp=a.start))
            kind = a.kind if is_member(a.kind) else None
            if a.from_pos in index and a.to_pos in index:
                if kind == _FLIGHT:
                    expect = secs[index[a.from_pos]][index[a.to_pos]]
                    if a.end - a.start != expect:
                        add(Violation("flight_duration",
                                      f"{uav_id}: flight {a.from_pos}->"
                                      f"{a.to_pos} lasts {a.end - a.start}, "
                                      f"matrix says {expect}",
                                      uav_id=uav_id, tstp=a.start))
            else:   # unknown, so no matrix entry to compare a flight with
                for p in dict.fromkeys((a.from_pos, a.to_pos)):
                    if p not in index:
                        add(Violation("unknown_position",
                                      f"{uav_id}: {kind_text(a.kind)} at {p!r}, "
                                      "which the trajectory map does not know",
                                      uav_id=uav_id, position=p, tstp=a.start))
            # Only flights and task executions (material handling) may
            # change position.
            if (kind is not None and kind != _FLIGHT and kind != _EXEC
                    and a.from_pos != a.to_pos):
                add(Violation("action_shape",
                              f"{uav_id}: {kind.value} moves from "
                              f"{a.from_pos} to {a.to_pos}",
                              uav_id=uav_id, tstp=a.start))
            if kind == _RECHARGE:
                if a.from_pos not in station_pos:
                    add(Violation("recharge_position",
                                  f"{uav_id}: recharge at non-station "
                                  f"{a.from_pos!r}",
                                  uav_id=uav_id, position=a.from_pos))
                if a.end - a.start != uav.recharge_duration:
                    add(Violation("recharge_duration",
                                  f"{uav_id}: recharge lasts {a.end - a.start}, "
                                  f"expected {uav.recharge_duration}",
                                  uav_id=uav_id, tstp=a.start))
            if kind == _WAIT and a.from_pos not in station_pos:
                add(Violation("ground_wait_position",
                              f"{uav_id}: wait on ground away from a station "
                              f"at {a.from_pos!r}",
                              uav_id=uav_id, position=a.from_pos))
            if kind is None:
                add(Violation("action_kind",
                              f"{uav_id}: action kind {a.kind!r} is not an "
                              "ActionKind",
                              uav_id=uav_id, tstp=a.start))
            if prev is not None:
                if a.start != prev.end:
                    gap = ("timeline_gap" if a.start > prev.end
                           else "timeline_overlap")
                    add(Violation(gap,
                                  f"{uav_id}: {kind_text(prev.kind)} ends "
                                  f"{prev.end} but {kind_text(a.kind)} starts "
                                  f"{a.start}",
                                  uav_id=uav_id, tstp=a.start))
                if a.from_pos != prev.to_pos:
                    add(Violation("spatial_continuity",
                                  f"{uav_id}: jumps from {prev.to_pos!r} to "
                                  f"{a.from_pos!r} at {a.start}",
                                  uav_id=uav_id, tstp=a.start))
            elif a.from_pos != uav.initial_pos:
                add(Violation("spatial_continuity",
                              f"{uav_id}: first action starts at {a.from_pos!r}, "
                              f"uav is placed at {uav.initial_pos!r}",
                              uav_id=uav_id, tstp=a.start))
            prev = a

    out.extend(_check_tasks(schedule))
    out.extend(_check_battery(schedule))
    out.extend(_check_bays(schedule))
    return out


def _check_tasks(schedule: Schedule) -> list[Violation]:
    inst = schedule.instance
    out: list[Violation] = []
    seen: dict[int, tuple[str, object]] = {}
    by_position: dict[str, list[tuple[int, int, int]]] = {}
    for uav_id, a in schedule.all_actions():
        if not is_member(a.kind) or a.kind != _EXEC:
            continue
        tid = a.task_id
        if tid is None or tid not in inst.tasks_by_id:
            out.append(Violation("unknown_task",
                                 f"{uav_id}: execution of unknown task {tid}",
                                 uav_id=uav_id, task_id=tid, tstp=a.start))
            continue
        if tid in seen:
            out.append(Violation("duplicate_task",
                                 f"task {tid} executed more than once",
                                 uav_id=uav_id, task_id=tid, tstp=a.start))
            continue
        seen[tid] = (uav_id, a)
        task = inst.task(tid)
        if a.end - a.start != task.proc_time:
            out.append(Violation("task_duration",
                                 f"task {tid} ran {a.end - a.start}s, "
                                 f"needs {task.proc_time}s",
                                 uav_id=uav_id, task_id=tid, tstp=a.start))
        if (a.from_pos, a.to_pos) != (task.start_pos, task.end_pos):
            out.append(Violation("task_position",
                                 f"task {tid} ran {a.from_pos}->{a.to_pos}, "
                                 f"defined {task.start_pos}->{task.end_pos}",
                                 uav_id=uav_id, task_id=tid, tstp=a.start))
        for pos in dict.fromkeys((task.start_pos, task.end_pos)):
            by_position.setdefault(pos, []).append((a.start, a.end, tid))
    for tid, (uav_id, a) in seen.items():
        for p in inst.task(tid).predecessors:
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


def _check_battery(schedule: Schedule) -> list[Violation]:
    """Every maximal airborne stretch must fit the battery capacity."""
    inst = schedule.instance
    out: list[Violation] = []
    for uav_id in schedule.uav_order():
        uav = inst.uavs_by_id.get(uav_id)
        if uav is None:
            continue  # reported as unknown_uav already
        cap = uav.battery_capacity
        airborne, span_start = 0, None
        for a in [*schedule.actions[uav_id], None]:   # None ends the last stretch
            if a is not None and not is_member(a.kind):
                continue
            if a is not None and a.kind in AIRBORNE_KINDS:
                if span_start is None:
                    span_start = a.start
                airborne += a.end - a.start
                continue
            if airborne > cap:
                out.append(Violation(
                    "battery",
                    f"{uav_id} airborne {airborne}s from {span_start}, "
                    f"capacity {cap}",
                    uav_id=uav_id, tstp=span_start))
            airborne, span_start = 0, None
    return out


def _check_bays(schedule: Schedule) -> list[Violation]:
    """Concurrent recharges at a station never exceed its bay count."""
    inst = schedule.instance
    out: list[Violation] = []
    slots = {s.pos: s.slots for s in inst.stations}
    per_station: dict[str, list[tuple[int, int]]] = {}
    for uav_id, a in schedule.all_actions():
        if is_member(a.kind) and a.kind == _RECHARGE:
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


@cache
def base_schedules() -> tuple[Schedule, ...]:
    """Two random feasible schedules on each of two audit-style
    instances, each also on a copy of its instance with one bay per
    station, where recharges can overflow."""
    out = []
    for j in range(2):
        inst = generate_instance(GenSpec(n_tasks=50, seed=500 + j, n_uavs=4,
                                         slots_per_station=2))
        one_bay = ProblemInstance(
            trajectory_map=inst.trajectory_map,
            stations=tuple(RechargeStation(s.pos, 1) for s in inst.stations),
            tasks=inst.tasks, uavs=inst.uavs, name=inst.name)
        rng = np.random.default_rng([88, j])
        ids = [t.id for t in inst.tasks]
        for _ in range(2):
            schedule = build_schedule(
                inst, repair([ids[i] for i in rng.permutation(len(ids))],
                             inst))
            out.append(schedule)
            out.append(Schedule(instance=one_bay, actions=schedule.actions))
    return tuple(out)


def as_rows(violations):
    return [(v.kind, str(v), v.uav_id, v.task_id, v.position, v.tstp)
            for v in violations]


EDITS = ("shift", "unknown_position", "kind", "duplicate_task",
         "unknown_task", "no_task", "drop")


@st.composite
def edited_schedules(draw):
    """A base schedule with a few random edits: shifted starts and ends,
    unknown positions, changed kinds, duplicated, unknown or None task
    ids, dropped actions, maybe actions for an unknown UAV, and maybe
    an `actions` dict whose key order differs from `uav_order()`."""
    base = draw(st.sampled_from(base_schedules()))
    actions = {u: list(acts) for u, acts in base.actions.items()}
    task_ids = [a.task_id for acts in actions.values() for a in acts
                if a.task_id is not None]
    for _ in range(draw(st.integers(0, 4))):
        uav = draw(st.sampled_from(sorted(actions)))
        acts = actions[uav]
        if not acts:
            continue
        k = draw(st.integers(0, len(acts) - 1))
        a = acts[k]
        edit = draw(st.sampled_from(EDITS))
        if edit == "shift":
            acts[k] = dataclasses.replace(
                a, start=a.start + draw(st.integers(-3000, 3000)),
                end=a.end + draw(st.integers(-3000, 3000)))
        elif edit == "unknown_position":
            side = draw(st.sampled_from(["from_pos", "to_pos", "both"]))
            if side == "both":
                acts[k] = dataclasses.replace(a, from_pos="zz", to_pos="zz")
            else:
                acts[k] = dataclasses.replace(a, **{side: "zz"})
        elif edit == "kind":
            # a member, or a stand-in that is none: its value as a plain
            # string, another string, None or an unhashable list
            acts[k] = dataclasses.replace(a, kind=draw(
                st.sampled_from(list(ActionKind))
                | st.sampled_from([*(m.value for m in ActionKind), "bogus",
                                   None, ["flight"]])))
        elif edit == "duplicate_task":
            acts[k] = dataclasses.replace(
                a, kind=_EXEC, task_id=draw(st.sampled_from(task_ids)))
        elif edit == "unknown_task":
            acts[k] = dataclasses.replace(a, kind=_EXEC, task_id=10_000)
        elif edit == "no_task":
            acts[k] = dataclasses.replace(a, kind=_EXEC, task_id=None)
        else:
            del acts[k]
    if draw(st.booleans()):
        donor = draw(st.sampled_from(sorted(base.actions)))
        cut = draw(st.integers(0, len(base.actions[donor])))
        actions[draw(st.sampled_from(["ghost", "UAV0"]))] = \
            list(base.actions[donor][:cut])
    keys = draw(st.permutations(list(actions)))
    return Schedule(instance=base.instance,
                    actions={u: actions[u] for u in keys})


def test_base_schedules_agree():
    for schedule in base_schedules():
        assert as_rows(validate_schedule(schedule)) \
            == as_rows(reference_validate(schedule))


@settings(max_examples=300, deadline=None)
@given(edited_schedules())
def test_one_pass_equals_four_walks(schedule):
    assert as_rows(validate_schedule(schedule)) \
        == as_rows(reference_validate(schedule))
