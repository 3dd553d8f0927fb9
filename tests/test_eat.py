import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uavsched.datagen import GenSpec, generate_instance
from uavsched import eat
from uavsched.eat import (
    _construct,
    _dense_sequence,
    _kernel,
    _source,
    build_schedule,
    check_sequence,
)
from uavsched.io import instance_to_dict
from uavsched.model import (
    Action,
    ActionKind,
    InstanceError,
    Position,
    PositionKind,
    RechargeStation,
    Schedule,
    SchedulingError,
    SequenceError,
    TrajectoryMap,
    Uav,
)
from uavsched.pso import fitness
from uavsched.sampledata import sample_instance
from uavsched.sequences import repair
from uavsched.validate import validate_schedule

from conftest import (
    AIRBORNE_KINDS,
    FULL_COMPLETION,
    FULL_COMPLETION_MAKESPAN,
    GOLDEN_ASSIGNMENTS,
    GOLDEN_PREFIX,
    GOLDEN_PREFIX_MAKESPAN,
    GOLDEN_TIMELINE,
    haul,
    inspect,
    make_instance,
)
from oracles import reference_check_sequence
from oracles import worst_case_engagement_time

F, T, H, W, R = (ActionKind.FLIGHT, ActionKind.TASK_EXEC, ActionKind.HOVER,
                 ActionKind.WAIT_ON_GROUND, ActionKind.RECHARGE)


def as_tuples(actions):
    return [(a.kind, a.start, a.end, a.from_pos, a.to_pos, a.task_id)
            for a in actions]


def placed(instance, *positions):
    """The instance with its fleet replaced by UAVs at these positions."""
    uavs = tuple(Uav(f"UAV{i + 1}", pos, 1200, 2700)
                 for i, pos in enumerate(positions))
    return dataclasses.replace(instance, uavs=uavs)


def timeline(instance, sequence, uav_id):
    schedule = build_schedule(instance, sequence)
    assert validate_schedule(schedule) == []
    return as_tuples(schedule.actions[uav_id])


class TestGoldenTrace:
    def test_assignments(self, lab):
        s = build_schedule(lab, GOLDEN_PREFIX)
        rows = s.task_executions()
        got = [(t, rows[t][0], rows[t][1].start) for t in GOLDEN_PREFIX]
        assert got == GOLDEN_ASSIGNMENTS

    def test_exact_timeline(self, lab):
        s = build_schedule(lab, GOLDEN_PREFIX)
        for uav_id, expected in GOLDEN_TIMELINE.items():
            assert as_tuples(s.actions[uav_id]) == expected, uav_id

    def test_prefix_makespan(self, lab):
        assert build_schedule(lab, GOLDEN_PREFIX).makespan() == \
            GOLDEN_PREFIX_MAKESPAN

    def test_hover_costs_battery_before_task6(self, lab):
        # UAV2 hovers at d from 625 to 759; the engagement check counts
        # that hover, so its airborne total stays within budget.
        s = build_schedule(lab, GOLDEN_PREFIX)
        hov = [a for a in s.actions["UAV2"] if a.kind is H]
        assert as_tuples(hov) == [(H, 625, 759, "d", "d", None)]

    def test_recharge_is_full_duration(self, lab):
        s = build_schedule(lab, GOLDEN_PREFIX)
        rec = [a for a in s.actions["UAV1"] if a.kind is R]
        assert len(rec) == 1
        assert (rec[0].end - rec[0].start
                == lab.uavs_by_id["UAV1"].recharge_duration)

    def test_full_completion_makespan(self, lab):
        s = build_schedule(lab, FULL_COMPLETION)
        assert s.makespan() == FULL_COMPLETION_MAKESPAN
        assert len(s.task_executions()) == len(lab.tasks)


class TestTaskAvailableTime:
    def test_position_release_gates(self):
        # t2 hauls b->a; UAV2 reaches b at 20 but a stays held by t1 until
        # 120, so it waits on the ground at R2 and starts at 120.
        inst = make_instance([inspect(1, "a", 100), haul(2, "b", "a", 60)])
        assert timeline(inst, [1, 2], "UAV2") == [
            (W, 0, 100, "R2", "R2", None),
            (F, 100, 120, "R2", "b", None),
            (T, 120, 180, "b", "a", 2),
        ]

    def test_predecessor_end_gates(self):
        inst = make_instance([inspect(1, "b", 230),
                              inspect(2, "a", 10, preds=[1])])
        # t1 runs 20..250 on UAV2; t2 at the free position a waits for it
        assert timeline(inst, [1, 2], "UAV1") == [
            (W, 0, 230, "R1", "R1", None),
            (F, 230, 250, "R1", "a", None),
            (T, 250, 260, "a", "a", 2),
        ]

    def test_missing_predecessor_raises(self):
        inst = make_instance([haul(1, "a", "b", 10),
                              haul(2, "a", "b", 10, preds=[1])])
        with pytest.raises(SequenceError, match="predecessor 1"):
            build_schedule(inst, [2])


class TestUavCandidate:
    def test_direct_engagement_from_station(self):
        inst = make_instance([inspect(1, "a", 100)], n_uavs=1)
        assert timeline(inst, [1], "UAV1") == [
            (F, 0, 20, "R1", "a", None),
            (T, 20, 120, "a", "a", 1),
        ]

    def test_battery_shortfall_forces_recharge(self):
        inst = make_instance([inspect(1, "b", 1060), inspect(2, "a", 100)],
                             n_uavs=1)
        # After t1 UAV1 is at b with 1100 used: 1100 + 30 flight + 100
        # proc + 20 escape > 1200. b->R1 40s then 20s on to a, b->R2 20s
        # then 40s: both prepared at 3860, so the first-listed station
        # wins.
        assert timeline(inst, [1, 2], "UAV1")[2:] == [
            (F, 1100, 1140, "b", "R1", None),
            (R, 1140, 3840, "R1", "R1", None),
            (F, 3840, 3860, "R1", "a", None),
            (T, 3860, 3960, "a", "a", 2),
        ]

    def test_hover_wait_counts_against_battery(self):
        # UAV1 starts airborne at b; UAV2 runs t1 at a from 20, so t2 at a
        # is available when t1 ends. Arriving at 30 and starting at 150
        # means 120 hover: 30 + 120 + 1000 proc + 20 escape = 1170 fits
        # (UAV2 ties at 150 and loses on fleet order).
        fits = placed(make_instance([inspect(1, "a", 130),
                                     inspect(2, "a", 1000)]), "b", "R1")
        assert timeline(fits, [1, 2], "UAV1") == [
            (F, 0, 30, "b", "a", None),
            (H, 30, 150, "a", "a", None),
            (T, 150, 1150, "a", "a", 2),
        ]
        # Available at 181 the hover makes it 1201: a recharge detour
        # replaces it, although the flight alone would have fitted.
        tight = placed(make_instance([inspect(1, "a", 161),
                                      inspect(2, "a", 1000)]), "b", "R1")
        assert timeline(tight, [1, 2], "UAV1") == [
            (F, 0, 40, "b", "R1", None),
            (R, 40, 2740, "R1", "R1", None),
            (F, 2740, 2760, "R1", "a", None),
            (T, 2760, 3760, "a", "a", 2),
        ]

    def test_ground_wait_at_station_is_free(self):
        # Same kind of availability gap, but UAV1 sits parked at R1: it
        # waits on the ground, so only the 20s flight counts and no
        # recharge is needed (500 s airborne would not have fitted).
        inst = make_instance([inspect(1, "b", 480),
                              inspect(2, "a", 1000, preds=[1])])
        assert timeline(inst, [1, 2], "UAV1") == [
            (W, 0, 480, "R1", "R1", None),
            (F, 480, 500, "R1", "a", None),
            (T, 500, 1500, "a", "a", 2),
        ]


def bay_contention(t2_proc):
    """UAV2 starts at b and recharges at R2 1160..3860 (single bays);
    UAV1 ends t2 at b and then needs a recharge before t4 at a."""
    tasks = [inspect(1, "b", 1140), inspect(2, "b", t2_proc),
             inspect(3, "b", 1140), inspect(4, "a", 100)]
    return placed(make_instance(tasks, slots=1), "R1", "b")


class TestSelectRechargeStation:
    def test_prefers_earliest_prepared(self):
        # 1140 used at b: R2 is nearer (20s) but its only bay is held
        # until 3860, so the detour through the free R1 starts t4 first.
        assert timeline(bay_contention(1100), [1, 2, 3, 4], "UAV1")[3:] == [
            (F, 2240, 2280, "b", "R1", None),
            (R, 2280, 4980, "R1", "R1", None),
            (F, 4980, 5000, "R1", "a", None),
            (T, 5000, 5100, "a", "a", 4),
        ]

    def test_unreachable_station_skipped(self):
        # 1180 used at b: R1 at 40s is beyond 1200 - 1180 = 20, so the
        # UAV goes to R2 although R1 would have got it to t4 sooner.
        acts = timeline(bay_contention(1140), [1, 2, 3, 4], "UAV1")
        assert {a[3] for a in acts if a[0] is R} == {"R2"}

    def test_busy_bay_delays_recharge_start(self):
        assert timeline(bay_contention(1140), [1, 2, 3, 4], "UAV1")[3:] == [
            (F, 2280, 2300, "b", "R2", None),
            (W, 2300, 3860, "R2", "R2", None),
            (R, 3860, 6560, "R2", "R2", None),
            (F, 6560, 6600, "R2", "a", None),
            (T, 6600, 6700, "a", "a", 4),
        ]


class TestPickEarliestUav:
    def test_strictly_earlier_wins(self):
        # b is 20s from UAV2's R2 and 40s from UAV1's R1
        s = build_schedule(make_instance([inspect(1, "b", 50)]), [1])
        assert s.task_executions()[1][0] == "UAV2"

    def test_tie_keeps_fleet_order(self):
        # UAV2 and UAV3 both sit at R1, 20s from a; UAV1 needs 30s
        inst = placed(make_instance([inspect(1, "a", 100)]), "b", "R1", "R1")
        s = build_schedule(inst, [1])
        assert s.task_executions()[1][0] == "UAV2"
        assert s.actions["UAV3"] == []


class TestSlotOccupancy:
    def test_occupy_replaces_earliest_bay(self):
        # Two bays per station, all UAVs start at b. UAV2 and UAV3 both
        # recharge at R1 from 40; UAV2 leaves at 2740, UAV3 holds its bay
        # until 3880. UAV1 (R2 out of reach) gets the bay UAV2 freed.
        tasks = [inspect(i, "a", 1140) for i in (1, 2, 3)]
        tasks.append(inspect(4, "b", 1140))
        inst = placed(make_instance(tasks, n_uavs=3, slots=2), "b", "b", "b")
        assert timeline(inst, [1, 2, 3, 4], "UAV1")[2:5] == [
            (F, 1170, 1190, "a", "R1", None),
            (W, 1190, 2740, "R1", "R1", None),
            (R, 2740, 5440, "R1", "R1", None),
        ]
        assert timeline(inst, [1, 2, 3, 4], "UAV3")[1:3] == [
            (R, 40, 2740, "R1", "R1", None),
            (W, 2740, 3880, "R1", "R1", None),
        ]


class TestCheckSequence:
    def test_duplicate_rejected(self, lab):
        with pytest.raises(SequenceError, match="twice"):
            check_sequence(lab, [1, 2, 1])

    def test_precedence_break_rejected(self, lab):
        # task 7 needs 3 and 4 first
        with pytest.raises(SequenceError, match="predecessor"):
            check_sequence(lab, [7])

    def test_unknown_task_rejected(self, lab):
        with pytest.raises(SequenceError, match="unknown"):
            check_sequence(lab, [99])

    @pytest.mark.parametrize("bad", [3.7, True, "3"])
    def test_non_integer_id_rejected(self, lab, bad):
        # int() would read 3.7 as task 3 and True as task 1
        message = re.escape(f"task id {bad!r} is not an integer")
        for build in (check_sequence, build_schedule,
                      lambda inst, seq: fitness(seq, inst)):
            with pytest.raises(SequenceError, match=message):
                build(lab, [bad])

    def test_integral_float_is_an_id(self, lab):
        assert check_sequence(lab, [3.0]) == [3]
        assert build_schedule(lab, [3.0]).makespan() == \
            build_schedule(lab, [3]).makespan()


class TestBuildSchedule:
    def test_empty_sequence_is_empty_schedule(self, lab):
        s = build_schedule(lab, [])
        assert s.makespan() == 0
        assert all(not acts for acts in s.actions.values())

    def test_prefix_subsets_allowed(self, lab):
        s = build_schedule(lab, [3, 2])
        assert sorted(s.task_executions()) == [2, 3]

    def test_ground_wait_before_predecessor_clears(self):
        # t1 holds position a until 120; the UAV parked at R2 leaves the
        # ground just in time for t2 instead of hovering.
        tasks = [inspect(1, "a", 100), inspect(2, "b", 40, preds=[1])]
        inst = make_instance(tasks, n_uavs=2)
        s = build_schedule(inst, [1, 2])
        assert as_tuples(s.actions["UAV1"]) == [
            (F, 0, 20, "R1", "a", None),
            (T, 20, 120, "a", "a", 1),
        ]
        assert as_tuples(s.actions["UAV2"]) == [
            (W, 0, 100, "R2", "R2", None),
            (F, 100, 120, "R2", "b", None),
            (T, 120, 160, "b", "b", 2),
        ]

    def test_battery_resets_after_recharge(self, lab):
        s = build_schedule(lab, GOLDEN_PREFIX)
        # UAV1 flies out 40s after its recharge and executes 478s; with
        # the battery reset this is well inside 1200 again.
        acts = s.actions["UAV1"]
        idx = next(i for i, a in enumerate(acts) if a.kind is R)
        post = acts[idx + 1:]
        airborne = sum(a.end - a.start for a in post
                       if a.kind in (F, H, T))
        assert airborne == 40 + 478

    def test_validator_clean_on_golden(self, lab):
        assert validate_schedule(build_schedule(lab, GOLDEN_PREFIX)) == []
        assert validate_schedule(build_schedule(lab, FULL_COMPLETION)) == []


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_feasible_sequences_validate_clean(rnd):
    from uavsched.sampledata import sample_instance
    inst = sample_instance()
    seq = [t.id for t in inst.tasks]
    rnd.shuffle(seq)
    seq = repair(seq, inst)
    s = build_schedule(inst, seq)
    assert validate_schedule(s) == []
    assert len(s.task_executions()) == len(inst.tasks)


@st.composite
def mixed_fleet_draws(draw):
    """A generated instance re-fleeted with per-UAV battery, recharge time
    and start position, per-station bay counts, and a prefix-closed
    sequence repaired into precedence order."""
    spec = GenSpec(n_tasks=draw(st.integers(0, 25)),
                   seed=draw(st.integers(0, 2**20)),
                   max_predecessors=draw(st.integers(0, 3)),
                   n_uavs=draw(st.integers(1, 4)))
    inst = generate_instance(spec)
    fm = inst.trajectory_map
    need = max((worst_case_engagement_time(t, fm, inst.stations)
                for t in inst.tasks), default=1)
    uavs = tuple(
        Uav(u.id, draw(st.sampled_from([p.id for p in fm.positions])),
            draw(st.integers(need, need + 900)), draw(st.integers(100, 3200)))
        for u in inst.uavs)
    stations = tuple(RechargeStation(s.pos, draw(st.integers(1, 3)))
                     for s in inst.stations)
    inst = dataclasses.replace(inst, uavs=uavs, stations=stations)
    seq = repair(draw(st.permutations([t.id for t in inst.tasks])), inst)
    return inst, seq[:draw(st.integers(0, len(seq)))]


class TestMakespanPathMatchesSchedule:
    @settings(max_examples=150, deadline=None)
    @given(mixed_fleet_draws())
    def test_heterogeneous_fleets(self, draw):
        inst, seq = draw
        schedule = build_schedule(inst, seq)
        assert fitness(seq, inst) == schedule.makespan()
        assert validate_schedule(schedule) == []
        assert sorted(schedule.task_executions()) == sorted(seq)

    @settings(max_examples=100, deadline=None)
    @given(mixed_fleet_draws())
    def test_placements(self, draw):
        # the walk lists one placement per task, in sequence order, and
        # listing them changes neither the makespan nor the schedule
        inst, seq = draw
        view = inst.compiled()
        dense = [view.task_index[t] for t in seq]
        placed = []
        assert _construct(inst, dense, placed) == _construct(inst, dense)
        assert [p[0] for p in placed] == dense
        assert all((j < 0) == (begin < 0) for *_, j, begin, _ in placed)
        execs = build_schedule(inst, seq).task_executions()
        assert [(view.uav_ids[k], start) for _, k, *_, start in placed] == \
            [(execs[t][0], execs[t][1].start) for t in seq]

    @settings(max_examples=60, deadline=None)
    @given(mixed_fleet_draws())
    def test_malformed_sequences_fail_alike(self, draw):
        inst, _ = draw
        full = repair([t.id for t in inst.tasks], inst)
        bad = []
        if full:
            bad.append((full + full[:1], "appears twice"))
            bad.append((full + [max(full) + 1], "unknown task id"))
        for i, tid in enumerate(full):
            if inst.task(tid).predecessors:
                bad.append(([tid] + full[:i] + full[i + 1:], "predecessor"))
                break
        for seq, message in bad:
            with pytest.raises(SequenceError, match=message) as built:
                build_schedule(inst, seq)
            with pytest.raises(SequenceError) as scored:
                fitness(seq, inst)
            assert str(scored.value) == str(built.value)
        # mixed faults: both paths raise check_sequence's first error
        unknown = max(full, default=0) + 1
        mixed = [full[:1] + [1.5] + full[1:], full + [True], full + ["3"]]
        if full:
            mixed += [full + full[:1] + [unknown], full + [unknown] + full[:1]]
            broken = [seq for seq, m in bad if m == "predecessor"]
            mixed += [b + b[:1] for b in broken]
            mixed += [b[:1] + b for b in broken]
            with pytest.raises(SequenceError, match="duplicate task ids"):
                repair(full + [unknown] + full[:1], inst)
        for seq in mixed:
            with pytest.raises(SchedulingError) as want:
                check_sequence(inst, seq)
            for run in (lambda: build_schedule(inst, seq),
                        lambda: fitness(seq, inst)):
                with pytest.raises(SchedulingError) as got:
                    run()
                assert (type(got.value), str(got.value)) == \
                    (type(want.value), str(want.value))


@st.composite
def messy_sequences(draw):
    """An instance of mixed_fleet_draws and a sequence that may break
    each rule of check_sequence, several at once: a drawn prefix of a
    permutation puts tasks before their predecessors, and up to four
    items are inserted, each a listed id (a repeat, perhaps as 3.0 or
    np.int64), an unknown id or a non-integer."""
    inst, seq = draw(mixed_fleet_draws())
    ids = sorted(inst.tasks_by_id)
    if ids and draw(st.booleans()):
        seq = draw(st.permutations(ids))[:draw(st.integers(1, len(ids)))]
    seq = list(seq)
    unknown = max(ids, default=0) + 1
    odd = st.sampled_from([True, False, "3", 1.5, 3.0, np.int64(3), unknown,
                           np.int64(unknown), -1, 0])
    known = st.sampled_from(ids or [1])
    items = odd | known | known.map(float) | known.map(np.int64)
    for _ in range(draw(st.integers(0, 4))):
        seq.insert(draw(st.integers(0, len(seq))), draw(items))
    return inst, seq


def outcome(check, *args):
    """check(*args), or the type and text of the SequenceError raised."""
    try:
        return check(*args)
    except SequenceError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(messy_sequences())
def test_one_walk_check_matches_reference(draw):
    # the same ids, or the same first error, as the check did before it
    # walked the compiled view; build_schedule and fitness take the dense
    # walk without check_sequence's own conversion
    inst, seq = draw
    want = outcome(reference_check_sequence, inst, seq)
    assert outcome(check_sequence, inst, seq) == want
    index = inst.compiled().task_index
    assert outcome(_dense_sequence, inst, seq) == (
        want if isinstance(want, tuple) else [index[t] for t in want])


def id_task_table(instance):
    """Task id -> (start index, end index, proc_time, escape seconds,
    predecessor ids), the constructor's task table before dense indices,
    built from the instance alone."""
    fm = instance.trajectory_map
    return {t.id: (fm.index[t.start_pos], fm.index[t.end_pos], t.proc_time,
                   min(fm.flight_time(t.end_pos, s.pos)
                       for s in instance.stations), t.predecessors)
            for t in instance.tasks}


def reference_construct(instance, sequence, record):
    """The constructor as it was before recharge pruning: the sequence is
    checked up front, tasks are looked up by id, each station keeps one
    release per bay, and every UAV of the fleet is evaluated with its
    station loop in full."""
    seq = check_sequence(instance, sequence)
    view = instance.compiled()
    secs, names = view.seconds, view.position_ids
    tasks = id_task_table(instance)
    is_station, station_pos = view.is_station, view.station_pos
    caps, durations = view.uav_capacity, view.uav_recharge
    bays = [[0] * n for n in view.station_slots]
    bay_free = [0] * len(bays)
    release = [0] * len(names)
    pos = list(view.uav_start)
    ready = [0] * len(pos)
    used = [0] * len(pos)
    fleet = range(len(pos))
    stations = tuple(enumerate(station_pos))
    timelines = [[] for _ in fleet]
    ends = {}
    for tid in seq:
        s, e, proc, escape, preds = tasks[tid]
        at = release[s] if release[s] > release[e] else release[e]
        for p in preds:
            if ends[p] > at:
                at = ends[p]
        best = -1
        for k in fleet:
            here, t0, u, cap = pos[k], ready[k], used[k], caps[k]
            row = secs[here]
            ft = row[s]
            start = t0 + ft if t0 + ft > at else at
            airborne = ft if is_station[here] else start - t0
            plan = None
            if u + airborne + proc + escape > cap:
                for j, sp in stations:
                    leg = row[sp]
                    if u + leg > cap:
                        continue
                    charge = t0 + leg
                    begin = bay_free[j] if bay_free[j] > charge else charge
                    done = begin + durations[k]
                    prepared = done + secs[sp][s]
                    if prepared < at:
                        prepared = at
                    if plan is None or prepared < plan[0]:
                        plan = (prepared, j, charge, begin, done)
                if plan is None:
                    raise SchedulingError(
                        f"uav {view.uav_ids[k]} cannot reach any recharge "
                        f"station from {names[here]} with {u}s used")
                start = plan[0]
            if best < 0 or start < best_start:
                best, best_start, best_plan = k, start, plan
        k, start = best, best_start
        here, t0 = pos[k], ready[k]
        acts = timelines[k]
        if best_plan is not None:
            _, j, charge, begin, done = best_plan
            sp = station_pos[j]
            out = secs[sp][s]
            depart = start - out
            if record:
                st = names[sp]
                if charge > t0:
                    acts.append(Action(F, t0, charge, names[here], st))
                if begin > charge:
                    acts.append(Action(W, charge, begin, st, st))
                acts.append(Action(R, begin, done, st, st))
                if depart > done:
                    acts.append(Action(W, done, depart, st, st))
                if out:
                    acts.append(Action(F, depart, start, st, names[s]))
            b = bays[j]
            b[b.index(bay_free[j])] = depart
            bay_free[j] = min(b)
            used[k] = out
        elif is_station[here]:
            ft = secs[here][s]
            depart = start - ft
            if record:
                if depart > t0:
                    acts.append(Action(W, t0, depart, names[here],
                                       names[here]))
                if ft:
                    acts.append(Action(F, depart, start, names[here],
                                       names[s]))
            used[k] += ft
        else:
            arrival = t0 + secs[here][s]
            if record:
                if arrival > t0:
                    acts.append(Action(F, t0, arrival, names[here], names[s]))
                if arrival < start:
                    acts.append(Action(H, arrival, start, names[s], names[s]))
            used[k] += start - t0
        end = start + proc
        if record:
            acts.append(Action(T, start, end, names[s], names[e], task_id=tid))
        used[k] += proc
        if used[k] > caps[k]:
            raise SchedulingError(
                f"internal accounting error: uav {view.uav_ids[k]} over budget")
        pos[k], ready[k] = e, end
        if end > release[s]:
            release[s] = end
        if end > release[e]:
            release[e] = end
        ends[tid] = end
    if record:
        return Schedule(instance=instance,
                        actions=dict(zip(view.uav_ids, timelines)))
    return max(ready, default=0)


def far_map(trajectory_map, stations, legs, hops):
    """The map with one more work position, "far": hops[i] seconds from
    the i-th other position and legs[j] from the j-th station, which may
    put every station out of a fresh battery's reach."""
    fm = trajectory_map
    station_at = {s.pos: j for j, s in enumerate(stations)}
    extra = []
    for i, p in enumerate(fm.positions):
        extra.append(legs[station_at[p.id]] if p.id in station_at
                     else hops[i % len(hops)])
    seconds = [list(row) + [extra[i]] for i, row in enumerate(fm.seconds)]
    seconds.append(extra + [0])
    return TrajectoryMap(fm.positions + (Position("far", PositionKind.WORK),),
                         seconds)


def with_far_position(instance, legs, hops):
    """The instance on `far_map` of its map and stations."""
    return dataclasses.replace(instance, trajectory_map=far_map(
        instance.trajectory_map, instance.stations, legs, hops))


def station_map(trajectory_map, stations, count, legs):
    """(map, stations) with count stations. Fewer than given keeps the
    first count, and the others' positions become work positions. More
    adds stations at new positions "S1", "S2", ..., the q-th of them
    legs[(q + i) % len(legs)] seconds from the i-th position before it."""
    fm = trajectory_map
    kept = stations[:count]
    hosted = {s.pos for s in kept}
    positions = [p if p.kind != PositionKind.RECHARGE or p.id in hosted
                 else Position(p.id, PositionKind.WORK) for p in fm.positions]
    seconds = [list(row) for row in fm.seconds]
    for q in range(count - len(kept)):
        row = [legs[(q + i) % len(legs)] for i in range(len(seconds))]
        for old, leg in zip(seconds, row):
            old.append(leg)
        seconds.append(row + [0])
        positions.append(Position(f"S{q + 1}", PositionKind.RECHARGE))
        kept += (RechargeStation(f"S{q + 1}"),)
    return TrajectoryMap(positions, seconds), kept


@st.composite
def pruning_draws(draw):
    """Heterogeneous fleets of 1-8 UAVs (per-UAV battery, recharge time
    and start position) on a map of 1-4 stations (1-3 bays each) with a
    "far" position that may be beyond a fresh battery's reach of every
    station, and a repaired sequence, maybe cut, maybe made malformed.
    Each fleet and station count is a shape of the compiled walk."""
    spec = GenSpec(n_tasks=draw(st.integers(0, 30)),
                   seed=draw(st.integers(0, 2**20)),
                   max_predecessors=draw(st.integers(0, 3)),
                   n_uavs=draw(st.integers(1, 8)))
    inst = generate_instance(spec)
    fm, stations = station_map(
        inst.trajectory_map, inst.stations, draw(st.integers(1, 4)),
        draw(st.lists(st.integers(1, 400), min_size=1, max_size=4)))
    legs = [draw(st.integers(1, 3000)) for _ in stations]
    hops = draw(st.lists(st.integers(1, 60), min_size=1, max_size=4))
    fm = far_map(fm, stations, legs, hops)
    need = max((worst_case_engagement_time(t, fm, stations)
                for t in inst.tasks), default=1)
    uavs = tuple(
        Uav(u.id, draw(st.sampled_from(["far"] + [p.id for p in fm.positions])),
            draw(st.integers(need, need + 900)), draw(st.integers(100, 3200)))
        for u in inst.uavs)
    stations = tuple(RechargeStation(s.pos, draw(st.integers(1, 3)))
                     for s in stations)
    inst = dataclasses.replace(inst, trajectory_map=fm, stations=stations,
                               uavs=uavs)
    seq = repair(draw(st.permutations([t.id for t in inst.tasks])), inst)
    seq = seq[:draw(st.integers(len(seq) // 2, len(seq)))]
    if seq:
        k = draw(st.integers(0, len(seq)))
        seq = draw(st.sampled_from([
            seq, seq[:k] + [seq[0]] + seq[k:], seq[:k] + [-1] + seq[k:],
            seq[::-1]]))
    return inst, seq


def constructed(fn, *args):
    try:
        got = fn(*args)
    except SchedulingError as exc:
        return type(exc), str(exc)
    if isinstance(got, Schedule):
        return {uav: as_tuples(acts) for uav, acts in got.actions.items()}
    return got


class TestPrunedConstructorMatchesReference:
    """Skipping recharge plans that cannot win, and checking the
    sequence during the walk, change no schedule and no error."""

    @settings(max_examples=200, deadline=None)
    @given(pruning_draws())
    def test_schedules_makespans_and_errors(self, draw):
        inst, seq = draw
        assert constructed(build_schedule, inst, seq) == \
            constructed(reference_construct, inst, seq, True)
        assert constructed(fitness, seq, inst) == \
            constructed(reference_construct, inst, seq, False)

    def test_unreachable_start_error(self):
        # UAV2 starts at "far", 2000 s from both stations. UAV1 flies
        # t1; t2 at a is then available at 181 and needs 1000 s, so both
        # UAVs need a recharge first and UAV2 can reach no station. With
        # a 5000 s recharge UAV2's bound (5000) cannot beat UAV1's 2921,
        # but the reach guard keeps its station loop and the error.
        base = with_far_position(
            make_instance([inspect(1, "a", 161), inspect(2, "a", 1000)]),
            [2000, 2000], [20])
        for recharge in (2700, 5000):
            inst = dataclasses.replace(base, uavs=(
                Uav("UAV1", "R1", 1200, 2700),
                Uav("UAV2", "far", 1200, recharge)))
            assert constructed(build_schedule, inst, [1, 2]) == \
                constructed(reference_construct, inst, [1, 2], True)
            with pytest.raises(SchedulingError, match=(
                    "uav UAV2 cannot reach any recharge station from far "
                    "with 0s used")):
                fitness([1, 2], inst)
            # a malformed sequence is still reported first
            with pytest.raises(SequenceError, match="task 1 appears twice"):
                fitness([1, 2, 1], inst)

    def test_unreachable_start_after_an_offer_at_availability(self):
        # UAV1 finishes t1 at a at 181 and offers t2 at its availability,
        # 181, so later UAVs can only tie. UAV2, later in fleet order,
        # starts at "far" with every station out of reach and needs a
        # recharge for t2 (181 s airborne + 1000 s + 20 s escape > 1200 s):
        # the fleet loop must not stop before it, so the error stands.
        base = with_far_position(
            make_instance([inspect(1, "a", 161), inspect(2, "a", 1000)]),
            [2000, 2000], [20])
        inst = dataclasses.replace(base, uavs=(
            Uav("UAV1", "R1", 2400, 2700), Uav("UAV2", "far", 1200, 2700)))
        assert constructed(fitness, [1, 2], inst) == \
            constructed(reference_construct, inst, [1, 2], False)
        with pytest.raises(SchedulingError, match=(
                "uav UAV2 cannot reach any recharge station from far "
                "with 0s used")):
            build_schedule(inst, [1, 2])
        # with UAV2 placed where it reaches a station, UAV1 wins at 181
        ok = dataclasses.replace(inst, uavs=(
            Uav("UAV1", "R1", 2400, 2700), Uav("UAV2", "b", 1200, 2700)))
        assert constructed(build_schedule, ok, [1, 2]) == \
            constructed(reference_construct, ok, [1, 2], True)
        assert timeline(ok, [1, 2], "UAV1")[-1][:3] == (T, 181, 1181)


class TestOneKernelPerShape:
    """The walk is compiled once per fleet shape (number of UAVs, number
    of stations); instances of one shape share it, and each still walks
    with its own batteries, recharge times, bays and stranded UAV."""

    def test_instances_of_a_shape_share_one_kernel(self):
        tasks = [inspect(1, "a", 161), inspect(2, "a", 1000),
                 inspect(3, "b", 300), inspect(4, "b", 700, preds=(2,))]
        base = with_far_position(make_instance(tasks), [2000, 2000], [20])
        fleets = [
            # UAV2 starts out of every station's reach and raises
            (Uav("UAV1", "R1", 2400, 2700), Uav("UAV2", "far", 1200, 2700)),
            (Uav("UAV1", "R1", 1300, 900), Uav("UAV2", "b", 1500, 4000)),
            (Uav("UAV1", "R2", 1200, 2700), Uav("UAV2", "R1", 2100, 300)),
        ]
        instances = [with_slots(dataclasses.replace(base, uavs=fleet), slots)
                     for fleet in fleets for slots in (1, 2)]
        assert [i.compiled().stranded for i in instances[::2]] == [1, -1, -1]
        sequences = ([1, 2, 3, 4], [2, 4, 3, 1], [3, 1, 2, 4])
        _kernel.cache_clear()
        walks = {}
        for inst in instances:
            for seq in sequences:
                got = constructed(fitness, seq, inst)
                assert got == constructed(reference_construct, inst, seq,
                                          False)
                assert constructed(build_schedule, inst, seq) == \
                    constructed(reference_construct, inst, seq, True)
                walks[inst.uavs, inst.stations, tuple(seq)] = got
        info = _kernel.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        # the kernel read each instance's own values: the walks differ
        assert len(set(map(str, walks.values()))) > len(sequences)
        assert any(isinstance(w, tuple) for w in walks.values())

    def test_traceback_names_the_shape(self):
        base = with_far_position(
            make_instance([inspect(1, "a", 161), inspect(2, "a", 1000)]),
            [2000, 2000], [20])
        inst = dataclasses.replace(base, uavs=(
            Uav("UAV1", "R1", 2400, 2700), Uav("UAV2", "far", 1200, 2700)))
        with pytest.raises(SchedulingError) as raised:
            fitness([1, 2], inst)
        files = [frame.filename
                 for frame in traceback.extract_tb(raised.value.__traceback__)]
        assert "<eat._construct for 2 UAVs and 2 stations>" in files


def if_depth(node, depth=0) -> int:
    """The deepest nesting of `if` statements at or under node; an
    `elif` is an `if` inside the one before it."""
    depth += isinstance(node, ast.If)
    return max([depth] + [if_depth(child, depth)
                          for child in ast.iter_child_nodes(node)])


def limited_python(args, limit_mb: int):
    """Run a child Python on args, the package on its path, with its
    address space (RLIMIT_AS) held to limit_mb MiB: the limit is set in
    the child alone, after it forks."""
    import resource

    def limit():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = limit_mb << 20
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    src = str(Path(eat.__file__).parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=300, preexec_fn=limit,
                          env=dict(os.environ, PYTHONPATH=src))


class TestLargeShapesCompile:
    """The bay and the winner are dispatched by `match`, whose cases the
    compiler takes one after another, so no valid fleet or station count
    nests past its recursion bound (an `elif` chain did at about 3000
    UAVs or stations). Compile time and memory still grow with UAVs
    times stations; each child runs alone, under the limit it names."""

    def test_if_nesting_does_not_grow_with_the_shape(self):
        depths = {shape: if_depth(ast.parse(_source(*shape)))
                  for shape in [(1, 1), (8, 4), (64, 16)]}
        assert len(set(depths.values())) == 1, depths

    def test_3100_stations_compile(self):
        # 1 GiB of address space; the walk compiled in about 0.8 s on a
        # 2-core x86 host, in a child that peaked near 240 MB resident
        out = limited_python(["-c", "from uavsched.eat import _kernel\n"
                              "_kernel(1, 3100)"], 1024)
        assert out.returncode == 0, out.stderr

    def test_bundled_instance_with_3000_uavs_schedules(self, tmp_path):
        # 1.5 GiB of address space; the run took about 1.8 s on a 2-core
        # x86 host and peaked near 460 MB resident
        inst = sample_instance()
        fleet = tuple(dataclasses.replace(inst.uavs[k % len(inst.uavs)],
                                          id=f"U{k}") for k in range(3000))
        path = tmp_path / "fleet3000.json"
        path.write_text(json.dumps(instance_to_dict(
            dataclasses.replace(inst, uavs=fleet))))
        out = limited_python(["-m", "uavsched", "schedule", "--instance",
                              str(path)], 1536)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines()[-1].startswith("makespan: ")


def longest_sortie(schedule):
    """The most airborne seconds any UAV of the schedule flies between
    recharges, escape flight included: a sortie that ends in a recharge
    counts the flight into its station, and each UAV's last sortie the
    flight from its last position to the nearest station."""
    fm = schedule.instance.trajectory_map
    nearest = schedule.instance.compiled().nearest_leg
    longest = 0
    for acts in schedule.actions.values():
        airborne = 0
        for a in acts:
            if a.kind == R:
                longest = max(longest, airborne)
                airborne = 0
            elif a.kind in AIRBORNE_KINDS:
                airborne += a.end - a.start
        if acts:
            longest = max(longest,
                          airborne + nearest[fm.index[acts[-1].to_pos]])
    return longest


@st.composite
def margin_draws(draw):
    """A generated instance (1-40 tasks, 1-4 UAVs, 1-3 bays per station)
    and a repaired full sequence, with every UAV's battery cut to the
    longest sortie the default-capacity schedule of that sequence flies;
    draws whose cut instance fails validation are skipped."""
    spec = GenSpec(n_tasks=draw(st.integers(1, 40)),
                   seed=draw(st.integers(0, 2**20)),
                   max_predecessors=draw(st.integers(0, 3)),
                   n_uavs=draw(st.integers(1, 4)),
                   slots_per_station=draw(st.integers(1, 3)))
    inst = generate_instance(spec)
    seq = repair(draw(st.permutations([t.id for t in inst.tasks])), inst)
    cap = longest_sortie(build_schedule(inst, seq))
    try:
        inst = dataclasses.replace(inst, uavs=tuple(
            dataclasses.replace(u, battery_capacity=cap) for u in inst.uavs))
    except InstanceError:   # a task no longer fits the battery window
        assume(False)
    return inst, seq


class TestMarginHuggingBatteries:
    """Batteries cut to the longest sortie flown put a battery check of
    the constructor exactly at its margin (airborne time plus the task
    and its escape flight equal to the battery left), which generated
    draws at the default capacity almost never reach. There the
    constructor must match the reference and build a validator-clean
    schedule.

    The mutant `left[k] < 0` -> `left[k] <= 0` in `eat._construct` is
    equivalent and no test can kill it: after any task the battery left
    still holds the escape flight to the nearest station, which is
    positive, so `left[k]` is never 0 there.
    """

    @settings(max_examples=100, deadline=None)
    @given(margin_draws())
    def test_match_reference_and_validate_clean(self, draw):
        inst, seq = draw
        schedule = build_schedule(inst, seq)
        assert constructed(lambda: schedule) == \
            constructed(reference_construct, inst, seq, True)
        assert constructed(fitness, seq, inst) == \
            constructed(reference_construct, inst, seq, False)
        assert validate_schedule(schedule) == []


def with_slots(instance, slots):
    """The instance with every station's bay count replaced by
    slots[j] (a sequence) or slots (an int)."""
    if isinstance(slots, int):
        slots = [slots] * len(instance.stations)
    return dataclasses.replace(instance, stations=tuple(
        RechargeStation(s.pos, k) for s, k in zip(instance.stations, slots)))


class TestHugeBayCounts:
    """A station's bays are a count of unused ones plus the releases of
    the used ones: more bays than tasks schedule as n_tasks + 1 bays do,
    in memory that does not grow with the count."""

    def test_million_bays_in_little_memory(self):
        inst = generate_instance(GenSpec(n_tasks=40, seed=3))
        seq = repair([t.id for t in inst.tasks], inst)
        huge = with_slots(inst, 10**6)
        fitness([], huge)   # builds the view and compiles the walk once
        tracemalloc.start()
        try:
            schedule = build_schedule(huge, seq)
            makespan = fitness(seq, huge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a list of 10**6 bay releases alone takes 8 MB
        assert peak < 1_000_000, peak
        enough = with_slots(inst, len(inst.tasks) + 1)
        assert any(a.kind == R for acts in schedule.actions.values()
                   for a in acts)
        assert constructed(lambda: schedule) == \
            constructed(reference_construct, enough, seq, True)
        assert makespan == fitness(seq, enough) == schedule.makespan()

    @settings(max_examples=80, deadline=None)
    @given(pruning_draws(), st.data())
    def test_match_reference_with_enough_bays(self, draw, data):
        inst, seq = draw
        huge = data.draw(st.lists(st.booleans(), min_size=len(inst.stations),
                                  max_size=len(inst.stations)))
        counts = [s.slots for s in inst.stations]
        big = with_slots(inst, [10**6 if h else k
                                for h, k in zip(huge, counts)])
        enough = with_slots(inst, [len(inst.tasks) + 1 if h else k
                                   for h, k in zip(huge, counts)])
        assert constructed(build_schedule, big, seq) == \
            constructed(reference_construct, enough, seq, True)
        assert constructed(fitness, seq, big) == \
            constructed(reference_construct, enough, seq, False)
