"""The validator is exercised in both directions: the hand-frozen
reference timeline must come back clean, and a surgical mutation per
rule must be flagged with exactly that rule's kind."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavsched
from uavsched.eat import build_schedule
from uavsched.model import Action, ActionKind, Schedule
from uavsched.validate import validate_schedule

from conftest import FULL_COMPLETION, golden_schedule, inspect, make_instance

F, T, H, W, R = (ActionKind.FLIGHT, ActionKind.TASK_EXEC, ActionKind.HOVER,
                 ActionKind.WAIT_ON_GROUND, ActionKind.RECHARGE)


def kinds(violations):
    return {v.kind for v in violations}


def mutate(schedule, uav_id, index, **changes):
    acts = dict(schedule.actions)
    row = list(acts[uav_id])
    row[index] = dataclasses.replace(row[index], **changes)
    acts[uav_id] = row
    return Schedule(instance=schedule.instance, actions=acts)


def append(schedule, uav_id, action):
    acts = dict(schedule.actions)
    acts[uav_id] = list(acts[uav_id]) + [action]
    return Schedule(instance=schedule.instance, actions=acts)


class TestCleanSchedules:
    def test_hand_built_reference_timeline_is_clean(self, lab):
        assert validate_schedule(golden_schedule(lab)) == []

    def test_empty_schedule_is_clean(self, lab):
        s = Schedule(instance=lab, actions={u.id: [] for u in lab.uavs})
        assert validate_schedule(s) == []

    def test_subset_of_tasks_is_clean(self, lab):
        # Only tasks 3 and 2 scheduled; nothing demands completeness.
        s = golden_schedule(lab)
        acts = {
            "UAV1": s.actions["UAV1"][:2],
            "UAV2": [],
            "UAV3": s.actions["UAV3"][:2],
        }
        assert validate_schedule(Schedule(instance=lab, actions=acts)) == []


class TestPerActionRules:
    def test_negative_span(self, lab):
        s = append(golden_schedule(lab), "UAV3",
                   Action(H, 1125, 1120, "c", "c"))
        assert kinds(validate_schedule(s)) == {"negative_span"}

    def test_flight_duration_must_match_matrix(self, lab):
        s = golden_schedule(lab)
        s = mutate(s, "UAV3", 2, end=889)          # flight a->c is 131s
        s = mutate(s, "UAV3", 3, start=889, end=1124)
        assert kinds(validate_schedule(s)) == {"flight_duration"}

    def test_stationary_action_must_not_move(self, lab):
        s = append(golden_schedule(lab), "UAV3",
                   Action(H, 1125, 1200, "c", "b"))
        assert kinds(validate_schedule(s)) == {"action_shape"}

    def test_material_handling_exec_may_move(self, lab):
        # Task 1 runs e->f in the reference timeline; no shape finding.
        assert "action_shape" not in kinds(validate_schedule(
            golden_schedule(lab)))

    def test_recharge_off_station(self, lab):
        s = append(golden_schedule(lab), "UAV3",
                   Action(R, 1125, 3825, "c", "c"))
        assert kinds(validate_schedule(s)) == {"recharge_position"}

    def test_recharge_duration_fixed(self, lab):
        s = golden_schedule(lab)
        s = mutate(s, "UAV1", 5, end=3800)         # recharge 1143->3843
        s = mutate(s, "UAV1", 6, start=3800, end=3840)
        s = mutate(s, "UAV1", 7, start=3840, end=4318)
        assert kinds(validate_schedule(s)) == {"recharge_duration"}

    def test_ground_wait_off_station(self, lab):
        s = append(golden_schedule(lab), "UAV3",
                   Action(W, 1125, 1500, "c", "c"))
        assert kinds(validate_schedule(s)) == {"ground_wait_position"}


class TestZeroLengthActions:
    """An action with end == start is no violation by itself; whichever
    rule it breaks reports it."""

    def test_zero_length_hover_is_clean(self, lab):
        s = golden_schedule(lab)
        acts = dict(s.actions)
        row = list(acts["UAV2"])
        row.insert(3, Action(H, 625, 625, "d", "d"))  # between flight, hover
        acts["UAV2"] = row
        assert validate_schedule(Schedule(instance=lab, actions=acts)) == []
        assert validate_schedule(append(s, "UAV3",
                                        Action(H, 1125, 1125, "c", "c"))) == []

    def test_zero_length_flight_breaks_flight_duration_only(self, lab):
        s = append(golden_schedule(lab), "UAV3",
                   Action(F, 1125, 1125, "c", "R2"))
        got = validate_schedule(s)
        assert [v.kind for v in got] == ["flight_duration"]
        assert got[0].message == "UAV3: flight c->R2 lasts 0, matrix says 60"


class TestUnknownPositions:
    """A position the map does not know is reported, never raised."""

    def unknown(self, schedule):
        got = validate_schedule(schedule)
        return [(v.kind, v.position) for v in got
                if v.kind == "unknown_position"], kinds(got)

    def test_flight_to_unknown_position(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 2, to_pos="zz")
        found, got = self.unknown(s)
        assert found == [("unknown_position", "zz")]
        assert "flight_duration" not in got

    def test_flight_from_unknown_position(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 2, from_pos="zz")
        found, got = self.unknown(s)
        assert found == [("unknown_position", "zz")]
        assert got == {"unknown_position", "spatial_continuity"}

    def test_hover_at_unknown_position(self, lab):
        s = append(golden_schedule(lab), "UAV3",
                   Action(H, 1125, 1200, "zz", "zz"))
        found, _ = self.unknown(s)
        assert found == [("unknown_position", "zz")]

    def test_recharge_at_unknown_position(self, lab):
        s = append(golden_schedule(lab), "UAV3",
                   Action(R, 1125, 3825, "zz", "zz", station="zz"))
        found, got = self.unknown(s)
        assert found == [("unknown_position", "zz")]
        assert "recharge_position" in got

    def test_task_at_unknown_position(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 3, to_pos="zz")
        found, got = self.unknown(s)
        assert found == [("unknown_position", "zz")]
        assert "task_position" in got


class TestUnknownKinds:
    """A kind that is not an ActionKind member is reported, never
    raised, and no kind-dependent check runs on it."""

    @pytest.mark.parametrize("kind", ["flight", None, "bogus", ["flight"]])
    def test_first_flight(self, lab, kind):
        # a plain "flight" equals ActionKind.FLIGHT but is not the member
        s = build_schedule(lab, FULL_COMPLETION)
        got = validate_schedule(mutate(s, "UAV1", 0, kind=kind))
        assert [(v.kind, str(v), v.uav_id, v.tstp) for v in got] == [
            ("action_kind",
             f"[action_kind] UAV1: action kind {kind!r} is not an ActionKind",
             "UAV1", 0)]

    def test_messages_name_it_by_repr(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 2, kind="hover", start=760)
        assert [str(v) for v in validate_schedule(s)] == [
            "[action_kind] UAV3: action kind 'hover' is not an ActionKind",
            "[timeline_gap] UAV3: task_exec ends 759 but 'hover' starts 760",
        ]

    def test_not_a_task_execution(self, lab):
        # task 2 is not executed, so its successors miss a predecessor
        s = mutate(golden_schedule(lab), "UAV1", 1, kind="task_exec")
        assert [(v.kind, v.task_id) for v in validate_schedule(s)] == [
            ("action_kind", None), ("precedence", 6), ("precedence", 5)]


class TestTimelineRules:
    def test_gap_between_actions(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 3, start=891, end=1126)
        assert kinds(validate_schedule(s)) == {"timeline_gap"}

    def test_overlap_between_actions(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 3, start=889, end=1124)
        assert kinds(validate_schedule(s)) == {"timeline_overlap"}

    def test_first_action_must_leave_initial_position(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 0, from_pos="R1")
        got = kinds(validate_schedule(s))
        assert "spatial_continuity" in got

    def test_mid_chain_teleport(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 2, from_pos="b")
        assert "spatial_continuity" in kinds(validate_schedule(s))

    def test_unknown_uav(self, lab):
        s = golden_schedule(lab)
        acts = dict(s.actions)
        acts["UAV9"] = []
        got = validate_schedule(Schedule(instance=lab, actions=acts))
        assert kinds(got) == {"unknown_uav"}


class TestTaskRules:
    def test_unknown_task_id(self, lab):
        s = append(golden_schedule(lab), "UAV3",
                   Action(T, 1125, 1160, "c", "c", task_id=99))
        assert kinds(validate_schedule(s)) == {"unknown_task"}

    def test_duplicate_execution(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 3, task_id=2)
        assert kinds(validate_schedule(s)) == {"duplicate_task"}

    def test_wrong_duration(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 3, end=1120)
        assert kinds(validate_schedule(s)) == {"task_duration"}

    def test_wrong_position(self, lab):
        s = mutate(golden_schedule(lab), "UAV3", 3, to_pos="f")
        assert kinds(validate_schedule(s)) == {"task_position"}

    def test_missing_predecessor(self, lab):
        # Task 2 (predecessor of 5 and 6) replaced by an equal hover.
        s = mutate(golden_schedule(lab), "UAV1", 1, task_id=None, kind=H)
        got = validate_schedule(s)
        orphans = {v.task_id for v in got
                   if v.kind == "precedence" and "without" in v.message}
        assert orphans == {5, 6}

    def test_predecessor_order(self):
        tasks = [inspect(1, "a", 100), inspect(2, "b", 50, preds=[1])]
        inst = make_instance(tasks, n_uavs=2)
        s = Schedule(instance=inst, actions={
            "UAV1": [Action(F, 0, 20, "R1", "a"),
                     Action(T, 20, 120, "a", "a", task_id=1)],
            "UAV2": [Action(F, 0, 20, "R2", "b"),
                     Action(T, 20, 70, "b", "b", task_id=2)],
        })
        assert kinds(validate_schedule(s)) == {"precedence"}

    def test_position_exclusivity(self):
        tasks = [inspect(1, "a", 100), inspect(2, "a", 50)]
        inst = make_instance(tasks, n_uavs=2)
        s = Schedule(instance=inst, actions={
            "UAV1": [Action(F, 0, 20, "R1", "a"),
                     Action(T, 20, 120, "a", "a", task_id=1)],
            "UAV2": [Action(F, 0, 40, "R2", "a"),
                     Action(T, 40, 90, "a", "a", task_id=2)],
        })
        assert kinds(validate_schedule(s)) == {"position_exclusivity"}


# Two hauls a -> b that overlap on two UAVs; prints the positions of
# the exclusivity findings, in order.
_HAUL_OVERLAP = """
from conftest import haul, make_instance
from uavsched.model import Action, ActionKind, Schedule
from uavsched.validate import validate_schedule
F, T = ActionKind.FLIGHT, ActionKind.TASK_EXEC
inst = make_instance([haul(1, "a", "b", 100), haul(2, "a", "b", 100)])
s = Schedule(instance=inst, actions={
    "UAV1": [Action(F, 0, 20, "R1", "a"),
             Action(T, 20, 120, "a", "b", task_id=1)],
    "UAV2": [Action(F, 0, 40, "R2", "a"),
             Action(T, 40, 140, "a", "b", task_id=2)],
})
print(",".join(v.position for v in validate_schedule(s)
               if v.kind == "position_exclusivity"))
"""


class TestExclusivityOrder:
    """A material-handling task's start position is checked before its
    end position, whatever the process's string hashing."""

    def test_start_before_end_under_any_hash_seed(self):
        # seeds 2 and 3 reversed the order when a set held the positions
        seeds = ["0", "2", "3"]
        paths = [str(Path(uavsched.__file__).parents[1]),
                 str(Path(__file__).parent)]
        procs = [subprocess.Popen(
            [sys.executable, "-c", _HAUL_OVERLAP], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=os.pathsep.join(paths)))
            for seed in seeds]     # run side by side, a few at most
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0] * len(seeds), outs
        assert [out.strip() for out, _ in outs] == ["a,b"] * len(seeds)


class TestResourceRules:
    def test_airborne_stretch_over_battery(self):
        inst = make_instance([inspect(1, "a", 100)], n_uavs=1)
        s = Schedule(instance=inst, actions={
            "UAV1": [Action(F, 0, 20, "R1", "a"),
                     Action(H, 20, 1500, "a", "a"),
                     Action(T, 1500, 1600, "a", "a", task_id=1)],
        })
        assert kinds(validate_schedule(s)) == {"battery"}

    def test_wait_on_ground_resets_airborne_stretch(self):
        # Same span but grounded at a station in the middle: clean.
        inst = make_instance([inspect(1, "a", 100)], n_uavs=1)
        s = Schedule(instance=inst, actions={
            "UAV1": [Action(F, 0, 20, "R1", "a"),
                     Action(F, 20, 40, "a", "R1"),
                     Action(W, 40, 1520, "R1", "R1", station="R1"),
                     Action(F, 1520, 1540, "R1", "a"),
                     Action(T, 1540, 1640, "a", "a", task_id=1)],
        })
        assert validate_schedule(s) == []

    def test_bay_capacity(self):
        inst = make_instance([inspect(1, "a", 100)], n_uavs=2, slots=1)
        s = Schedule(instance=inst, actions={
            "UAV1": [Action(R, 0, 2700, "R1", "R1", station="R1")],
            "UAV2": [Action(F, 0, 50, "R2", "R1"),
                     Action(R, 50, 2750, "R1", "R1", station="R1")],
        })
        assert kinds(validate_schedule(s)) == {"bay_capacity"}

    def test_two_bays_allow_concurrency(self, lab):
        # The bundled stations have two bays each: two overlapping
        # recharges at R1 are legal.
        s = Schedule(instance=lab, actions={
            "UAV1": [Action(R, 0, 2700, "R1", "R1", station="R1")],
            "UAV2": [Action(R, 0, 2700, "R1", "R1", station="R1")],
            "UAV3": [],
        })
        assert validate_schedule(s) == []
