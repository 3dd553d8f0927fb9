import pytest

from uavsched.model import (
    Action,
    ActionKind,
    InstanceError,
    Position,
    PositionKind,
    PrecedenceGraph,
    ProblemInstance,
    RechargeStation,
    Schedule,
    Task,
    TaskType,
    TrajectoryMap,
    Uav,
    UnknownPositionError,
    infer_task_type,
    nearest_recharge_station,
    task_upper_bound_time,
    worst_case_engagement_time,
)
from uavsched.io import read_task_csv

from conftest import SMALL_MAP, haul, inspect, make_instance


class TestTrajectoryMap:
    def test_lookup_is_symmetric(self):
        assert SMALL_MAP.flight_time("a", "b") == 30
        assert SMALL_MAP.flight_time("b", "a") == 30
        assert SMALL_MAP.flight_time("a", "a") == 0

    def test_unknown_position(self):
        with pytest.raises(UnknownPositionError):
            SMALL_MAP.flight_time("a", "nowhere")

    def test_rejects_asymmetry(self):
        with pytest.raises(InstanceError):
            TrajectoryMap((Position("a"), Position("b")), ((0, 5), (6, 0)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InstanceError):
            TrajectoryMap((Position("a"), Position("b")), ((1, 5), (5, 0)))

    def test_rejects_nonpositive_off_diagonal(self):
        with pytest.raises(InstanceError):
            TrajectoryMap((Position("a"), Position("b")), ((0, 0), (0, 0)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InstanceError):
            TrajectoryMap((Position("a"), Position("b")), ((0, 5),))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InstanceError):
            TrajectoryMap((Position("a"), Position("a")), ((0, 5), (5, 0)))

    def test_work_positions(self):
        assert SMALL_MAP.work_positions() == ["a", "b"]


class TestTask:
    def test_predecessors_sorted_and_deduped(self):
        t = Task(5, TaskType.SINGLE_INSPECTION, "a", "a", 10, (3, 1, 3))
        assert t.predecessors == (1, 3)

    @pytest.mark.parametrize("start, end, proc, expected", [
        ("a", "a", 80, TaskType.SINGLE_INSPECTION),
        ("a", "a", 81, TaskType.COMPOUND_INSPECTION),
        ("a", "b", 80, TaskType.MATERIAL_HANDLING),
        ("a", "b", 81, TaskType.MATERIAL_HANDLING),
    ])
    def test_type_rule_boundaries(self, tmp_path, start, end, proc, expected):
        assert infer_task_type(start, end, proc) == expected
        path = tmp_path / "tasks.csv"
        path.write_text("TaskID,Start,End,ProcTime,Precedence\n"
                        f"1,{start},{end},{proc},-\n")
        assert read_task_csv(path)[0].type == expected


class TestPrecedenceGraph:
    def _graph(self, *tasks):
        return PrecedenceGraph.from_tasks(tasks)

    def test_topological_order_respects_edges(self):
        g = self._graph(inspect(1, "a", 5), inspect(2, "a", 5, [1]),
                        inspect(3, "a", 5, [1]), inspect(4, "a", 5, [2, 3]))
        order = g.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        assert pos[1] < pos[2] and pos[1] < pos[3]
        assert pos[2] < pos[4] and pos[3] < pos[4]

    def test_cycle_detected(self):
        a = Task(1, TaskType.SINGLE_INSPECTION, "a", "a", 5, (2,))
        b = Task(2, TaskType.SINGLE_INSPECTION, "a", "a", 5, (1,))
        with pytest.raises(InstanceError):
            self._graph(a, b).topological_order()

    def test_transitive_closures(self):
        g = self._graph(inspect(1, "a", 5), inspect(2, "a", 5, [1]),
                        inspect(3, "a", 5, [2]))
        assert g.transitive_predecessors()[3] == {1, 2}
        assert g.transitive_successors()[1] == {2, 3}

    def test_redundant_edge_reported(self):
        # 1 -> 2 -> 3 plus shortcut 1 -> 3
        g = self._graph(inspect(1, "a", 5), inspect(2, "a", 5, [1]),
                        inspect(3, "a", 5, [1, 2]))
        assert g.redundant_edges() == [(1, 3)]


class TestInstanceValidation:
    def test_sample_passes(self, lab):
        lab.validate()

    def test_duplicate_task_ids(self):
        with pytest.raises(InstanceError, match="duplicate task"):
            make_instance([inspect(1, "a", 5), inspect(1, "b", 5)])

    def test_unknown_predecessor(self):
        with pytest.raises(InstanceError, match="unknown predecessor 9"):
            make_instance([inspect(1, "a", 5, [9])])

    def test_nonpositive_proc_time(self):
        with pytest.raises(InstanceError, match="proc_time"):
            make_instance([inspect(1, "a", 0)])

    def test_redundant_edge_rejected(self):
        with pytest.raises(InstanceError, match="redundant"):
            make_instance([inspect(1, "a", 5), inspect(2, "a", 5, [1]),
                           inspect(3, "a", 5, [1, 2])])

    def test_cycle_rejected(self):
        t1 = Task(1, TaskType.SINGLE_INSPECTION, "a", "a", 5, (2,))
        t2 = Task(2, TaskType.SINGLE_INSPECTION, "a", "a", 5, (1,))
        with pytest.raises(InstanceError, match="cycle"):
            make_instance([t1, t2])

    def test_task_on_recharge_position_rejected(self):
        with pytest.raises(InstanceError, match="non-work"):
            make_instance([inspect(1, "R1", 5)])

    def test_station_must_sit_on_recharge_position(self):
        with pytest.raises(InstanceError, match="recharge-kind"):
            ProblemInstance(trajectory_map=SMALL_MAP,
                            stations=(RechargeStation("a"),
                                      RechargeStation("R1"),
                                      RechargeStation("R2")),
                            tasks=(inspect(1, "b", 5),),
                            uavs=(Uav("UAV1", "R2"),))

    def test_inspection_must_not_move(self):
        bad = Task(1, TaskType.COMPOUND_INSPECTION, "a", "b", 120)
        with pytest.raises(InstanceError, match="one position"):
            make_instance([bad])

    def test_tasks_without_fleet_rejected(self):
        with pytest.raises(InstanceError, match="no UAVs"):
            make_instance([inspect(1, "a", 5)], n_uavs=0)

    def test_oversized_task_rejected(self):
        # Worst-case engagement beyond the battery must not validate.
        with pytest.raises(InstanceError, match="battery"):
            make_instance([inspect(1, "a", 2000)])

    def test_unknown_task_lookup(self, lab):
        with pytest.raises(Exception, match="unknown task"):
            lab.task(99)

    def test_compiled_escape_seconds(self, lab):
        # Each task's compiled entry carries the flight from its end
        # position to the nearest station.
        compiled = lab.compiled()
        assert compiled is lab.compiled()
        for t in lab.tasks:
            assert compiled.tasks[compiled.task_index[t.id]][3] == min(
                lab.trajectory_map.flight_time(t.end_pos, s.pos)
                for s in lab.stations)


class TestGeometryHelpers:
    def test_nearest_station_prefers_shortest_leg(self):
        st = (RechargeStation("R1"), RechargeStation("R2"))
        got, secs = nearest_recharge_station(SMALL_MAP, "b", st)
        assert (got.pos, secs) == ("R2", 20)

    def test_nearest_station_tie_keeps_listing_order(self):
        fm = TrajectoryMap(
            (Position("a"), Position("R1", PositionKind.RECHARGE),
             Position("R2", PositionKind.RECHARGE)),
            ((0, 7, 7), (7, 0, 9), (7, 9, 0)))
        st = (RechargeStation("R1"), RechargeStation("R2"))
        got, secs = nearest_recharge_station(fm, "a", st)
        assert (got.pos, secs) == ("R1", 7)

    def test_no_stations_is_an_error(self):
        with pytest.raises(InstanceError):
            nearest_recharge_station(SMALL_MAP, "a", ())

    def test_task_upper_bound_adds_escape(self):
        t = haul(1, "a", "b", 100)
        st = (RechargeStation("R1"), RechargeStation("R2"))
        # prep 20 + proc 100 + escape b->R2 20
        assert task_upper_bound_time(20, t, SMALL_MAP, st) == 140

    def test_worst_case_engagement_fits_battery(self, lab):
        worst = worst_case_engagement_time(lab.task(3), lab.trajectory_map,
                                           lab.stations)
        assert worst <= lab.min_battery_capacity()


class TestSchedule:
    def test_makespan_empty(self, lab):
        s = Schedule(instance=lab, actions={u.id: [] for u in lab.uavs})
        assert s.makespan() == 0

    def test_makespan_and_order(self, lab):
        s = Schedule(instance=lab, actions={
            "UAV2": [Action(ActionKind.FLIGHT, 0, 260, "R1", "e")],
            "UAV1": [Action(ActionKind.FLIGHT, 0, 60, "R1", "c")],
        })
        assert s.makespan() == 260
        assert s.uav_order() == ["UAV1", "UAV2"]

    def test_task_executions_index(self, lab):
        a = Action(ActionKind.TASK_EXEC, 60, 305, "c", "c", task_id=2)
        s = Schedule(instance=lab, actions={"UAV1": [a]})
        assert s.task_executions() == {2: ("UAV1", a)}
