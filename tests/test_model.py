import copy
import dataclasses
import json
import pickle
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched import model
from uavsched.datagen import GenSpec, generate_instance
from uavsched.eat import build_schedule
from uavsched.model import (
    Action,
    ActionKind,
    InstanceError,
    Position,
    PositionKind,
    ProblemInstance,
    RechargeStation,
    Schedule,
    Task,
    TaskType,
    TrajectoryMap,
    Uav,
    UnknownPositionError,
    _check_precedence,
    _closure,
    _decode,
    exact_int,
    infer_task_type,
    position_tables,
    validate_precedence,
)
from uavsched.io import instance_to_dict, read_task_csv
from uavsched.pso import PsoConfig, fitness, run_pso
from uavsched.sampledata import sample_instance
from uavsched.sequences import priority_orderings, repair

from conftest import SMALL_MAP, haul, inspect, make_instance
from oracles import (
    CycleError,
    PrecedenceGraph,
    nearest_recharge_station,
    reference_compiled,
    reference_position_tables,
    worst_case_engagement_time,
)


class TestTrajectoryMap:
    def test_lookup_is_symmetric(self):
        assert SMALL_MAP.flight_time("a", "b") == 30
        assert SMALL_MAP.flight_time("b", "a") == 30
        assert SMALL_MAP.flight_time("a", "a") == 0

    def test_unknown_position(self):
        with pytest.raises(UnknownPositionError):
            SMALL_MAP.flight_time("a", "nowhere")

    @pytest.mark.parametrize("src, dst, named", [
        ("a", "x", "'x'"), ("x", "a", "'x'"), ("x", "y", "'x'")])
    def test_unknown_position_names_the_first(self, src, dst, named):
        with pytest.raises(UnknownPositionError,
                           match=f"^unknown position {named}$"):
            SMALL_MAP.flight_time(src, dst)

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

    @pytest.mark.parametrize("seconds", [((0, 1), (1,)), ((0,), (1, 0)),
                                         ((0, 1), (1, 0, 2))])
    def test_rejects_ragged_rows(self, seconds):
        # numpy cannot build an array of rows of different lengths
        with pytest.raises(InstanceError, match=r"^flight time matrix is "
                           r"ragged, expected \(2, 2\)$"):
            TrajectoryMap((Position("a"), Position("b")), seconds)

    @pytest.mark.parametrize("row", [5, None, 1.5])
    def test_rejects_a_row_that_is_not_a_sequence(self, row):
        with pytest.raises(InstanceError, match=(
                rf"^flight time matrix row 1 is not a sequence: {row!r}$")):
            TrajectoryMap((Position("a"), Position("b")), ((0, 1), row))
        with pytest.raises(InstanceError, match=(
                rf"^flight time matrix is not a sequence: {row!r}$")):
            TrajectoryMap((Position("a"),), row)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InstanceError):
            TrajectoryMap((Position("a"), Position("a")), ((0, 5), (5, 0)))

    @pytest.mark.parametrize("far", [2**70, -2**70, 2**63])
    def test_flight_time_beyond_int64(self, far):
        # the matrix checks run on int64, and an input error must be an
        # InstanceError
        with pytest.raises(InstanceError,
                           match=f"^flight time {far} does not fit in int64$"):
            TrajectoryMap((Position("a"), Position("b")), ((0, far), (far, 0)))

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
    """The one precedence walk: `_check_precedence`'s dense lists and
    `_decode` over all of them."""

    def _graph(self, *tasks):
        return _check_precedence([(t.id, t.predecessors) for t in tasks])

    def test_topological_order_respects_edges(self):
        _, _, index, preds, succs = self._graph(
            inspect(1, "a", 5), inspect(2, "a", 5, [1]),
            inspect(3, "a", 5, [1]), inspect(4, "a", 5, [2, 3]))
        ids = list(index)
        order = [ids[d] for d in _decode(range(len(ids)), preds, succs)]
        pos = {t: i for i, t in enumerate(order)}
        assert pos[1] < pos[2] and pos[1] < pos[3]
        assert pos[2] < pos[4] and pos[3] < pos[4]

    def test_direct_neighbours_ascending(self):
        _, _, index, preds, succs = _check_precedence(
            [(4, [3, 2, 3]), (3, [1]), (2, [1]), (1, [])])
        assert index == {1: 0, 2: 1, 3: 2, 4: 3}
        assert preds == ((), (0,), (0,), (1, 2))
        assert succs == ((1, 2), (3,), (3,), ())

    def test_cycle_detected(self):
        a = Task(1, TaskType.SINGLE_INSPECTION, "a", "a", 5, (2,))
        b = Task(2, TaskType.SINGLE_INSPECTION, "a", "a", 5, (1,))
        findings, _, _, preds, succs = self._graph(a, b)
        assert findings == ["cycle among tasks [1, 2]"]
        assert _decode(range(2), preds, succs) == []
        with pytest.raises(InstanceError,
                           match=r"^cycle among tasks \[1, 2\]$"):
            make_instance([a, b])

    def test_transitive_closures(self):
        _, _, index, preds, succs = self._graph(
            inspect(1, "a", 5), inspect(2, "a", 5, [1]),
            inspect(3, "a", 5, [2]))
        order = _decode(range(len(index)), preds, succs)
        assert _closure(reversed(order), succs)[index[1]] == {
            index[2], index[3]}

    def test_redundant_edge_reported(self):
        # 1 -> 2 -> 3 plus shortcut 1 -> 3
        findings, redundant, *_ = self._graph(
            inspect(1, "a", 5), inspect(2, "a", 5, [1]),
            inspect(3, "a", 5, [1, 2]))
        assert redundant == [(1, 3)]
        assert findings == [
            "edge 1 -> 3 is redundant (implied by a longer path)"]


def graph_validate_precedence(tasks) -> list[str]:
    """`validate_precedence` as it ran on the id-keyed `PrecedenceGraph`."""
    counts = Counter(t.id for t in tasks)
    problems = [f"task {tid} appears more than once"
                for tid in sorted(tid for tid, c in counts.items() if c > 1)]
    preds: dict[int, set[int]] = {tid: set() for tid in counts}
    for t in tasks:
        for p in t.predecessors:
            if p not in counts:
                problems.append(
                    f"task {t.id} references unknown predecessor {p}")
            elif p == t.id:
                problems.append(f"task {t.id} depends on itself")
            else:
                preds[t.id].add(p)
    try:
        problems += [f"edge {u} -> {v} is redundant (implied by a longer path)"
                     for u, v in PrecedenceGraph(preds).redundant_edges()]
    except CycleError as exc:
        problems.append(f"cycle among tasks {exc.tasks}")
    return problems


@st.composite
def raw_task_lists(draw, clean=False):
    """Tasks with sparse ids, listed shuffled. Half the lists only draw
    predecessors from tasks earlier in an id order that is mostly not
    ascending, so they are acyclic and often hold redundant edges; the
    rest draw from every task, so cycles come up. Unless clean, an id
    may repeat and a predecessor may be unknown or the task itself."""
    ids = draw(st.lists(st.integers(0, 10**6), max_size=12, unique=True))
    acyclic = draw(st.booleans())
    tasks = []
    for k, tid in enumerate(ids):
        copies = 1 if clean else draw(st.integers(1, 2))
        for _ in range(copies):
            pool = ids[:k] if acyclic else [p for p in ids if p != tid]
            picks = [st.sampled_from(pool)] if pool else []
            if not clean:
                picks += [st.integers(0, 10**6), st.just(tid)]
            preds = draw(st.lists(st.one_of(picks), max_size=4)) \
                if picks else []
            tasks.append(Task(tid, TaskType.SINGLE_INSPECTION, "a", "a", 30,
                              tuple(preds)))
    return draw(st.permutations(tasks))


class TestPrecedenceMatchesOracle:
    @settings(max_examples=500, deadline=None)
    @given(raw_task_lists())
    def test_findings_equal(self, tasks):
        assert validate_precedence(tasks) == graph_validate_precedence(tasks)

    @settings(max_examples=500, deadline=None)
    @given(raw_task_lists(clean=True))
    def test_walk_equals_kahn(self, tasks):
        graph = PrecedenceGraph({t.id: t.predecessors for t in tasks})
        _, _, index, preds, succs = _check_precedence(
            [(t.id, t.predecessors) for t in tasks])
        ids = list(index)
        walked = [ids[d] for d in _decode(range(len(ids)), preds, succs)]
        try:
            assert walked == graph.topological_order()
        except CycleError as exc:
            assert sorted(set(ids).difference(walked)) == exc.tasks

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
        # Worst-case engagement beyond the battery must not validate:
        # flight in from b (40 s), 2000 s of work, 20 s out to R1.
        with pytest.raises(InstanceError) as exc:
            make_instance([inspect(1, "a", 5), inspect(2, "a", 2000)])
        assert str(exc.value) == (
            "task 2 cannot fit any battery window: worst-case airborne "
            "time 2060 > capacity 1200")

    @pytest.mark.parametrize("start, end, error, message", [
        ("zz", "a", UnknownPositionError, "unknown position 'zz'"),
        ("a", "zz", UnknownPositionError, "unknown position 'zz'"),
        ("R1", "a", InstanceError,
         "task 1 starts at non-work position 'R1'"),
        ("a", "R2", InstanceError, "task 1 ends at non-work position 'R2'"),
        # the start is checked before the end
        ("R1", "zz", InstanceError,
         "task 1 starts at non-work position 'R1'"),
        ("zz", "R1", UnknownPositionError, "unknown position 'zz'"),
    ])
    def test_task_endpoints_must_be_work_positions(self, start, end, error,
                                                   message):
        with pytest.raises(error) as exc:
            make_instance([haul(1, start, end, 10)])
        assert str(exc.value) == message
        assert type(exc.value) is error

    def test_unknown_task_lookup(self, lab):
        with pytest.raises(Exception, match="unknown task"):
            lab.task(99)

    def test_one_graph_per_validation(self, lab):
        built = []
        check = model._check_precedence

        def recording_check(pairs):
            built.append(pairs)
            return check(pairs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_check_precedence", recording_check)
            inst = ProblemInstance(trajectory_map=lab.trajectory_map,
                                   stations=lab.stations, tasks=lab.tasks,
                                   uavs=lab.uavs)
            assert len(built) == 1
            priority_orderings(inst)
            inst.compiled()
        assert len(built) == 1

    def test_one_table_build_per_validation(self, lab):
        built = []

        def recording_tables(trajectory_map, stations):
            built.append(stations)
            return position_tables(trajectory_map, stations)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "position_tables", recording_tables)
            inst = ProblemInstance(trajectory_map=lab.trajectory_map,
                                   stations=lab.stations, tasks=lab.tasks,
                                   uavs=lab.uavs)
            assert len(built) == 1
            inst.compiled()
        assert len(built) == 1

    def test_compiled_escape_seconds(self, lab):
        # Each task's compiled entry carries the flight from its end
        # position to the nearest station.
        compiled = lab.compiled()
        assert compiled is lab.compiled()
        for t in lab.tasks:
            assert compiled.tasks[compiled.task_index[t.id]][3] == min(
                lab.trajectory_map.flight_time(t.end_pos, s.pos)
                for s in lab.stations)

    def test_first_listed_task_over_the_window_is_named(self):
        # both break the battery window; the error names the one listed
        # first, not the lower id
        with pytest.raises(InstanceError) as exc:
            make_instance([inspect(1, "a", 5), inspect(3, "a", 2000),
                           inspect(2, "a", 3000)])
        assert str(exc.value) == (
            "task 3 cannot fit any battery window: worst-case airborne "
            "time 2060 > capacity 1200")


class TestNothingWrittenAfterConstruction:
    def test_readers_leave_the_instance_as_built(self):
        inst = sample_instance()
        before = dict(vars(inst))
        seq = repair(sorted(inst.tasks_by_id, reverse=True), inst)
        inst.compiled()
        fitness(seq, inst)
        build_schedule(inst, seq)
        priority_orderings(inst)
        run_pso(inst, PsoConfig(swarm_size=8, max_iterations=2))
        after = vars(inst)
        assert after.keys() == before.keys()
        assert all(after[k] is v for k, v in before.items())


@st.composite
def shuffled_instances(draw):
    """A generated instance rebuilt with its tasks and stations listed
    in a drawn order and a fleet of drawn starts, batteries and recharge
    times; without tasks a UAV may start out of every station's reach."""
    base = generate_instance(GenSpec(
        n_tasks=draw(st.integers(0, 30)), seed=draw(st.integers(0, 10 ** 6)),
        max_predecessors=draw(st.integers(0, 3)),
        n_uavs=draw(st.integers(1, 5)),
        slots_per_station=draw(st.integers(1, 3))))
    positions = [p.id for p in base.trajectory_map.positions]
    low = 1200 if base.tasks else 1    # the generated tasks fit 1200 s
    uavs = tuple(Uav(u.id, draw(st.sampled_from(positions)),
                     draw(st.integers(low, 5000)), draw(st.integers(1, 5000)))
                 for u in base.uavs)
    return ProblemInstance(trajectory_map=base.trajectory_map,
                           stations=draw(st.permutations(base.stations)),
                           tasks=draw(st.permutations(base.tasks)),
                           uavs=uavs)


class TestCompiledMatchesLazyBuild:
    @settings(max_examples=200, deadline=None)
    @given(shuffled_instances())
    def test_view_equals_reference(self, inst):
        got, want = inst.compiled(), reference_compiled(inst)
        assert got == want
        assert list(got.task_index) == list(want.task_index)


class TestExactInt:
    @pytest.mark.parametrize("value", [0, 7, -3, 10**30])
    def test_int_is_returned_as_is(self, value):
        assert exact_int(value) is value

    @pytest.mark.parametrize("value, want", [
        (3.0, 3), (np.int64(7), 7), (np.float64(-2.0), -2)])
    def test_integral_numbers_read_as_int(self, value, want):
        got = exact_int(value)
        assert got == want and type(got) is int

    @pytest.mark.parametrize("value", [
        True, False, np.bool_(True), 2.5, float("nan"), float("inf"), "3",
        None, [1]])
    def test_other_values_are_none(self, value):
        assert exact_int(value) is None


# Forms a numeric field of an instance can take: the integral ones are
# read as the int, the others raise InstanceError naming the field.
INTEGRAL_FORMS = {
    "int": lambda v: v,
    "integral float": float,
    "numpy integer": np.int64,
    "integral numpy float": np.float64,
}
REJECTED_FORMS = {
    "fractional float": lambda v: v + 0.5,
    "fractional numpy float": lambda v: np.float32(v + 0.25),
    "bool": lambda v: v % 2 == 1,
}
FORMS = {**INTEGRAL_FORMS, **REJECTED_FORMS}


def pair_map(seconds):
    """A two-position map with seconds between a and b."""
    return TrajectoryMap((Position("a"), Position("b")),
                         ((0, seconds), (seconds, 0)))


class TestIntegerRule:
    """Every id, count and duration of an instance is an integer by
    `exact_int`, checked when its object is built: an integral value is
    stored as an int, anything else raises InstanceError naming the
    field."""

    @pytest.mark.parametrize("build, message", [
        (lambda: RechargeStation("R1", slots=1.5),
         "slots must be an integer, not 1.5"),
        (lambda: inspect(1, "a", 10.5),
         "proc_time must be an integer, not 10.5"),
        (lambda: inspect(1, "a", True),
         "proc_time must be an integer, not True"),
        (lambda: Uav("UAV1", "R1", battery_capacity=1200.5),
         "battery_capacity must be an integer, not 1200.5"),
        (lambda: Uav("UAV1", "R1", recharge_duration="2700"),
         "recharge_duration must be an integer, not '2700'"),
        (lambda: pair_map(108.7), "flight time must be an integer, not 108.7"),
        (lambda: pair_map("12"), "flight time must be an integer, not '12'"),
        (lambda: pair_map(float("nan")),
         "flight time must be an integer, not nan"),
        (lambda: inspect(2.5, "a", 10),
         "task id must be an integer, not 2.5"),
        (lambda: inspect(2, "a", 10, [np.bool_(True)]),
         "predecessor id must be an integer, not "),
        (lambda: inspect(2, "a", float("inf")),
         "proc_time must be an integer, not inf"),
    ])
    def test_constructors_reject(self, build, message):
        with pytest.raises(InstanceError) as exc:
            build()
        assert str(exc.value).startswith(message)

    def test_integral_values_stored_as_int(self):
        t = Task(id=3.0, type=TaskType.SINGLE_INSPECTION, start_pos="a",
                 end_pos="a", proc_time=30.0, predecessors=(np.int64(2), 1.0))
        assert (t.id, t.proc_time, t.predecessors) == (3, 30, (1, 2))
        u = Uav("UAV1", "R1", np.float64(1200), np.int32(2700))
        s = RechargeStation("R1", np.uint8(2))
        fm = pair_map(np.float32(5))
        assert fm.seconds == ((0, 5), (5, 0))
        for value in (t.id, t.proc_time, *t.predecessors, u.battery_capacity,
                      u.recharge_duration, s.slots, *fm.seconds[0]):
            assert type(value) is int

    def test_replace_checks_again(self):
        with pytest.raises(InstanceError, match="^battery_capacity"):
            dataclasses.replace(Uav("UAV1", "R1"), battery_capacity=0.5)
        with pytest.raises(InstanceError, match="^slots"):
            dataclasses.replace(RechargeStation("R1"), slots=True)
        assert dataclasses.replace(inspect(1, "a", 5), proc_time=7.0) \
            .proc_time == 7

    def test_fractional_slots_raise_at_the_station(self):
        # the constructor counts a station's unused bays down to 0, which
        # 1.5 never reaches, while the validator holds 1.5 as the limit
        inst = generate_instance(GenSpec(n_tasks=60, seed=3, n_uavs=5))
        with pytest.raises(InstanceError,
                           match=r"^slots must be an integer, not 1\.5$"):
            dataclasses.replace(inst, stations=tuple(
                RechargeStation(s.pos, 1.5) for s in inst.stations))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 2**20), st.integers(1, 3),
           st.integers(1, 3), st.booleans(),
           st.randoms(use_true_random=False))
    def test_each_field_is_read_or_named(self, n_tasks, seed, n_uavs, slots,
                                         integral, rnd):
        """Every numeric field of a generated instance drawn in one of
        FORMS: the rebuilt instance raises at the first rejected field,
        in build order, or equals the all-int one and schedules alike."""
        inst = generate_instance(GenSpec(n_tasks=n_tasks, seed=seed,
                                         n_uavs=n_uavs,
                                         slots_per_station=slots))
        forms = sorted(INTEGRAL_FORMS if integral else FORMS)
        drawn = []      # (field, rejected), in the order they are built

        def reform(value, field):
            form = rnd.choice(forms)
            drawn.append((field, form in REJECTED_FORMS))
            return FORMS[form](value)

        fm = inst.trajectory_map
        try:
            rebuilt = ProblemInstance(
                trajectory_map=TrajectoryMap(fm.positions, [
                    [reform(v, "flight time") for v in row]
                    for row in fm.seconds]),
                stations=[RechargeStation(s.pos, reform(s.slots, "slots"))
                          for s in inst.stations],
                tasks=[Task(reform(t.id, "task id"), t.type, t.start_pos,
                            t.end_pos, reform(t.proc_time, "proc_time"),
                            [reform(p, "predecessor id")
                             for p in t.predecessors])
                       for t in inst.tasks],
                uavs=[Uav(u.id, u.initial_pos,
                          reform(u.battery_capacity, "battery_capacity"),
                          reform(u.recharge_duration, "recharge_duration"))
                      for u in inst.uavs],
                name=inst.name)
        except InstanceError as exc:
            first = next(field for field, rejected in drawn if rejected)
            assert str(exc).startswith(f"{first} must be an integer, not ")
            return
        assert not any(rejected for _, rejected in drawn)
        # json writes 3.0 as "3.0" and rejects numpy scalars
        assert json.dumps(instance_to_dict(rebuilt)) == \
            json.dumps(instance_to_dict(inst))
        seq = repair([t.id for t in inst.tasks], inst)
        assert build_schedule(rebuilt, seq).actions == \
            build_schedule(inst, seq).actions


class TestGeometryHelpers:
    """The battery bound's parts, as `position_tables` gives them and
    validation applies them."""

    def test_nearest_station_prefers_shortest_leg(self):
        st = (RechargeStation("R1"), RechargeStation("R2"))
        _, nearest = position_tables(SMALL_MAP, st)
        assert nearest[SMALL_MAP.index["b"]] == 20      # b -> R2

    def test_no_stations_is_an_error(self):
        fm = TrajectoryMap((Position("a"), Position("b")),
                           ((0, 30), (30, 0)))
        with pytest.raises(InstanceError, match="no recharge stations"):
            ProblemInstance(trajectory_map=fm, stations=(),
                            tasks=(inspect(1, "a", 5),),
                            uavs=(Uav("UAV1", "a"),))

    def test_task_upper_bound_adds_escape(self):
        # longest flight into a 40 + proc 100 + escape b->R2 20
        t = haul(1, "a", "b", 100)
        assert make_instance([t], battery=160).tasks == (t,)
        with pytest.raises(InstanceError, match="time 160 > capacity 159"):
            make_instance([t], battery=159)

    def test_worst_case_engagement_fits_battery(self, lab):
        worst_in, nearest = position_tables(lab.trajectory_map, lab.stations)
        idx, t = lab.trajectory_map.index, lab.task(3)
        worst = (worst_in[idx[t.start_pos]] + t.proc_time
                 + nearest[idx[t.end_pos]])
        assert worst <= lab.min_battery_capacity()


@st.composite
def symmetric_maps(draw):
    """A map of 1-5 work and 1-3 recharge positions with random positive
    symmetric flight times, hosting a station on every recharge
    position in a drawn order."""
    n_work, n_rech = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = n_work + n_rech
    seconds = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            seconds[i][j] = seconds[j][i] = draw(st.integers(1, 400))
    fm = TrajectoryMap(
        [Position(f"w{k}") for k in range(n_work)]
        + [Position(f"R{k}", PositionKind.RECHARGE) for k in range(n_rech)],
        seconds)
    order = draw(st.permutations(range(n_rech)))
    return fm, tuple(RechargeStation(f"R{k}") for k in order)


class TestPositionTables:
    @settings(max_examples=150, deadline=None)
    @given(symmetric_maps(), st.data())
    def test_tables_equal_per_id_oracle(self, drawn, data):
        fm, stations = drawn
        # any subset of the stations, for the per-id bound itself
        subset = data.draw(st.lists(st.sampled_from(stations), min_size=1,
                                    unique=True))
        worst_in, nearest = position_tables(fm, subset)
        idx = fm.index
        for p in fm.positions:
            assert nearest[idx[p.id]] == nearest_recharge_station(
                fm, p.id, subset)[1]
        work = fm.work_positions()
        tasks = [Task(k + 1, TaskType.MATERIAL_HANDLING, a, b, 10)
                 for k, (a, b) in enumerate((a, b) for a in work
                                            for b in work)]
        for t in tasks:
            assert (worst_in[idx[t.start_pos]] + t.proc_time
                    + nearest[idx[t.end_pos]]) == \
                worst_case_engagement_time(t, fm, subset)
        inst = ProblemInstance(trajectory_map=fm, stations=stations,
                               tasks=tasks, uavs=(Uav("U1", "R0", 10 ** 6),))
        assert inst.compiled().nearest_leg == position_tables(fm, stations)[1]

    @settings(max_examples=200, deadline=None)
    @given(symmetric_maps(), st.data())
    def test_rows_equal_per_pair_oracle(self, drawn, data):
        # any stations in any order, repeats and none included
        fm, stations = drawn
        picked = data.draw(st.lists(st.sampled_from(stations), max_size=4))
        assert position_tables(fm, picked) == \
            reference_position_tables(fm, picked)

    def test_unknown_station_position(self):
        with pytest.raises(UnknownPositionError, match="'nowhere'"):
            position_tables(SMALL_MAP, (RechargeStation("nowhere"),))

    def test_no_stations_leave_infinite_legs(self):
        assert position_tables(SMALL_MAP, ()) == (
            (40, 40, 50, 50), (float("inf"),) * 4)


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

    def test_order_puts_unknown_uavs_last_sorted(self, lab):
        s = Schedule(instance=lab, actions={
            "ZZ": [], "UAV3": [], "AA": [], "UAV1": []})
        assert s.uav_order() == ["UAV1", "UAV3", "AA", "ZZ"]

    def test_task_executions_index(self, lab):
        a = Action(ActionKind.TASK_EXEC, 60, 305, "c", "c", task_id=2)
        s = Schedule(instance=lab, actions={"UAV1": [a]})
        assert s.task_executions() == {2: ("UAV1", a)}


class TestAction:
    """Action's documented contract: a frozen, hashable dataclass whose
    fields live in slots, with no instance dict and no weak references."""

    FIELDS = ("kind", "start", "end", "from_pos", "to_pos", "task_id")
    A = Action(ActionKind.RECHARGE, 5, 2705, "R1", "R1")

    def test_equal_twin_hashes_alike(self):
        twin = Action(ActionKind.RECHARGE, 5, 2705, "R1", "R1", None)
        assert twin is not self.A
        assert twin == self.A and hash(twin) == hash(self.A)
        assert len({twin, self.A}) == 1
        assert Action(ActionKind.RECHARGE, 5, 2706, "R1", "R1") != self.A

    def test_repr(self):
        assert repr(self.A) == (
            "Action(kind=<ActionKind.RECHARGE: 'recharge'>, start=5, "
            "end=2705, from_pos='R1', to_pos='R1', task_id=None)")

    def test_dataclass_helpers(self):
        assert tuple(f.name for f in dataclasses.fields(Action)) \
            == self.FIELDS
        values = (ActionKind.RECHARGE, 5, 2705, "R1", "R1", None)
        assert dataclasses.astuple(self.A) == values
        assert dataclasses.asdict(self.A) == dict(zip(self.FIELDS, values))
        moved = dataclasses.replace(self.A, start=0)
        assert moved == Action(ActionKind.RECHARGE, 0, 2705, "R1", "R1")
        assert self.A.start == 5

    def test_copies(self):
        for again in (copy.copy(self.A), copy.deepcopy(self.A)):
            assert again == self.A and type(again) is Action

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        again = pickle.loads(pickle.dumps(self.A, protocol=protocol))
        assert again == self.A and type(again) is Action
        assert dataclasses.astuple(again) == dataclasses.astuple(self.A)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.A.start = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del self.A.to_pos
        assert self.A.start == 5 and self.A.to_pos == "R1"

    def test_slots_and_no_instance_dict(self):
        assert Action.__slots__ == self.FIELDS
        assert not hasattr(self.A, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(self.A)
