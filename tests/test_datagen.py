import dataclasses
import math
import sys
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched import datagen, model
from uavsched.datagen import GenSpec, GenerationError, generate_instance
from uavsched.io import read_task_csv, write_task_csv
from uavsched.model import (
    InstanceError,
    ProblemInstance,
    RechargeStation,
    Task,
    TaskType,
    Uav,
    _check_precedence,
    infer_task_type,
    validate_precedence,
)
from uavsched.sampledata import sample_map

from conftest import SMALL_MAP
from oracles import (
    PrecedenceGraph,
    frozen_type_cdf,
    worst_case_engagement_time,
)


def gen(n, seed, **kw):
    return generate_instance(GenSpec(n_tasks=n, seed=seed, **kw))


class TestSpecValidation:
    def test_negative_tasks(self):
        with pytest.raises(GenerationError):
            GenSpec(n_tasks=-1)

    def test_bad_band(self):
        with pytest.raises(GenerationError):
            GenSpec(n_tasks=3, single_band=(80, 20))

    def test_zero_weights(self):
        with pytest.raises(GenerationError):
            GenSpec(n_tasks=3, type_weights=(0.0, 0.0, 0.0))

    def test_negative_weight(self):
        with pytest.raises(GenerationError):
            GenSpec(n_tasks=3, type_weights=(1.0, -1.0, 1.0))

    def test_no_uavs(self):
        with pytest.raises(GenerationError):
            GenSpec(n_tasks=3, n_uavs=0)

    @pytest.mark.parametrize("fields", [
        {"type_weights": (float("nan"), 1.0, 1.0)},
        {"type_weights": (float("inf"), 1.0, 1.0)},
        {"type_weights": (1.0, float("-inf"), 1.0)},
        {"type_weights": (1e308, 1e308, 1.0)},      # the sum overflows
        {"type_weights": (1.0, 1.0)},
        {"type_weights": (1.0, 1.0, 1.0, 1.0)},
        {"n_tasks": 2.5}, {"n_tasks": "3"}, {"n_tasks": True},
        {"n_uavs": 2.5}, {"max_predecessors": 2.5},
        {"slots_per_station": 1.5}, {"material_handling_base": 60.5},
        {"single_band": (20.5, 80)}, {"compound_band": (100, "200")},
        {"compound_band": (100, 200, 300)}, {"single_band": 5},
        {"single_band": (True, 80)}, {"single_band": (1, 2**63)},
        {"max_predecessors": 2**63},
        {"type_weights": ("1", 1, 1)}, {"type_weights": None},
        {"type_weights": (10**400, 1, 1)},
        {"seed": -1}, {"seed": 2.5}, {"seed": "7"}, {"seed": True},
        {"seed": None},
    ])
    def test_malformed_numbers_rejected(self, fields):
        spec = {"n_tasks": 3, **fields}
        with pytest.raises(GenerationError):
            GenSpec(**spec)

    def test_integral_floats_read_as_int(self):
        spec = GenSpec(n_tasks=12.0, max_predecessors=3.0, n_uavs=2.0,
                       single_band=(20.0, 80))
        assert (spec.n_tasks, spec.max_predecessors, spec.n_uavs,
                spec.single_band) == (12, 3, 2, (20, 80))
        assert type(spec.n_tasks) is int
        assert generate_instance(spec).tasks == gen(12, 0, max_predecessors=3,
                                                    n_uavs=2).tasks

    def test_frozen(self):
        # a reassigned field would skip every check
        spec = GenSpec(n_tasks=3, type_weights=(1, 0, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.single_band = (20.5, 80)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = -1
        assert spec.single_band == (20, 80) and spec.seed == 0

    def test_replace_checks_again(self):
        spec = GenSpec(n_tasks=3, type_weights=(1, 0, 0))
        with pytest.raises(GenerationError, match="bad processing band"):
            dataclasses.replace(spec, single_band=(20.5, 80))
        with pytest.raises(GenerationError, match="seed must be non-neg"):
            dataclasses.replace(spec, seed=-1)
        assert dataclasses.replace(spec, seed=4.0).seed == 4

    def test_band_ends_stored_as_int(self):
        spec = GenSpec(n_tasks=12, single_band=(20.0, 80.0),
                       compound_band=[100, 200.0])
        assert spec.single_band == (20, 80)
        assert spec.compound_band == (100, 200)
        assert all(type(end) is int
                   for end in spec.single_band + spec.compound_band)
        assert generate_instance(spec).tasks == gen(12, 0).tasks

    def test_widest_band_draws(self):
        # the largest band numpy's int64 draw took; every draw is far
        # over any battery, so the generator gives up
        with pytest.raises(GenerationError, match="no draw fit"):
            gen(1, 0, single_band=(1, 2**63 - 1),
                type_weights=(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("env, message", [
        ({"stations": ()}, "no recharge stations to place the fleet"),
        ({"uavs": ()}, "need at least one uav"),
        ({"stations": (), "uavs": ()}, "need at least one uav"),
    ])
    def test_empty_environment(self, env, message):
        with pytest.raises(GenerationError, match=message):
            generate_instance(GenSpec(n_tasks=2), **env)

    def test_no_stations_for_tasks(self):
        with pytest.raises(InstanceError, match="no recharge stations"):
            generate_instance(GenSpec(n_tasks=2), stations=(),
                              uavs=(Uav("U1", "R1"),))


class TestTaskFamilies:
    def test_single_inspection_band(self):
        inst = gen(30, 1, type_weights=(1.0, 0.0, 0.0))
        for t in inst.tasks:
            assert t.type == TaskType.SINGLE_INSPECTION
            assert t.start_pos == t.end_pos
            assert 20 <= t.proc_time <= 80

    def test_compound_inspection_band(self):
        inst = gen(30, 2, type_weights=(0.0, 1.0, 0.0))
        for t in inst.tasks:
            assert t.type == TaskType.COMPOUND_INSPECTION
            assert t.start_pos == t.end_pos
            assert 100 <= t.proc_time <= 200

    def test_material_handling_duration(self):
        inst = gen(30, 3, type_weights=(0.0, 0.0, 1.0))
        fm = inst.trajectory_map
        for t in inst.tasks:
            assert t.type == TaskType.MATERIAL_HANDLING
            assert t.start_pos != t.end_pos
            assert t.proc_time == 60 + fm.flight_time(t.start_pos, t.end_pos)

    def test_type_follows_the_type_rule(self, tmp_path):
        # bands that cross the 80 s line: a family only picks the draw,
        # and a task CSV round trip keeps every type
        inst = gen(30, 1, single_band=(20, 150), compound_band=(50, 70))
        for t in inst.tasks:
            assert t.type == infer_task_type(t.start_pos, t.end_pos,
                                             t.proc_time)
        assert {t.type for t in inst.tasks} == set(TaskType)
        path = tmp_path / "tasks.csv"
        write_task_csv(inst.tasks, path)
        assert read_task_csv(path) == inst.tasks

    def test_every_task_fits_tightest_battery(self):
        inst = gen(60, 4)
        cap = min(u.battery_capacity for u in inst.uavs)
        for t in inst.tasks:
            assert worst_case_engagement_time(
                t, inst.trajectory_map, inst.stations) <= cap

    def test_unsatisfiable_band_raises(self):
        with pytest.raises(GenerationError):
            gen(1, 0, type_weights=(1.0, 0.0, 0.0), single_band=(5000, 6000))


class TestPrecedenceShape:
    def test_edges_run_low_to_high(self):
        inst = gen(40, 5)
        for t in inst.tasks:
            assert all(p < t.id for p in t.predecessors)

    def test_max_predecessors_zero(self):
        inst = gen(20, 6, max_predecessors=0)
        assert all(not t.predecessors for t in inst.tasks)

    def test_predecessor_cap(self):
        inst = gen(40, 7, max_predecessors=2)
        assert all(len(t.predecessors) <= 2 for t in inst.tasks)

    def test_generated_graph_is_reduced(self):
        inst = gen(50, 8, max_predecessors=4)
        assert validate_precedence(inst.tasks) == []


class TestDeterminism:
    def test_same_seed_same_instance(self):
        a = gen(25, 11)
        b = gen(25, 11)
        assert a.tasks == b.tasks
        assert a.uavs == b.uavs
        assert a.name == b.name

    def test_different_seed_differs(self):
        assert gen(25, 11).tasks != gen(25, 12).tasks

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 15), seed=st.integers(0, 10 ** 6))
    def test_generated_instances_always_valid(self, n, seed):
        inst = gen(n, seed)
        assert inst.validate() is None
        assert len(inst.tasks) == n


class TestEnvironmentDefaults:
    def test_bundled_map_and_round_robin_fleet(self):
        inst = gen(5, 0, n_uavs=3)
        assert inst.trajectory_map.positions == sample_map().positions
        starts = [u.initial_pos for u in inst.uavs]
        assert starts == ["R1", "R2", "R1"]

    def test_bundled_map_shared(self):
        a, b = gen(5, 0), gen(10, 1, n_uavs=2)
        assert a.trajectory_map is b.trajectory_map
        assert a.trajectory_map == sample_map()

    def test_sample_map_fresh_on_each_call(self):
        shared = gen(5, 0).trajectory_map
        assert sample_map() is not sample_map()
        assert sample_map() is not shared

    def test_explicit_map_used_as_given(self):
        fm = sample_map()
        inst = generate_instance(GenSpec(n_tasks=5, seed=0), trajectory_map=fm)
        assert inst.trajectory_map is fm
        assert inst.tasks == gen(5, 0).tasks

    def test_default_stations_and_fleet_shared(self):
        a, b = gen(5, 0, n_uavs=4), gen(12, 3, n_uavs=4)
        assert len(a.stations) == len(b.stations) == 2
        assert all(x is y for x, y in zip(a.stations, b.stations))
        assert len(a.uavs) == len(b.uavs) == 4
        assert all(x is y for x, y in zip(a.uavs, b.uavs))
        # another slot count gives other stations with the same fleet
        c = gen(5, 0, n_uavs=4, slots_per_station=2)
        assert [s.slots for s in c.stations] == [2, 2]
        assert c.uavs == a.uavs

    def test_explicit_stations_and_fleet_used_as_given(self):
        stations = [RechargeStation("R2", 3), RechargeStation("R1", 2)]
        uavs = [Uav("U1", "R1", 900), Uav("U2", "R2")]
        inst = generate_instance(GenSpec(n_tasks=5, seed=0),
                                 stations=stations, uavs=uavs)
        assert all(x is y for x, y in zip(inst.stations, stations))
        assert all(x is y for x, y in zip(inst.uavs, uavs))
        assert len(inst.stations) == 2 and len(inst.uavs) == 2
        # a fleet placed over explicit stations starts at them in turn
        placed = generate_instance(GenSpec(n_tasks=5, seed=0, n_uavs=3),
                                   stations=stations)
        assert [u.initial_pos for u in placed.uavs] == ["R2", "R1", "R2"]

    def test_replace_leaves_shared_fleet(self):
        shared = gen(5, 0).uavs
        first = shared[0]
        weak = dataclasses.replace(first, battery_capacity=600)
        assert weak.battery_capacity == 600 and weak is not first
        again = gen(5, 0).uavs
        assert again[0] is first
        assert [u.battery_capacity for u in again] == [1200] * 3
        assert gen(5, 0).tasks == generate_instance(
            GenSpec(n_tasks=5, seed=0), uavs=[
                Uav(u.id, u.initial_pos) for u in again]).tasks

    def test_empty_instance(self):
        inst = gen(0, 0)
        assert inst.tasks == ()

    def test_custom_map_honoured(self):
        inst = generate_instance(GenSpec(n_tasks=6, seed=1, n_uavs=2),
                                 trajectory_map=SMALL_MAP)
        positions = set(SMALL_MAP.work_positions())
        for t in inst.tasks:
            assert {t.start_pos, t.end_pos} <= positions

    def test_material_needs_two_work_positions(self):
        from uavsched.model import Position, PositionKind, TrajectoryMap
        one_work = TrajectoryMap(
            [Position("a", PositionKind.WORK),
             Position("R1", PositionKind.RECHARGE)],
            [[0, 10], [10, 0]])
        with pytest.raises(GenerationError):
            generate_instance(GenSpec(n_tasks=2, seed=0,
                                      type_weights=(0.0, 0.0, 1.0)),
                              trajectory_map=one_work)


class TestRawPrecedenceFindings:
    def mk(self, tid, preds=()):
        return Task(tid, TaskType.SINGLE_INSPECTION, "a", "a", 30,
                    tuple(preds))

    def test_unknown_reference(self):
        out = validate_precedence([self.mk(1), self.mk(2, [9])])
        assert out == ["task 2 references unknown predecessor 9"]

    def test_self_dependency(self):
        out = validate_precedence([self.mk(1, [1])])
        assert out == ["task 1 depends on itself"]

    def test_cycle(self):
        out = validate_precedence([self.mk(1, [2]), self.mk(2, [1])])
        assert out == ["cycle among tasks [1, 2]"]

    def test_redundant_edge(self):
        tasks = [self.mk(1), self.mk(2, [1]), self.mk(3, [1, 2])]
        out = validate_precedence(tasks)
        assert out == ["edge 1 -> 3 is redundant (implied by a longer path)"]

    def test_clean_list(self):
        tasks = [self.mk(1), self.mk(2, [1]), self.mk(3, [2])]
        assert validate_precedence(tasks) == []

    def test_repeated_id_is_not_a_cycle(self):
        tasks = [self.mk(1), self.mk(2, [1]), self.mk(2, [1])]
        assert validate_precedence(tasks) == ["task 2 appears more than once"]

    def test_repeated_id_pools_edges(self):
        tasks = [self.mk(1, [2]), self.mk(2), self.mk(1, [3]), self.mk(3, [1])]
        assert validate_precedence(tasks) == [
            "task 1 appears more than once", "cycle among tasks [1, 3]"]


# Reference copies of the reachability code that the id-keyed
# PrecedenceGraph (now in oracles.py) replaced:
# the old validate_precedence (own Kahn pass and DFS) and
# model.transitive_reduction.

def reference_validate_precedence(tasks) -> list[str]:
    problems: list[str] = []
    ids = {t.id for t in tasks}
    succs: dict[int, set[int]] = {t.id: set() for t in tasks}
    indeg = {t.id: 0 for t in tasks}
    for t in tasks:
        for p in t.predecessors:
            if p not in ids:
                problems.append(
                    f"task {t.id} references unknown predecessor {p}")
            elif p == t.id:
                problems.append(f"task {t.id} depends on itself")
            else:
                succs[p].add(t.id)
                indeg[t.id] += 1
    ready = [t for t, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if seen != len(ids):
        cyc = sorted(t for t, d in indeg.items() if d > 0)
        problems.append(f"cycle among tasks {cyc}")
        return problems
    reach: dict[int, set[int]] = {}

    def reaches(u):
        if u not in reach:
            reach[u] = set()
            for v in succs[u]:
                reach[u].add(v)
                reach[u] |= reaches(v)
        return reach[u]

    for t in sorted(ids):
        for v in sorted(succs[t]):
            if any(v in reaches(w) for w in succs[t] if w != v):
                problems.append(
                    f"edge {t} -> {v} is redundant (implied by a longer path)")
    return problems


def reference_transitive_reduction(edges, nodes):
    succs = {n: set() for n in nodes}
    for u, v in edges:
        succs[u].add(v)
    memo: dict[int, set[int]] = {}

    def reach(u):
        if u not in memo:
            memo[u] = set()
            for v in succs[u]:
                memo[u].add(v)
                memo[u] |= reach(v)
        return memo[u]

    return {(u, v) for u, v in edges
            if not any(v in reach(w) for w in succs[u] if w != v)}


def edge_set(tasks):
    return {(p, t.id) for t in tasks for p in t.predecessors}


@st.composite
def unique_id_task_lists(draw):
    """Shuffled tasks with unique ids; predecessors may be unknown ids,
    self-references or cycles."""
    n = draw(st.integers(0, 9))
    ids = draw(st.permutations(range(1, n + 1)))
    return [Task(tid, TaskType.SINGLE_INSPECTION, "a", "a", 30, tuple(
        draw(st.lists(st.integers(1, n + 2), max_size=4)))) for tid in ids]


@st.composite
def random_dags(draw):
    """Tasks 1..n with edges from a random relabelling of a low-to-high
    DAG, so edges need not run from lower to higher ids."""
    n = draw(st.integers(1, 12))
    label = draw(st.permutations(range(1, n + 1)))
    preds = {tid: [] for tid in label}
    for hi in range(n):
        for lo in draw(st.sets(st.integers(0, hi - 1), max_size=hi)
                       if hi else st.just(set())):
            preds[label[hi]].append(label[lo])
    return [Task(tid, TaskType.SINGLE_INSPECTION, "a", "a", 30,
                 tuple(preds[tid])) for tid in sorted(preds)]


class TestReachabilityMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(unique_id_task_lists())
    def test_findings_equal(self, tasks):
        assert validate_precedence(tasks) == \
            reference_validate_precedence(tasks)

    @settings(max_examples=300, deadline=None)
    @given(random_dags())
    def test_reduced_edges_equal(self, tasks):
        edges = edge_set(tasks)
        redundant = set(_check_precedence(
            [(t.id, t.predecessors) for t in tasks])[1])
        assert edges - redundant == reference_transitive_reduction(
            edges, [t.id for t in tasks])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 10_000), st.integers(0, 4))
    def test_generation_keeps_reference_reduction(self, n, seed, max_preds):
        # generation reduces the drawn edges through the ancestor closure
        # of the drawn predecessor map; validation makes the one full
        # precedence pass
        drawn, checks = [], []
        closure, check = datagen._closure, model._check_precedence

        def recording_closure(order, edges):
            drawn.append({(p, t) for t, ps in edges.items() for p in ps})
            return closure(order, edges)

        def recording_check(pairs):
            checks.append(pairs)
            return check(pairs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datagen, "_closure", recording_closure)
            mp.setattr(model, "_check_precedence", recording_check)
            inst = gen(n, seed, max_predecessors=max_preds)
        assert len(drawn) == 1
        assert len(checks) == 1
        assert edge_set(inst.tasks) == reference_transitive_reduction(
            drawn[0], [t.id for t in inst.tasks])


class TestTypeDraw:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0])
                    | st.floats(0.0, 1e6), min_size=3, max_size=3)
           .filter(lambda w: sum(w) > 0),
           st.integers(0, 2 ** 32))
    def test_equals_generator_choice(self, weights, seed):
        cdf = datagen._type_cdf(tuple(weights))
        p = np.asarray(weights) / sum(weights)
        p = p / p.sum()
        ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert bisect_right(cdf, ours.random()) == twin.choice(3, p=p)
        assert ours.bit_generator.state == twin.bit_generator.state

    # zeros of both signs, subnormal and tiny weights, huge finite ones
    WEIGHT = (st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.min, 1e-300,
                               1.0, 3.0, 1e16, 1e308, sys.float_info.max])
              | st.floats(0.0, 1e-300) | st.floats(0.0, 10.0)
              | st.floats(0.0, allow_infinity=False))

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(WEIGHT, WEIGHT, WEIGHT)
           .filter(lambda w: 0 < w[0] + w[1] + w[2] < math.inf))
    def test_table_is_numpys_arithmetic(self, weights):
        # bit for bit, signed zeros included; the cached function would
        # hand (-0.0, ...) the table of an equal (0.0, ...) key
        got = datagen._type_cdf.__wrapped__(weights)
        assert ([x.hex() for x in got]
                == [x.hex() for x in frozen_type_cdf(weights)])


def reference_generate_instance(spec, trajectory_map=None, stations=None,
                                uavs=None):
    """generate_instance as it was before the per-position tables: the
    type from Generator.choice, the battery bound per task from
    worst_case_engagement_time, each Task built twice."""
    fm = trajectory_map or sample_map()
    work = fm.work_positions()
    if stations is None:
        stations = tuple(RechargeStation(p.id, spec.slots_per_station)
                         for p in fm.positions if p.id not in set(work))
    if uavs is None:
        uavs = tuple(Uav(f"UAV{i + 1}", stations[i % len(stations)].pos)
                     for i in range(spec.n_uavs))
    capacity = min(u.battery_capacity for u in uavs)
    weights = np.asarray(spec.type_weights, dtype=float)
    if len(work) < 2:
        weights = weights * np.array([1.0, 1.0, 0.0])
    weights = weights / weights.sum()
    rng = np.random.default_rng(spec.seed)
    kinds = (TaskType.SINGLE_INSPECTION, TaskType.COMPOUND_INSPECTION,
             TaskType.MATERIAL_HANDLING)
    tasks = []
    for tid in range(1, spec.n_tasks + 1):
        while True:
            kind = kinds[int(rng.choice(3, p=weights))]
            if kind == TaskType.MATERIAL_HANDLING:
                i, j = rng.choice(len(work), size=2, replace=False)
                start, end = work[int(i)], work[int(j)]
                proc = spec.material_handling_base + fm.flight_time(start,
                                                                    end)
            else:
                start = end = work[int(rng.integers(0, len(work)))]
                lo, hi = (spec.single_band
                          if kind == TaskType.SINGLE_INSPECTION
                          else spec.compound_band)
                proc = int(rng.integers(lo, hi + 1))
            task = Task(tid, kind, start, end, proc)
            if worst_case_engagement_time(task, fm, stations) <= capacity:
                tasks.append(task)
                break
    preds_of = {t.id: () for t in tasks}
    for task in tasks:
        lower = task.id - 1
        if lower == 0 or spec.max_predecessors == 0:
            continue
        k = min(int(rng.integers(0, spec.max_predecessors + 1)), lower)
        if k:
            preds_of[task.id] = tuple(
                (rng.choice(lower, size=k, replace=False) + 1).tolist())
    redundant = set(PrecedenceGraph(preds_of).redundant_edges())
    tasks = [Task(t.id, t.type, t.start_pos, t.end_pos, t.proc_time,
                  tuple(p for p in preds_of[t.id]
                        if (p, t.id) not in redundant)) for t in tasks]
    return ProblemInstance(trajectory_map=fm, stations=tuple(stations),
                           tasks=tuple(tasks), uavs=tuple(uavs))


class TestGenerationMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 40), seed=st.integers(0, 2 ** 32),
           weights=st.tuples(*[st.sampled_from([0.0, 0.3, 1.0, 7.0])] * 3)
           .filter(lambda w: sum(w) > 0),
           max_preds=st.integers(0, 4), n_uavs=st.integers(1, 4),
           battery=st.sampled_from([None, 650, 900]),
           small_map=st.booleans())
    def test_same_instance(self, n, seed, weights, max_preds, n_uavs,
                           battery, small_map):
        spec = GenSpec(n_tasks=n, seed=seed, type_weights=weights,
                       max_predecessors=max_preds, n_uavs=n_uavs)
        env = {"trajectory_map": SMALL_MAP} if small_map else {}
        if battery is not None:     # a tight battery forces resampling
            env["uavs"] = (Uav("U1", "R1", battery), Uav("U2", "R2"))
        want = reference_generate_instance(spec, **env)
        got = generate_instance(spec, **env)
        assert got.tasks == want.tasks
        assert (got.uavs, got.stations) == (want.uavs, want.stations)
