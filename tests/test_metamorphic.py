"""Metamorphic relations: properties that hold between two runs, so no
copy of the constructor's rules is needed to check them.

Time scaling: every flight time, processing time, battery capacity and
recharge duration multiplied by an integer c leaves every decision of
the constructor and the priority rules alone, so the schedule is the
same with each time multiplied by c, and the validator stays clean.
The search follows suit: with the same config, `run_pso` moves the
same particles, so it finds the same best sequence in the same number
of iterations, with every makespan multiplied by c. The validator too:
each surgical mutation of `tests/test_validate.py`, with every time in
its instance and schedule multiplied by c, reports the same findings.

Order-preserving relabelling: task ids mapped by a*id + b with a > 0,
UAV and position ids renamed freely and the task listing shuffled. Ties
break toward the lower task id and the earlier UAV, position and
station in declaration order, never on a name, so the constructor, the
rules and the search give the same results up to names.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched.datagen import GenSpec, generate_instance
from uavsched.eat import build_schedule
from uavsched.model import (
    Action,
    ProblemInstance,
    Schedule,
    Task,
    TrajectoryMap,
)
from uavsched.pso import PsoConfig, run_pso
from uavsched.sequences import priority_orderings, repair
from uavsched.validate import validate_schedule

from conftest import golden_schedule, haul, inspect, make_instance
from test_validate import F, H, R, T, W, append, mutate


def scaled(instance, c):
    """The instance with every time multiplied by c."""
    fm = instance.trajectory_map
    return dataclasses.replace(
        instance,
        trajectory_map=TrajectoryMap(
            fm.positions, [[v * c for v in row] for row in fm.seconds]),
        tasks=tuple(dataclasses.replace(t, proc_time=t.proc_time * c)
                    for t in instance.tasks),
        uavs=tuple(dataclasses.replace(
            u, battery_capacity=u.battery_capacity * c,
            recharge_duration=u.recharge_duration * c)
            for u in instance.uavs))


def timed(schedule, c=1):
    """The schedule's actions per UAV, with start and end multiplied
    by c."""
    return {uav: [dataclasses.replace(a, start=a.start * c, end=a.end * c)
                  for a in acts]
            for uav, acts in schedule.actions.items()}


@st.composite
def scaling_draws(draw, max_tasks=40):
    """A generated instance (1 to max_tasks tasks, 1-4 UAVs, 1-3 bays
    per station), a repaired full sequence and a factor c."""
    spec = GenSpec(n_tasks=draw(st.integers(1, max_tasks)),
                   seed=draw(st.integers(0, 2**20)),
                   max_predecessors=draw(st.integers(0, 3)),
                   n_uavs=draw(st.integers(1, 4)),
                   slots_per_station=draw(st.integers(1, 3)))
    inst = generate_instance(spec)
    seq = repair(draw(st.permutations([t.id for t in inst.tasks])), inst)
    return inst, seq, draw(st.sampled_from([2, 3, 7]))


class TestTimeScaling:
    @settings(max_examples=100, deadline=None)
    @given(scaling_draws())
    def test_constructor_validator_and_rules(self, draw):
        inst, seq, c = draw
        big = scaled(inst, c)
        schedule = build_schedule(big, seq)
        assert timed(schedule) == timed(build_schedule(inst, seq), c)
        assert validate_schedule(schedule) == []
        assert priority_orderings(big) == priority_orderings(inst)

    @settings(max_examples=15, deadline=None)
    @given(scaling_draws(), st.integers(0, 2**32 - 1))
    def test_search(self, draw, seed):
        inst, _, c = draw
        config = PsoConfig(rng_seed=seed)
        small, big = run_pso(inst, config), run_pso(scaled(inst, c), config)
        assert big.best_sequence == small.best_sequence
        assert big.iterations_run == small.iterations_run
        assert big.best_makespan == small.best_makespan * c
        assert [best for _, best, _ in big.history] == \
            [best * c for _, best, _ in small.history]
        # a mean times c and the scaled sum over the swarm round apart,
        # so the means are compared as the integer sums they divide
        n = config.swarm_size
        assert [round(mean * n) for *_, mean in big.history] == \
            [round(mean * n) * c for *_, mean in small.history]


@st.composite
def relabellings(draw):
    """A generated instance (1-30 tasks, 1-4 UAVs, 1-3 bays per
    station), a repaired full sequence, and a relabelling of it: the
    task map a*id + b (a > 0), fresh UAV and position names, and a
    shuffled listing order of the tasks."""
    inst, seq, _ = draw(scaling_draws(max_tasks=30))
    a, b = draw(st.integers(1, 5)), draw(st.integers(-50, 50))
    names = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
                    max_size=4)
    positions = [p.id for p in inst.trajectory_map.positions]
    uavs = [u.id for u in inst.uavs]
    pos = dict(zip(positions, draw(st.lists(
        names, min_size=len(positions), max_size=len(positions),
        unique=True))))
    uav = dict(zip(uavs, draw(st.lists(
        names, min_size=len(uavs), max_size=len(uavs), unique=True))))
    listing = draw(st.permutations(inst.tasks))
    return inst, seq, (lambda t: a * t + b), pos, uav, listing


def relabelled(inst, tid, pos, uav, listing):
    """inst with task ids tid(id), positions and UAVs renamed by the
    pos and uav maps, and its tasks listed as in listing."""
    fm = inst.trajectory_map
    return ProblemInstance(
        trajectory_map=TrajectoryMap(
            [dataclasses.replace(p, id=pos[p.id]) for p in fm.positions],
            fm.seconds),
        stations=tuple(dataclasses.replace(s, pos=pos[s.pos])
                       for s in inst.stations),
        tasks=tuple(Task(tid(t.id), t.type, pos[t.start_pos], pos[t.end_pos],
                         t.proc_time, [tid(p) for p in t.predecessors])
                    for t in listing),
        uavs=tuple(dataclasses.replace(u, id=uav[u.id],
                                       initial_pos=pos[u.initial_pos])
                   for u in inst.uavs),
        name=inst.name)


def renamed(schedule, tid, pos, uav):
    """The schedule's actions per UAV with every id renamed."""
    def one(a):
        return dataclasses.replace(
            a, from_pos=pos[a.from_pos], to_pos=pos[a.to_pos],
            task_id=None if a.task_id is None else tid(a.task_id),
            station=None if a.station is None else pos[a.station])
    return {uav[u]: [one(a) for a in acts]
            for u, acts in schedule.actions.items()}


class TestOrderPreservingRelabelling:
    @settings(max_examples=100, deadline=None)
    @given(relabellings())
    def test_constructor_validator_and_rules(self, draw):
        inst, seq, tid, pos, uav, listing = draw
        other = relabelled(inst, tid, pos, uav, listing)
        schedule = build_schedule(other, [tid(t) for t in seq])
        mine = build_schedule(inst, seq)
        assert schedule.actions == renamed(mine, tid, pos, uav)
        assert list(schedule.actions) == [uav[u] for u in mine.actions]
        assert validate_schedule(schedule) == []
        assert priority_orderings(other) == {
            rule: [tid(t) for t in order]
            for rule, order in priority_orderings(inst).items()}

    @settings(max_examples=15, deadline=None)
    @given(relabellings(), st.integers(0, 2**32 - 1))
    def test_search(self, draw, seed):
        inst, _, tid, pos, uav, listing = draw
        config = PsoConfig(rng_seed=seed)
        mine = run_pso(inst, config)
        other = run_pso(relabelled(inst, tid, pos, uav, listing), config)
        assert other.best_sequence == [tid(t) for t in mine.best_sequence]
        assert other.best_makespan == mine.best_makespan
        assert other.history == mine.history
        assert (other.iterations_run, other.converged,
                other.convergence_iteration, other.last_improvement) == (
            mine.iterations_run, mine.converged, mine.convergence_iteration,
            mine.last_improvement)
        assert other.best_schedule.actions == renamed(mine.best_schedule,
                                                      tid, pos, uav)


def on_tiny(tasks, n_uavs=2, **timelines):
    """The given timelines on `make_instance(tasks, n_uavs)`, one bay
    per station."""
    return Schedule(instance=make_instance(tasks, n_uavs=n_uavs),
                    actions=timelines)


# Each surgical mutation of tests/test_validate.py, by that test's name:
# the bundled instance's reference timeline -> the mutated schedule.
MUTATIONS = {
    "negative_span": lambda lab: append(
        golden_schedule(lab), "UAV3", Action(H, 1125, 1120, "c", "c")),
    "flight_duration_must_match_matrix": lambda lab: mutate(mutate(
        golden_schedule(lab), "UAV3", 2, end=889),
        "UAV3", 3, start=889, end=1124),
    "stationary_action_must_not_move": lambda lab: append(
        golden_schedule(lab), "UAV3", Action(H, 1125, 1200, "c", "b")),
    "recharge_off_station": lambda lab: append(
        golden_schedule(lab), "UAV3", Action(R, 1125, 3825, "c", "c")),
    "recharge_duration_fixed": lambda lab: mutate(mutate(mutate(
        golden_schedule(lab), "UAV1", 5, end=3800),
        "UAV1", 6, start=3800, end=3840),
        "UAV1", 7, start=3840, end=4318),
    "ground_wait_off_station": lambda lab: append(
        golden_schedule(lab), "UAV3", Action(W, 1125, 1500, "c", "c")),
    "zero_length_flight": lambda lab: append(
        golden_schedule(lab), "UAV3", Action(F, 1125, 1125, "c", "R2")),
    "flight_to_unknown_position": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 2, to_pos="zz"),
    "flight_from_unknown_position": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 2, from_pos="zz"),
    "hover_at_unknown_position": lambda lab: append(
        golden_schedule(lab), "UAV3", Action(H, 1125, 1200, "zz", "zz")),
    "recharge_at_unknown_position": lambda lab: append(
        golden_schedule(lab), "UAV3",
        Action(R, 1125, 3825, "zz", "zz", station="zz")),
    "task_at_unknown_position": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 3, to_pos="zz"),
    "gap_between_actions": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 3, start=891, end=1126),
    "overlap_between_actions": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 3, start=889, end=1124),
    "first_action_must_leave_initial_position": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 0, from_pos="R1"),
    "mid_chain_teleport": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 2, from_pos="b"),
    "unknown_uav": lambda lab: Schedule(
        instance=lab, actions={**golden_schedule(lab).actions, "UAV9": []}),
    "unknown_task_id": lambda lab: append(
        golden_schedule(lab), "UAV3",
        Action(T, 1125, 1160, "c", "c", task_id=99)),
    "duplicate_execution": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 3, task_id=2),
    "wrong_duration": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 3, end=1120),
    "wrong_position": lambda lab: mutate(
        golden_schedule(lab), "UAV3", 3, to_pos="f"),
    "missing_predecessor": lambda lab: mutate(
        golden_schedule(lab), "UAV1", 1, task_id=None, kind=H),
    "predecessor_order": lambda lab: on_tiny(
        [inspect(1, "a", 100), inspect(2, "b", 50, preds=[1])],
        UAV1=[Action(F, 0, 20, "R1", "a"),
              Action(T, 20, 120, "a", "a", task_id=1)],
        UAV2=[Action(F, 0, 20, "R2", "b"),
              Action(T, 20, 70, "b", "b", task_id=2)]),
    "position_exclusivity": lambda lab: on_tiny(
        [inspect(1, "a", 100), inspect(2, "a", 50)],
        UAV1=[Action(F, 0, 20, "R1", "a"),
              Action(T, 20, 120, "a", "a", task_id=1)],
        UAV2=[Action(F, 0, 40, "R2", "a"),
              Action(T, 40, 90, "a", "a", task_id=2)]),
    "haul_overlap": lambda lab: on_tiny(
        [haul(1, "a", "b", 100), haul(2, "a", "b", 100)],
        UAV1=[Action(F, 0, 20, "R1", "a"),
              Action(T, 20, 120, "a", "b", task_id=1)],
        UAV2=[Action(F, 0, 40, "R2", "a"),
              Action(T, 40, 140, "a", "b", task_id=2)]),
    "airborne_stretch_over_battery": lambda lab: on_tiny(
        [inspect(1, "a", 100)], n_uavs=1,
        UAV1=[Action(F, 0, 20, "R1", "a"),
              Action(H, 20, 1500, "a", "a"),
              Action(T, 1500, 1600, "a", "a", task_id=1)]),
    "bay_capacity": lambda lab: on_tiny(
        [inspect(1, "a", 100)],
        UAV1=[Action(R, 0, 2700, "R1", "R1", station="R1")],
        UAV2=[Action(F, 0, 50, "R2", "R1"),
              Action(R, 50, 2750, "R1", "R1", station="R1")]),
}


def findings(violations, c=1):
    """Each violation's fields, its time multiplied by c; the message
    is left out, as it quotes times."""
    return [(v.kind, v.uav_id, v.task_id, v.position,
             None if v.tstp is None else v.tstp * c) for v in violations]


class TestValidatorScaling:
    @pytest.mark.parametrize("c", [2, 3, 7])
    @pytest.mark.parametrize("name", MUTATIONS)
    def test_same_findings(self, lab, name, c):
        schedule = MUTATIONS[name](lab)
        big = Schedule(instance=scaled(schedule.instance, c),
                       actions=timed(schedule, c))
        small = validate_schedule(schedule)
        assert small     # a mutation the validator flags
        assert findings(validate_schedule(big)) == findings(small, c)
