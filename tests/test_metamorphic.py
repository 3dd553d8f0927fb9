"""Metamorphic relations: properties that hold between two runs, so no
copy of the constructor's rules is needed to check them.

Time scaling: every flight time, processing time, battery capacity and
recharge duration multiplied by an integer c leaves every decision of
the constructor and the priority rules alone, so the schedule is the
same with each time multiplied by c, and the validator stays clean.
The search follows suit: with the same config, `run_pso` moves the
same particles, so it finds the same best sequence in the same number
of iterations, with every makespan multiplied by c.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched.datagen import GenSpec, generate_instance
from uavsched.eat import build_schedule
from uavsched.model import TrajectoryMap
from uavsched.pso import PsoConfig, run_pso
from uavsched.sequences import priority_orderings, repair
from uavsched.validate import validate_schedule


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
def scaling_draws(draw):
    """A generated instance (1-40 tasks, 1-4 UAVs, 1-3 bays per
    station), a repaired full sequence and a factor c."""
    spec = GenSpec(n_tasks=draw(st.integers(1, 40)),
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
