"""Discrete particle swarm over task sequences.

Particles are precedence-feasible permutations; velocities are ordered
lists of index swap pairs. Each iteration a particle keeps its previous
pairs, then absorbs randomly chosen pairs from its differences to the
particle's own best and to the swarm best, the proportions steered by
the cognitive and social factors. Fitness is the makespan of the
schedule the list constructor builds for the sequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .eat import build_makespan, build_schedule
from .model import PrecedenceGraph, ProblemInstance, Schedule
from .sequences import (
    Velocity,
    apply_swaps,
    priority_orderings,
    repair,
    sequence_difference,
)


@dataclass
class PsoConfig:
    """Search knobs; the defaults are the tuned values from the bundled
    experiment campaign (cognitive 1, social 2, 40 particles)."""

    c1: float = 1.0
    c2: float = 2.0
    swarm_size: int = 40
    max_iterations: int = 40
    convergence_window: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 8:
            raise ValueError("swarm_size must be at least 8, one per seeding rule")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.convergence_window < 1:
            raise ValueError("convergence_window must be positive")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("acceleration factors must be non-negative")


@dataclass
class RunReport:
    """Everything a search run produced, timing included."""

    config: PsoConfig
    best_sequence: list[int]
    best_makespan: int
    best_schedule: Schedule
    history: list[tuple[int, int, float]]  # (iteration, best, mean)
    iterations_run: int
    converged: bool
    convergence_iteration: int
    last_improvement: int
    wall_clock_ms: float


def velocity_cap(n_tasks: int) -> int:
    """Initial swap-pair budget per particle, banded by problem size."""
    if n_tasks <= 20:
        return 2
    if n_tasks <= 50:
        return 10
    return 30


def fitness(sequence, instance: ProblemInstance,
            memo: dict | None = None) -> int:
    """Makespan of the constructed schedule; optionally memoized."""
    if memo is None:
        return build_makespan(instance, sequence)
    key = tuple(sequence)
    value = memo.get(key)
    if value is None:
        value = build_makespan(instance, sequence)
        memo[key] = value
    return value


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def update_velocity(velocity, particle, local_best, global_best,
                    c1: float, c2: float, rng) -> Velocity:
    """Next velocity: old pairs, then sampled cognitive and social pairs.

    The share of difference pairs absorbed is c * U with U drawn once
    per component, clamped at taking the whole list, rounded to the
    nearest count. Pairs equal (as unordered index sets) to one already
    present are dropped, looked up in the velocity's carried pair mask.
    The result is a copy of the old velocity with pairs appended, so it
    keeps the old carried permutation and mask.
    """
    new = Velocity.lift(velocity).copy()
    n = len(particle)
    have = new.pair_mask(n)

    def absorb(diff, proportion):
        count = _round_half_up(min(1.0, proportion) * len(diff))
        if count <= 0:
            return
        chosen = rng.choice(len(diff), size=count, replace=False).tolist()
        for idx in sorted(chosen):
            pair = diff[idx]
            i, j = pair
            if not have[i * n + j]:
                have[i * n + j] = have[j * n + i] = 1
                new.append(pair)

    u1 = rng.random()
    u2 = rng.random()
    absorb(sequence_difference(local_best, particle), c1 * u1)
    absorb(sequence_difference(global_best, particle), c2 * u2)
    new.masked = len(new)
    return new


def _random_initial_velocity(n: int, cap: int, rng) -> list[tuple[int, int]]:
    if n < 2 or cap < 1:
        return []
    count = int(rng.integers(1, cap + 1))
    count = min(count, n * (n - 1) // 2)
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(pairs) < count:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((i, j))
    return pairs


def _mutate_preserving_precedence(sequence, graph: PrecedenceGraph,
                                  rng) -> list[int]:
    """Random transpositions that individually keep the sequence feasible.

    The sequence must be feasible. Swapping task a at lo with task b at
    hi > lo then breaks precedence exactly when a direct predecessor of
    b sits at lo..hi-1 or a direct successor of a at lo+1..hi, so each
    attempt looks up only the positions of those tasks.
    """
    seq = list(sequence)
    n = len(seq)
    if n < 2:
        return seq
    preds, succs = graph.direct_predecessors, graph.direct_successors
    pos = {tid: k for k, tid in enumerate(seq)}
    for _ in range(max(1, n // 2)):
        i, j = rng.integers(0, n, size=2).tolist()
        if i == j:
            continue
        lo, hi = (i, j) if i < j else (j, i)
        a, b = seq[lo], seq[hi]
        if (any(pos[p] >= lo for p in preds[b])
                or any(pos[s] <= hi for s in succs[a])):
            continue
        seq[lo], seq[hi] = b, a
        pos[a], pos[b] = hi, lo
    return seq


def generate_initial_swarm(instance: ProblemInstance, swarm_size: int,
                           rng) -> list[list[int]]:
    """Eight priority-rule particles, the rest feasible mutations of them."""
    rules = list(priority_orderings(instance).values())
    particles = [list(seq) for seq in rules[:swarm_size]]
    graph = instance.graph()
    idx = 0
    while len(particles) < swarm_size:
        base = rules[idx % len(rules)]
        particles.append(_mutate_preserving_precedence(base, graph, rng))
        idx += 1
    return particles


def run_pso(instance: ProblemInstance, config: PsoConfig | None = None) -> RunReport:
    """Full search: seeded swarm, swap-pair flight, stagnation stop.

    Deterministic for a given (instance, config): the seed fans out into
    one stream for swarm construction and one per particle, so results
    do not depend on evaluation order.
    """
    t0 = time.perf_counter()
    config = config or PsoConfig()
    streams = np.random.SeedSequence(config.rng_seed).spawn(config.swarm_size + 1)
    rng_init = np.random.default_rng(streams[0])
    particle_rngs = [np.random.default_rng(s) for s in streams[1:]]

    n = len(instance.tasks)
    cap = velocity_cap(n)
    memo: dict[tuple[int, ...], int] = {}
    particles = generate_initial_swarm(instance, config.swarm_size, rng_init)
    velocities = [_random_initial_velocity(n, cap, rng_init)
                  for _ in particles]
    fits = [fitness(p, instance, memo) for p in particles]
    local_best = [list(p) for p in particles]
    local_fit = list(fits)
    g_idx = min(range(len(fits)), key=lambda i: fits[i])
    global_best = list(particles[g_idx])
    global_fit = fits[g_idx]

    history: list[tuple[int, int, float]] = [
        (0, global_fit, float(np.mean(fits)))]
    last_improvement = 0
    stagnation = 0
    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        iterations = it
        improved = False
        for i, rng in enumerate(particle_rngs):
            velocities[i] = update_velocity(
                velocities[i], particles[i], local_best[i], global_best,
                config.c1, config.c2, rng)
            moved = repair(apply_swaps(particles[i], velocities[i]), instance)
            particles[i] = moved
            f = fitness(moved, instance, memo)
            fits[i] = f
            if f < local_fit[i]:
                local_fit[i] = f
                local_best[i] = list(moved)
            if f < global_fit:
                global_fit = f
                global_best = list(moved)
                improved = True
        history.append((it, global_fit, float(np.mean(fits))))
        if improved:
            last_improvement = it
            stagnation = 0
        else:
            stagnation += 1
            if stagnation >= config.convergence_window:
                converged = True
                break
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return RunReport(
        config=config,
        best_sequence=list(global_best),
        best_makespan=global_fit,
        best_schedule=build_schedule(instance, global_best),
        history=history,
        iterations_run=iterations,
        converged=converged,
        convergence_iteration=iterations if converged else config.max_iterations,
        last_improvement=last_improvement,
        wall_clock_ms=wall_ms,
    )
