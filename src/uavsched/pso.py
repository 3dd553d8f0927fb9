"""Discrete particle swarm over task sequences.

Particles are precedence-feasible permutations; velocities are ordered
lists of index swap pairs. Each iteration a particle keeps its previous
pairs, then absorbs randomly chosen pairs from its differences to the
particle's own best and to the swarm best, the proportions steered by
the cognitive and social factors. `run_pso` holds each velocity as the
composed index permutation of its pairs and an n*n mask of the pairs
absorbed so far, both updated in place. Fitness is the makespan of the
schedule the list constructor builds for the sequence.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

from ._draws import generator, spawn, stream
from .eat import _construct, _dense_sequence, build_schedule
from .model import ProblemInstance, Schedule, _decode, exact_int
from .sequences import (
    _difference,
    _relabel,
    apply_swaps,
    priority_orderings,
    repair,
)

# The benchmark's tracer (benchmark/run.py) wraps `fitness`,
# `update_velocity`, `repair`, `apply_swaps`, `priority_orderings` and
# `build_schedule` as names of this module, so they stay bound here.
# `repair` and `apply_swaps` are imported for the tracer alone: no code
# in this module calls them.

# Up to this many tasks each particle draws from a `Draws`, which
# computes its Generator's draws in Python; above it, from the Generator
# itself. The stream's cost grows with the difference lists, numpy's is
# mostly per call: in-process `run_pso` (Python 3.11, numpy 2.4, a
# 2-core Xeon host, call-by-call interleaved pairs) ran x1.33 faster on
# the stream at 10 tasks, x1.09 at 20, x1.03-1.05 at 25 and x0.98-1.03
# at 30. The stream serves lists of up to `_draws._SMALL` pairs, so this
# stays at most one more.
DRAWS_MAX_TASKS = 20


@dataclass(frozen=True)
class PsoConfig:
    """Search knobs; the defaults are the tuned values from the bundled
    experiment campaign (cognitive 1, social 2, 40 particles). Frozen,
    so a derived config (`dataclasses.replace`) is checked again."""

    c1: float = 1.0
    c2: float = 2.0
    swarm_size: int = 40
    max_iterations: int = 40
    convergence_window: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("swarm_size", "max_iterations", "convergence_window"):
            value = exact_int(getattr(self, name))
            if value is None:
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, value)
        for name in ("c1", "c2"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError("acceleration factors must be real numbers")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ValueError("acceleration factors must be finite") from None
        if self.swarm_size < 8:
            raise ValueError("swarm_size must be at least 8, one per seeding rule")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.convergence_window < 1:
            raise ValueError("convergence_window must be positive")
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError("acceleration factors must be finite")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("acceleration factors must be non-negative")
        seed = exact_int(self.rng_seed)
        if seed is None or seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        object.__setattr__(self, "rng_seed", seed)


@dataclass
class RunReport:
    """Everything a search run produced, timing included.

    iterations_run is the iteration the search stopped at: where it
    converged when converged is true, else max_iterations.
    """

    config: PsoConfig
    best_sequence: list[int]
    best_makespan: int
    best_schedule: Schedule
    history: list[tuple[int, int, float]]  # (iteration, best, mean)
    iterations_run: int
    converged: bool
    last_improvement: int
    wall_clock_ms: float


def velocity_cap(n_tasks: int) -> int:
    """Initial swap-pair budget per particle, banded by problem size."""
    if n_tasks <= 20:
        return 2
    if n_tasks <= 50:
        return 10
    return 30


def fitness(sequence, instance: ProblemInstance) -> int:
    """Makespan of build_schedule(instance, sequence) without recording
    the timeline; 0 for an empty sequence."""
    return _construct(instance, _dense_sequence(instance, sequence))


def update_velocity(velocity, particle, local_best, global_best,
                    c1: float, c2: float, rng) -> list[tuple[int, int]]:
    """Next velocity: old pairs, then sampled cognitive and social pairs.

    The share of difference pairs absorbed is c * U with U drawn once
    per component, clamped at taking the whole list, rounded to the
    nearest count. Pairs equal (as unordered index sets) to one already
    present are dropped.

    rng is a numpy Generator or anything with its `random()` and
    `choice(n, size=None, replace=False)`: each component draws its
    pairs with one `choice`, scalar for a single pair, and takes them
    in ascending index order.

    The bests must be permutations of the particle's distinct items, or
    `_relabel` raises SequenceError before any draw. `_step_velocity`
    does the rest on a pair mask of the old pairs (those out of range
    for the particle are left out, as no new pair can equal them).
    """
    local, best = _relabel(particle, local_best, global_best)
    n = len(local)
    pairs = [tuple(p) for p in velocity]
    mask = bytearray(n * n)
    for i, j in pairs:
        if 0 <= i < n and 0 <= j < n:
            mask[i * n + j] = mask[j * n + i] = 1
    return pairs + _step_velocity(mask, range(n), local, best, c1, c2,
                                  _GeneratorSampler(rng))


def _step_velocity(mask, particle, local_best, global_best,
                   c1: float, c2: float, rng) -> list[tuple[int, int]]:
    """The pairs update_velocity appends, on labels below
    n = len(particle) such as dense task indices.

    mask holds n*n bytes with both orientations of every pair in the
    velocity set; a pair found there is dropped and each new pair is
    marked. One position list of the particle serves both difference
    walks. rng gives `random()`; `sample(size, count)`, the sorted
    indices of `count` pairs drawn from a difference list of `size`, or
    None when the whole list is drawn, which is then taken as it stands;
    and `skip(size, count)`, which leaves rng where `sample` would. A
    list whose every pair is already in the mask can add nothing, so
    its draw is skipped: still made, so the stream advances exactly,
    but with no value computed.
    """
    n = len(particle)
    new: list[tuple[int, int]] = []
    pos = [0] * n
    for k, t in enumerate(particle):
        pos[t] = k
    work = list(particle)
    u1 = rng.random()
    u2 = rng.random()
    for diff, share in ((_difference(local_best, work[:], pos[:]), c1 * u1),
                        (_difference(global_best, work, pos), c2 * u2)):
        size = len(diff)
        count = int((share if share < 1.0 else 1.0) * size + 0.5)
        if count <= 0:
            continue
        for i, j in diff:
            if not mask[i * n + j]:
                break
        else:   # every pair is in the mask, so every pick is dropped
            rng.skip(size, count)
            continue
        picks = rng.sample(size, count)
        if picks is not None:
            diff = [diff[idx] for idx in picks]
        for pair in diff:
            i, j = pair
            if not mask[i * n + j]:
                mask[i * n + j] = mask[j * n + i] = 1
                new.append(pair)
    return new


class _GeneratorSampler:
    """`_step_velocity`'s rng over a Generator-like `random` and
    `choice`: a single pick takes the scalar `choice`, which draws what
    `size=1` draws."""

    def __init__(self, rng):
        self.random, self._choice = rng.random, rng.choice

    def sample(self, size: int, count: int) -> list[int] | None:
        if count == 1:
            return [self._choice(size, replace=False)]
        chosen = self._choice(size, size=count, replace=False)
        if count == size:
            return None
        chosen.sort()
        return chosen.tolist()

    # the `choice` call is the cost, values used or not
    skip = sample


def _random_initial_velocity(n: int, cap: int,
                             rng) -> tuple[list[int], bytearray]:
    """Between 1 and cap distinct random swap pairs (none when n < 2),
    as their composed index permutation and n*n pair mask, from a
    `Draws`. Pairs are drawn in rounds of exactly the number still
    wanted, which draws what one pair at a time would."""
    perm = list(range(n))
    mask = bytearray(n * n)
    if n < 2 or cap < 1:
        return perm, mask
    count = min(rng.integers(1, cap + 1), n * (n - 1) // 2)
    while count:
        for i, j in rng.pairs(n, count):
            if i == j or mask[i * n + j]:
                continue
            mask[i * n + j] = mask[j * n + i] = 1
            perm[i], perm[j] = perm[j], perm[i]
            count -= 1
    return perm, mask


def _mutate_preserving_precedence(sequence, preds, succs, rng) -> list[int]:
    """Random transpositions that individually keep the sequence feasible.

    The sequence must be feasible; preds and succs give each of its
    items' direct predecessors and successors (by id or by dense index,
    as the sequence holds). Swapping task a at lo with task b at hi > lo
    then breaks precedence exactly when a direct predecessor of b sits
    at lo..hi-1 or a direct successor of a at lo+1..hi, so each attempt
    looks up only the positions of those tasks.

    The n // 2 attempts (at least one) draw their index pairs from a
    `Draws` in one call.
    """
    seq = list(sequence)
    n = len(seq)
    if n < 2:
        return seq
    pos = {tid: k for k, tid in enumerate(seq)}
    for i, j in rng.pairs(n, max(1, n // 2)):
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


def _initial_swarm(instance: ProblemInstance, swarm_size: int,
                   rng) -> list[list[int]]:
    """Eight priority-rule particles, the rest feasible mutations of
    them, in the compiled view's dense task indices."""
    view = instance.compiled()
    index = view.task_index
    rules = [[index[t] for t in seq]
             for seq in priority_orderings(instance).values()]
    particles = rules[:swarm_size]
    for idx in range(swarm_size - len(particles)):
        particles.append(_mutate_preserving_precedence(
            rules[idx % len(rules)], view.task_preds, view.task_succs, rng))
    return particles


def run_pso(instance: ProblemInstance, config: PsoConfig | None = None) -> RunReport:
    """Full search: seeded swarm, swap-pair flight, stagnation stop.

    Deterministic for a given (instance, config): the seed fans out into
    one `Draws` for swarm construction and one stream per particle, so
    results do not depend on evaluation order. Particles and bests are
    tuples of the compiled view's dense task indices, whose ascending
    order is that of the ids, so every tie breaks as it would on ids;
    only the report is in task ids. `seen` maps each sequence met, as moved or
    decoded, to its (decoded tuple, makespan): `_decode` is
    deterministic and keeps a feasible sequence, so each distinct move
    is decoded once and each distinct decoded sequence scored once.
    """
    t0 = time.perf_counter()
    config = config or PsoConfig()
    seeds = spawn(config.rng_seed, config.swarm_size + 1)
    rng_init = stream(seeds[0])
    view = instance.compiled()
    preds, succs = view.task_preds, view.task_succs
    n = len(view.tasks)
    if n <= DRAWS_MAX_TASKS:
        particle_rngs = [stream(s) for s in seeds[1:]]
    else:
        particle_rngs = [_GeneratorSampler(generator(s)) for s in seeds[1:]]
    seen: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}

    def score(seq: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        hit = seen.get(seq)
        if hit is None:
            hit = seen[seq] = (seq, _construct(instance, seq))
        return hit

    particles = [score(tuple(p))[0] for p in
                 _initial_swarm(instance, config.swarm_size, rng_init)]
    fits = [seen[p][1] for p in particles]
    velocities = [_random_initial_velocity(n, velocity_cap(n), rng_init)
                  for _ in particles]
    local_best = list(particles)
    local_fit = list(fits)
    global_fit = min(fits)
    global_best = particles[fits.index(global_fit)]

    history = [(0, global_fit, sum(fits) / len(fits))]
    last_improvement = 0
    stagnation = 0
    converged = False
    for it in range(1, config.max_iterations + 1):   # runs at least once
        improved = False
        for i, rng in enumerate(particle_rngs):
            perm, mask = velocities[i]
            particle = particles[i]
            for a, b in _step_velocity(mask, particle, local_best[i],
                                       global_best, config.c1, config.c2,
                                       rng):
                perm[a], perm[b] = perm[b], perm[a]
            raw = tuple([particle[k] for k in perm])
            hit = seen.get(raw)
            if hit is None:
                hit = seen[raw] = score(tuple(_decode(raw, preds, succs)))
            moved, f = hit
            particles[i] = moved
            fits[i] = f
            if f < local_fit[i]:
                local_fit[i] = f
                local_best[i] = moved
            if f < global_fit:
                global_fit = f
                global_best = moved
                improved = True
        history.append((it, global_fit, sum(fits) / len(fits)))
        if improved:
            last_improvement = it
            stagnation = 0
        else:
            stagnation += 1
            if stagnation >= config.convergence_window:
                converged = True
                break
    ids = list(view.task_index)
    best_sequence = [ids[d] for d in global_best]
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return RunReport(
        config=config,
        best_sequence=best_sequence,
        best_makespan=global_fit,
        best_schedule=build_schedule(instance, best_sequence),
        history=history,
        iterations_run=it,
        converged=converged,
        last_improvement=last_improvement,
        wall_clock_ms=wall_ms,
    )
