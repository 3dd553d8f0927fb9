"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line so
the suite output doubles as a checklist. Run with `pytest -v` (names)
or `pytest -s` (printed lines).
"""

import itertools
import math
import time

import numpy as np

from uavsched.cli import main as cli_main
from uavsched.datagen import GenSpec, generate_instance
from uavsched.eat import build_schedule
from uavsched.experiments import BASELINE_MAKESPAN, BASELINE_RUNTIME_MS
from uavsched.model import ActionKind
from uavsched.pso import PsoConfig, run_pso, update_velocity
from uavsched.sampledata import sample_instance
from uavsched.sequences import apply_swaps, priority_orderings, repair
from uavsched.validate import validate_schedule

from conftest import (
    FULL_COMPLETION,
    FULL_COMPLETION_MAKESPAN,
    GOLDEN_ASSIGNMENTS,
    GOLDEN_PREFIX,
    GOLDEN_PREFIX_MAKESPAN,
    TABLE_ROWS,
    golden_schedule,
)
from oracles import is_feasible_sequence


def report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_golden_trace_prefix():
    inst = sample_instance()
    t0 = time.perf_counter()
    sched = build_schedule(inst, GOLDEN_PREFIX)
    elapsed = time.perf_counter() - t0

    execs = sched.task_executions()
    got = [(tid, execs[tid][0], execs[tid][1].start)
           for tid, _, _ in GOLDEN_ASSIGNMENTS]
    exact_assignments = got == GOLDEN_ASSIGNMENTS
    exact_timeline = sched.actions == golden_schedule(inst).actions
    hover = any(a.kind == ActionKind.HOVER and (a.start, a.end) == (625, 759)
                for a in sched.actions["UAV2"])
    recharge = any(a.kind == ActionKind.RECHARGE
                   and (a.start, a.end) == (1143, 3843)
                   for a in sched.actions["UAV1"])
    ok = (exact_assignments and exact_timeline and hover and recharge
          and sched.makespan() == GOLDEN_PREFIX_MAKESPAN and elapsed < 1.0)

    # Informational only: the full 12-task completion.
    full = build_schedule(inst, FULL_COMPLETION).makespan()
    note = ("reference value matched" if full == FULL_COMPLETION_MAKESPAN
            else f"got {full}, reference {FULL_COMPLETION_MAKESPAN}")
    print(f"[criterion 1]   full completion makespan {full}, "
          f"not gated: {note}")

    report(1, "golden trace prefix", ok,
           f"makespan {sched.makespan()}, built in {elapsed * 1e3:.1f} ms")


def test_criterion_2_swarm_worked_update():
    local = [1, 2, 4, 6, 5, 8, 3, 7, 10, 9, 11, 12]
    glob = [2, 6, 1, 4, 3, 5, 7, 8, 10, 9, 11, 12]
    particle = [1, 2, 4, 6, 5, 8, 7, 3, 10, 9, 12, 11]

    class Pinned:
        # uniforms 0.2/0.4 and the published subset choice
        def __init__(self):
            self._u = iter([0.2, 0.4])

        def random(self):
            return next(self._u)

        def choice(self, n, size, replace):
            return np.arange(size)

    velocity = update_velocity([(6, 7), (10, 11)], particle, local, glob,
                               c1=1.0, c2=2.0, rng=Pinned())
    updated = apply_swaps(particle, velocity)
    want = [2, 6, 1, 4, 7, 5, 3, 8, 10, 9, 11, 12]
    report(2, "velocity update worked example", updated == want,
           f"updated particle {updated}")


def test_criterion_3_priority_rules():
    inst = sample_instance()
    got = priority_orderings(inst)

    max_row = got["proc-time-desc"] == TABLE_ROWS["max_proc_time"]
    min_row = got["proc-time-asc"] == TABLE_ROWS["min_proc_time"]
    feasible = all(is_feasible_sequence(seq, inst) for seq in got.values())

    produced = {tuple(seq) for seq in got.values()}
    matched = sum(tuple(row) in produced for row in TABLE_ROWS.values())
    print(f"[criterion 3]   reference rows reproduced best-effort: "
          f"{matched}/{len(TABLE_ROWS)}")

    report(3, "priority rule sequences", max_row and min_row and feasible,
           f"max/min processing-time rows exact, {len(got)} rules feasible")


def _optimal_makespan(inst) -> int:
    preds = {t.id: set(t.predecessors) for t in inst.tasks}
    order: list[int] = []
    best = math.inf

    def rec(remaining, done):
        nonlocal best
        if not remaining:
            best = min(best, build_schedule(inst, order).makespan())
            return
        for tid in sorted(remaining):
            if preds[tid] <= done:
                order.append(tid)
                rec(remaining - {tid}, done | {tid})
                order.pop()

    rec(frozenset(preds), frozenset())
    return int(best)


def test_criterion_4_small_instance_optimality():
    t0 = time.perf_counter()
    n_instances = 22
    sizes = itertools.cycle([4, 5, 6, 7])
    hits, gaps = 0, []
    for i in range(n_instances):
        inst = generate_instance(GenSpec(n_tasks=next(sizes), seed=100 + i,
                                         n_uavs=2, max_predecessors=2))
        opt = _optimal_makespan(inst)
        rep = run_pso(inst, PsoConfig(swarm_size=40, max_iterations=40,
                                      rng_seed=i))
        gap = (rep.best_makespan - opt) / opt
        gaps.append(gap)
        hits += rep.best_makespan == opt
        assert rep.best_makespan >= opt, "search beat the exhaustive oracle"
    elapsed = time.perf_counter() - t0

    ok = (hits / n_instances >= 0.90 and max(gaps) <= 0.05
          and elapsed < 60.0)
    report(4, "exhaustive oracle optimality", ok,
           f"optimum matched on {hits}/{n_instances}, worst gap "
           f"{max(gaps) * 100:.2f}%, {elapsed:.1f} s")


def test_criterion_5_validator_invariants():
    t0 = time.perf_counter()
    draws = 1000
    rng = np.random.default_rng(0)
    dirty = 0
    for i in range(draws):
        spec = GenSpec(n_tasks=int(rng.integers(1, 15)),
                       seed=int(rng.integers(0, 2 ** 31)),
                       n_uavs=int(rng.integers(1, 5)),
                       slots_per_station=int(rng.integers(1, 3)),
                       max_predecessors=int(rng.integers(0, 4)))
        inst = generate_instance(spec)
        seq = [t.id for t in inst.tasks]
        rng.shuffle(seq)
        sched = build_schedule(inst, repair(seq, inst))
        if validate_schedule(sched):
            dirty += 1
    elapsed = time.perf_counter() - t0
    report(5, "randomized invariant suite", dirty == 0,
           f"{draws} draws, {dirty} with violations, {elapsed:.1f} s")


def test_criterion_6_convergence_behavior():
    runs_per_size = 20
    all_ok = True
    details = []
    for n in (10, 50, 100):
        inst = generate_instance(GenSpec(n_tasks=n, seed=n))
        converged = 0
        monotone = 0
        for seed in range(runs_per_size):
            rep = run_pso(inst, PsoConfig(rng_seed=seed))
            converged += rep.converged and rep.iterations_run <= 40
            bests = [b for _, b, _ in rep.history]
            monotone += all(x >= y for x, y in zip(bests, bests[1:]))
        size_ok = (converged / runs_per_size >= 0.95
                   and monotone == runs_per_size)
        all_ok = all_ok and size_ok
        details.append(f"{n}t {converged}/{runs_per_size} converged, "
                       f"{monotone}/{runs_per_size} monotone")
    report(6, "convergence behavior", all_ok, "; ".join(details))


def test_criterion_7_scale_runtime():
    bounds = {10: 2.0, 100: 30.0}
    ok = True
    details = []
    for n, bound in bounds.items():
        inst = generate_instance(GenSpec(n_tasks=n, seed=n))
        t0 = time.perf_counter()
        rep = run_pso(inst, PsoConfig(rng_seed=0))
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < bound
        ref_ms = BASELINE_RUNTIME_MS[n]
        ref_min = BASELINE_MAKESPAN[n][0]
        details.append(f"{n}t {elapsed:.2f}s (bound {bound:.0f}s)")
        print(f"[criterion 7]   {n} tasks: {elapsed * 1e3:.0f} ms vs "
              f"reference {ref_ms} ms; makespan {rep.best_makespan} vs "
              f"reference min {ref_min} (side-by-side only, different "
              f"datasets)")
    report(7, "scale and runtime", ok, ", ".join(details))


def test_criterion_8_seeded_determinism(tmp_path, capsys):
    pairs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert cli_main(["search", "--seed", "33", "--max-iter", "8",
                         "--out-dir", str(d)]) == 0
        assert cli_main(["generate", "--tasks", "9", "--seed", "4",
                         "--out-dir", str(d)]) == 0
        assert cli_main(["experiment", "--tasks", "10", "--reps", "2",
                         "--max-iter", "3", "--seed", "5",
                         "--out-dir", str(d)]) == 0
        pairs.append(d)
    capsys.readouterr()

    a, b = pairs
    names = sorted(p.name for p in a.iterdir())
    same = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    report(8, "seeded determinism", same,
           f"{len(names)} artifacts byte-identical across reruns")
