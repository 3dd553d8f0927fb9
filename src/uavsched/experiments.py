"""Parameter sweeps over repeated seeded searches, with summary stats.

Each grid cell (task count, c1, c2, swarm size) is run `repetitions`
times with derived seeds; its min/max/mean/median makespans are shown
next to the paper's figures, which were measured on other datasets.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product

from .datagen import GenSpec, generate_instance
from .model import ProblemInstance, exact_int
from .pso import PsoConfig, run_pso

# The paper's results for the search defaults (c1=1, c2=2, 40 particles,
# 40 iterations, 20 repetitions), measured on its own datasets, which are
# not available: context for the order of magnitude, not a baseline.
# Values are (min, max, mean, median) makespan and mean wall clock in ms.
BASELINE_MAKESPAN = {
    10: (1818, 1937, 1835.85, 1818),
    50: (17076, 18948, 18559.65, 18677.5),
    100: (30009, 31876, 30865.65, 30865),
}
BASELINE_RUNTIME_MS = {10: 102.1, 50: 639.25, 100: 1158.25}


@dataclass(frozen=True)
class ExperimentGrid:
    task_counts: tuple[int, ...] = (10,)
    c1_values: tuple[float, ...] = (1.0,)
    c2_values: tuple[float, ...] = (2.0,)
    swarm_sizes: tuple[int, ...] = (40,)
    repetitions: int = 20
    max_iterations: int = 40
    base_seed: int = 0

    def __post_init__(self):
        """Refuse, with ValueError, a grid that cannot run in full, so
        it fails before any run or worker pool starts."""
        reps = exact_int(self.repetitions)
        if reps is None or reps < 1:
            raise ValueError("repetitions must be an integer of at least 1, "
                             f"not {self.repetitions!r}")
        counts = tuple(map(exact_int, self.task_counts))
        if any(n is None or n < 0 for n in counts):
            raise ValueError("task counts must be non-negative integers: "
                             f"{self.task_counts!r}")
        object.__setattr__(self, "repetitions", reps)
        object.__setattr__(self, "task_counts", counts)
        for _, c1, c2, swarm in self.cells():
            PsoConfig(c1=c1, c2=c2, swarm_size=swarm,
                      max_iterations=self.max_iterations,
                      rng_seed=self.base_seed)

    def cells(self):
        return list(product(self.task_counts, self.c1_values,
                            self.c2_values, self.swarm_sizes))


@dataclass
class RunResult:
    run_index: int
    n_tasks: int
    c1: float
    c2: float
    swarm_size: int
    repetition: int
    seed: int
    best_makespan: int
    iterations_run: int
    converged: bool
    wall_clock_ms: float


@dataclass
class CellSummary:
    n_tasks: int
    c1: float
    c2: float
    swarm_size: int
    repetitions: int
    min_makespan: int
    max_makespan: int
    mean_makespan: float
    median_makespan: float
    mean_runtime_ms: float
    converged_runs: int


@dataclass
class ExperimentReport:
    grid: ExperimentGrid
    runs: list[RunResult] = field(default_factory=list)
    summaries: list[CellSummary] = field(default_factory=list)


def _instance_for(n_tasks: int, base_seed: int) -> ProblemInstance:
    # One instance per task count so cells with equal n compare on the
    # same problem.
    return generate_instance(GenSpec(n_tasks=n_tasks,
                                     seed=base_seed + n_tasks))


def _run_one(args):
    run_index, n_tasks, c1, c2, swarm, rep, seed, base_seed, max_iter = args
    instance = _instance_for(n_tasks, base_seed)
    config = PsoConfig(c1=c1, c2=c2, swarm_size=swarm,
                       max_iterations=max_iter, rng_seed=seed)
    report = run_pso(instance, config)
    return RunResult(run_index, n_tasks, c1, c2, swarm, rep, seed,
                     report.best_makespan, report.iterations_run,
                     report.converged, report.wall_clock_ms)


def run_experiment(grid: ExperimentGrid, jobs: int = 1,
                   progress=None) -> ExperimentReport:
    """Run every grid cell's repetitions, on up to `jobs` worker
    processes (never more than there are runs)."""
    work = [(i, n, c1, c2, swarm, rep, grid.base_seed + i, grid.base_seed,
             grid.max_iterations)
            for i, ((n, c1, c2, swarm), rep) in enumerate(
                product(grid.cells(), range(grid.repetitions)))]

    # a pool may start all its workers at once, so it gets no more than
    # there are runs; map and pool.map both yield in run_index order
    workers = min(jobs, len(work))
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run,
        # and every CLI call that imports this module, does not need
        from concurrent.futures import ProcessPoolExecutor
        runner = ProcessPoolExecutor(max_workers=workers)
    else:
        runner = nullcontext()
    with runner as pool:
        results = []
        for r in (pool.map if pool else map)(_run_one, work):
            results.append(r)
            if progress:
                progress(len(results), len(work))

    # each cell's runs are consecutive, in cells() order, so a grid that
    # repeats a value still summarises every cell from its own runs
    report = ExperimentReport(grid=grid, runs=results)
    reps = grid.repetitions
    for k, (n, c1, c2, swarm) in enumerate(grid.cells()):
        cell = results[k * reps:(k + 1) * reps]
        spans = [r.best_makespan for r in cell]
        report.summaries.append(CellSummary(
            n_tasks=n, c1=c1, c2=c2, swarm_size=swarm,
            repetitions=len(cell),
            min_makespan=min(spans),
            max_makespan=max(spans),
            mean_makespan=statistics.fmean(spans),
            median_makespan=statistics.median(spans),
            mean_runtime_ms=statistics.fmean(r.wall_clock_ms for r in cell),
            converged_runs=sum(1 for r in cell if r.converged),
        ))
    return report


def runs_csv_text(report: ExperimentReport) -> str:
    lines = ["run_index,n_tasks,c1,c2,swarm_size,repetition,seed,"
             "best_makespan,iterations_run,converged"]
    for r in report.runs:
        lines.append(f"{r.run_index},{r.n_tasks},{r.c1},{r.c2},"
                     f"{r.swarm_size},{r.repetition},{r.seed},"
                     f"{r.best_makespan},{r.iterations_run},"
                     f"{int(r.converged)}")
    return "\n".join(lines) + "\n"


def summary_csv_text(report: ExperimentReport) -> str:
    lines = ["n_tasks,c1,c2,swarm_size,repetitions,min,max,mean,median,"
             "converged_runs"]
    for s in report.summaries:
        lines.append(f"{s.n_tasks},{s.c1},{s.c2},{s.swarm_size},"
                     f"{s.repetitions},{s.min_makespan},{s.max_makespan},"
                     f"{s.mean_makespan:.2f},{s.median_makespan:.2f},"
                     f"{s.converged_runs}")
    return "\n".join(lines) + "\n"


def summary_table_text(report: ExperimentReport) -> str:
    """Console table; cells whose task count has a paper entry get a
    second `paper` line with the paper's stats on its datasets."""
    head = (f"{'tasks':>5} {'c1':>4} {'c2':>4} {'swarm':>5} "
            f"{'min':>8} {'max':>8} {'mean':>10} {'median':>9} "
            f"{'ms/run':>8}")
    lines = [head, "-" * len(head)]
    if any(s.n_tasks in BASELINE_MAKESPAN for s in report.summaries):
        lines.insert(0, "paper rows: the paper's figures, measured on "
                        "other datasets")
    for s in report.summaries:
        lines.append(f"{s.n_tasks:>5} {s.c1:>4g} {s.c2:>4g} "
                     f"{s.swarm_size:>5} {s.min_makespan:>8} "
                     f"{s.max_makespan:>8} {s.mean_makespan:>10.2f} "
                     f"{s.median_makespan:>9.1f} {s.mean_runtime_ms:>8.1f}")
        base = BASELINE_MAKESPAN.get(s.n_tasks)
        if base:
            bmin, bmax, bmean, bmed = base
            bms = BASELINE_RUNTIME_MS[s.n_tasks]
            lines.append(f"{'':>5} {'':>4} {'':>4} {'paper':>5} "
                         f"{bmin:>8} {bmax:>8} {bmean:>10.2f} "
                         f"{bmed:>9.1f} {bms:>8.1f}")
    return "\n".join(lines) + "\n"
