import concurrent.futures
import dataclasses
import statistics

from uavsched.experiments import ExperimentGrid, run_experiment


def timeless(report):
    return [dataclasses.replace(r, wall_clock_ms=0.0) for r in report.runs]


def test_jobs_do_not_change_results():
    grid = ExperimentGrid(task_counts=(6,), c1_values=(1.0, 2.0),
                          swarm_sizes=(8,), repetitions=2, max_iterations=3)
    serial, pooled = (run_experiment(grid, jobs=jobs) for jobs in (1, 2))

    assert len(serial.runs) == 4
    assert timeless(serial) == timeless(pooled)


class InProcessPool:
    """A ProcessPoolExecutor stand-in that records the worker count it
    is asked for and maps in this process, so no process is started."""

    asked: list[int] = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, work):
        return map(fn, work)


def test_pool_never_larger_than_the_run_count(monkeypatch):
    monkeypatch.setattr(InProcessPool, "asked", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    grid = ExperimentGrid(task_counts=(6,), swarm_sizes=(8,), repetitions=2,
                          max_iterations=3)
    many = run_experiment(grid, jobs=10**6)
    assert InProcessPool.asked == [2]
    one = run_experiment(grid, jobs=1)
    assert InProcessPool.asked == [2]      # one worker: no pool at all
    assert len(one.runs) == 2
    assert timeless(many) == timeless(one)
    single = dataclasses.replace(grid, repetitions=1)
    run_experiment(single, jobs=10**6)
    assert InProcessPool.asked == [2]      # one run: no pool at all


def test_repeated_grid_value_keeps_cells_apart():
    grid = ExperimentGrid(task_counts=(5,), c1_values=(1.0, 2.0, 1.0),
                          swarm_sizes=(8,), repetitions=2, max_iterations=3)
    report = run_experiment(grid)
    assert len(report.summaries) == 3
    for k, s in enumerate(report.summaries):
        own = report.runs[2 * k:2 * k + 2]
        assert [r.run_index for r in own] == [2 * k, 2 * k + 1]
        assert {r.c1 for r in own} == {s.c1}
        spans = [r.best_makespan for r in own]
        assert s.repetitions == 2
        assert (s.min_makespan, s.max_makespan) == (min(spans), max(spans))
        assert s.mean_makespan == statistics.fmean(spans)
        assert s.median_makespan == statistics.median(spans)
        assert s.mean_runtime_ms == statistics.fmean(
            r.wall_clock_ms for r in own)
        assert s.converged_runs == sum(r.converged for r in own)
