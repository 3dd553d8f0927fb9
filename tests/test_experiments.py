import dataclasses

from uavsched.experiments import ExperimentGrid, run_experiment


def test_jobs_do_not_change_results():
    grid = ExperimentGrid(task_counts=(6,), c1_values=(1.0, 2.0),
                          swarm_sizes=(8,), repetitions=2, max_iterations=3)
    serial, pooled = (run_experiment(grid, jobs=jobs) for jobs in (1, 2))

    def timeless(report):
        return [dataclasses.replace(r, wall_clock_ms=0.0)
                for r in report.runs]

    assert len(serial.runs) == 4
    assert timeless(serial) == timeless(pooled)
