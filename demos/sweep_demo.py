#!/usr/bin/env python3
"""Small acceleration-factor sweep with reference statistics.

Crosses two cognitive/social factor settings on a generated 10-task
instance, five repetitions each, and prints the summary table. Rows
labeled "paper" are the paper's published statistics for the same task
count; they come from different (unpublished) datasets, so they are a
sanity check on the order of magnitude, not a target.

    python3 demos/sweep_demo.py
"""

from uavsched.experiments import (
    ExperimentGrid,
    run_experiment,
    summary_table_text,
)


def main():
    grid = ExperimentGrid(task_counts=(10,),
                          c1_values=(1.0, 2.0),
                          c2_values=(2.0,),
                          swarm_sizes=(40,),
                          repetitions=5,
                          max_iterations=40,
                          base_seed=0)
    print(f"running {len(list(grid.cells())) * grid.repetitions} searches...")
    report = run_experiment(grid)
    print()
    print(summary_table_text(report), end="")
    print()
    both = [r.best_makespan for r in report.runs]
    print(f"all runs: min {min(both)}, max {max(both)}")


if __name__ == "__main__":
    main()
