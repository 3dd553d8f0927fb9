#!/usr/bin/env python3
"""Swarm search on the bundled instance, with artifacts.

Runs the discrete swap-sequence swarm with default settings, prints the
improvement history, and drops four files into demos/out/: the best
schedule as CSV and as an SVG Gantt chart, plus the search history as
CSV and SVG.

Try different seeds and watch the search land on different (sometimes
equal-makespan) sequences:

    python3 demos/search_demo.py
    python3 demos/search_demo.py 7
"""

import sys
from pathlib import Path

from uavsched.gantt import render_gantt_svg, render_history_svg
from uavsched.io import (
    write_history_csv,
    write_schedule_csv,
    write_text_atomic,
)
from uavsched.pso import PsoConfig, run_pso
from uavsched.sampledata import sample_instance


def main(seed: int = 0):
    inst = sample_instance()
    cfg = PsoConfig(rng_seed=seed)
    print(f"searching {inst.name} with {cfg.swarm_size} particles, "
          f"c1={cfg.c1}, c2={cfg.c2}, seed={seed}")
    report = run_pso(inst, cfg)

    print()
    print(" iter     best        mean")
    for it, best, mean in report.history:
        print(f"{it:>5} {best:>8} {mean:>11.1f}")
    print()
    state = (f"converged at iteration {report.iterations_run}"
             if report.converged else "did not converge")
    print(f"{state}; best makespan {report.best_makespan} "
          f"in {report.wall_clock_ms:.0f} ms")
    print(f"best sequence: {report.best_sequence}")

    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    write_schedule_csv(report.best_schedule, out / "best_schedule.csv")
    write_text_atomic(out / "best_schedule.svg",
                      render_gantt_svg(report.best_schedule,
                                       f"{inst.name} seed {seed}"))
    write_history_csv(report.history, out / "history.csv")
    write_text_atomic(out / "history.svg",
                      render_history_svg(report.history,
                                         f"search history seed {seed}"))
    print(f"wrote best_schedule.csv/.svg and history.csv/.svg to {out}/")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
