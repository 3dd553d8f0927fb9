"""Command line entry points.

Subcommands:
  schedule    build and print a timeline for a fixed or rule-derived sequence
  search      swarm search for a low-makespan sequence
  experiment  repeated seeded searches over a parameter grid
  generate    write a random problem instance

Exit codes: 0 success, 1 usage error, 2 input/validation error,
3 internal failure while running.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .datagen import GenerationError, GenSpec, generate_instance
from .eat import build_schedule
from .experiments import (ExperimentGrid, run_experiment, runs_csv_text,
                          summary_csv_text, summary_table_text)
from .gantt import render_gantt_svg, render_history_svg
from .io import (load_instance, parse_integer, parse_real, read_task_csv,
                 read_text, save_instance, write_history_csv,
                 write_report_json, write_schedule_csv, write_text_atomic)
from .model import InstanceError, ProblemInstance, SchedulingError
from .pso import PsoConfig, run_pso
from .sampledata import sample_fleet, sample_instance, sample_map, sample_stations
from .sequences import PRIORITY_RULES, extend_sequence, priority_orderings
from .validate import validate_schedule

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; keep usage problems on code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _load_problem(path: str | None) -> ProblemInstance:
    if path is None:
        return sample_instance()
    p = Path(path)
    if not p.exists():
        raise InstanceError(f"instance file not found: {p}")
    if p.suffix.lower() == ".csv":
        # Task table only: pair it with the bundled lab environment.
        return ProblemInstance(trajectory_map=sample_map(),
                               stations=sample_stations(),
                               tasks=read_task_csv(p), uavs=sample_fleet(),
                               name=p.stem)
    return load_instance(p)


def _parse_sequence(text: str) -> list[int]:
    try:
        return [parse_integer(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"sequence must be integers: {text!r}") from exc


def _resolve_sequence(args, instance: ProblemInstance) -> list[int]:
    given = sum(bool(v) for v in
                (args.sequence, args.sequence_file, args.rule))
    if given > 1:
        raise UsageError("choose one of --sequence, --sequence-file, --rule")
    if args.sequence:
        seq = _parse_sequence(args.sequence)
    elif args.sequence_file:
        seq = _parse_sequence(read_text(args.sequence_file))
    else:
        rule = args.rule or PRIORITY_RULES[0]
        orderings = priority_orderings(instance)
        if rule not in orderings:
            raise UsageError(
                f"unknown rule {rule!r}; choose from {', '.join(PRIORITY_RULES)}")
        return orderings[rule]
    # Partial input is allowed: keep it as a prefix and append the rest.
    return extend_sequence(seq, instance)


def _print_schedule(schedule, out=None):
    out = out if out is not None else sys.stdout
    rows = schedule.task_executions()
    print(f"{'task':>5} {'uav':>6} {'start':>7} {'end':>7} "
          f"{'from':>5} {'to':>4}", file=out)
    for tid in sorted(rows, key=lambda t: (rows[t][1].start, t)):
        uav_id, a = rows[tid]
        print(f"{tid:>5} {uav_id:>6} {a.start:>7} {a.end:>7} "
              f"{a.from_pos:>5} {a.to_pos:>4}", file=out)
    print(f"makespan: {schedule.makespan()}", file=out)


def _out_dir(path: str | None) -> Path | None:
    """--out-dir, created if missing, or None when not given. Checked
    before any work starts: a directory that cannot be created or
    written is a usage error, whichever OSError the system reports."""
    if not path:
        return None
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):   # a file in the way
        reason = "not a directory"
    except OSError as exc:  # PermissionError, a read-only file system, ...
        reason = exc.strerror or exc
    else:
        if os.access(out, os.W_OK | os.X_OK):
            return out
        reason = "permission denied"
    raise UsageError(f"cannot write to --out-dir {path}: {reason}")


def _write_schedule_outputs(schedule, out: Path, formats, stem: str,
                            title: str):
    written = []
    if "csv" in formats:
        write_schedule_csv(schedule, out / f"{stem}.csv")
        written.append(out / f"{stem}.csv")
    if "svg" in formats:
        write_text_atomic(out / f"{stem}.svg",
                          render_gantt_svg(schedule, title))
        written.append(out / f"{stem}.svg")
    return written


def cmd_schedule(args) -> int:
    instance = _load_problem(args.instance)
    sequence = _resolve_sequence(args, instance)
    out = _out_dir(args.out_dir)
    schedule = build_schedule(instance, sequence)
    problems = validate_schedule(schedule)
    if problems:
        for v in problems:
            print(f"violation: {v.kind}: {v.message}", file=sys.stderr)
        return EXIT_INVALID
    print(f"instance: {instance.name}")
    print(f"sequence: {' '.join(str(t) for t in sequence)}")
    _print_schedule(schedule)
    if out is not None:
        for path in _write_schedule_outputs(
                schedule, out, args.format, "schedule",
                f"{instance.name} schedule"):
            print(f"wrote {path}")
    return EXIT_OK


def cmd_search(args) -> int:
    instance = _load_problem(args.instance)
    try:
        config = PsoConfig(c1=args.c1, c2=args.c2, swarm_size=args.particles,
                           max_iterations=args.max_iter,
                           convergence_window=args.window, rng_seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _out_dir(args.out_dir)
    report = run_pso(instance, config)
    print(f"instance: {instance.name} ({len(instance.tasks)} tasks)")
    print(f"best sequence: {' '.join(str(t) for t in report.best_sequence)}")
    print(f"best makespan: {report.best_makespan}")
    status = ("converged at iteration "
              f"{report.iterations_run}" if report.converged
              else f"ran all {report.iterations_run} iterations")
    print(f"{status} ({report.wall_clock_ms:.0f} ms)")
    _print_schedule(report.best_schedule)
    if out is not None:
        for path in _write_schedule_outputs(
                report.best_schedule, out, args.format,
                "best_schedule", f"{instance.name} best schedule"):
            print(f"wrote {path}")
        if "csv" in args.format:
            write_history_csv(report.history, out / "history.csv")
            print(f"wrote {out / 'history.csv'}")
        if "svg" in args.format:
            write_text_atomic(out / "history.svg",
                              render_history_svg(report.history,
                                                 f"{instance.name} search"))
            print(f"wrote {out / 'history.svg'}")
        if "json" in args.format:
            write_report_json(report, out / "report.json")
            print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def _flag(parse):
    """An argparse type reporting parse's ValueError as its message."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


_integer, _real = _flag(parse_integer), _flag(parse_real)


def _numbers(text: str, kind, flag: str) -> tuple:
    parse = parse_integer if kind is int else parse_real
    try:
        return tuple(parse(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated {kind.__name__} "
                         f"values: {text!r}") from None


def _experiment_grid(args) -> ExperimentGrid:
    """The grid from the command line, rejected as a usage error before
    any run starts when a value cannot be run."""
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    try:
        return ExperimentGrid(
            task_counts=_numbers(args.tasks, int, "--tasks"),
            c1_values=_numbers(args.c1, float, "--c1"),
            c2_values=_numbers(args.c2, float, "--c2"),
            swarm_sizes=_numbers(args.particles, int, "--particles"),
            repetitions=args.reps, max_iterations=args.max_iter,
            base_seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_experiment(args) -> int:
    grid = _experiment_grid(args)
    out = _out_dir(args.out_dir)
    total = len(grid.cells()) * grid.repetitions
    t0 = time.perf_counter()

    def progress(done, _total):
        if done % 10 == 0 or done == total:
            elapsed = time.perf_counter() - t0
            print(f"  {done}/{total} runs ({elapsed:.1f}s)", file=sys.stderr)

    report = run_experiment(grid, jobs=args.jobs, progress=progress)
    print(summary_table_text(report), end="")
    if out is not None:
        write_text_atomic(out / "runs.csv", runs_csv_text(report))
        write_text_atomic(out / "summary.csv", summary_csv_text(report))
        print(f"wrote {out / 'runs.csv'}")
        print(f"wrote {out / 'summary.csv'}")
    return EXIT_OK


def cmd_generate(args) -> int:
    spec = GenSpec(n_tasks=args.tasks, seed=args.seed,
                   max_predecessors=args.max_preds, n_uavs=args.uavs,
                   slots_per_station=args.slots)
    out = _out_dir(args.out_dir or ".") / "instance.json"
    instance = generate_instance(spec)
    save_instance(instance, out)
    print(f"instance: {instance.name} ({len(instance.tasks)} tasks, "
          f"{len(instance.uavs)} uavs)")
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="uavsched",
                     description="Indoor UAV task scheduling: timeline "
                                 "construction and sequence search.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("--instance", metavar="PATH",
                       help="instance JSON, or a task CSV to run in the "
                            "bundled lab environment (default: bundled "
                            "12-task example)")

    def add_outputs(p):
        p.add_argument("--out-dir", metavar="DIR",
                       help="directory for result files")
        p.add_argument("--format", nargs="+", default=["csv", "svg", "json"],
                       choices=["csv", "svg", "json"],
                       help="which artifact formats to write")

    p = sub.add_parser("schedule",
                       help="build the timeline for one task sequence")
    add_instance(p)
    p.add_argument("--sequence", help="task ids, e.g. '2,6,1,4'")
    p.add_argument("--sequence-file", help="file with whitespace or comma "
                                           "separated task ids")
    p.add_argument("--rule", help="priority rule to derive the sequence "
                                  f"({', '.join(PRIORITY_RULES)})")
    add_outputs(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("search", help="swarm search for a short makespan")
    add_instance(p)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--c1", type=_real, default=1.0,
                   help="pull toward each particle's own best")
    p.add_argument("--c2", type=_real, default=2.0,
                   help="pull toward the swarm best")
    p.add_argument("--particles", type=_integer, default=40)
    p.add_argument("--max-iter", type=_integer, default=40)
    p.add_argument("--window", type=_integer, default=10,
                   help="stop after this many improvement-free iterations")
    add_outputs(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("experiment",
                       help="repeat searches over a parameter grid")
    p.add_argument("--tasks", default="10", help="task counts, e.g. 10,50")
    p.add_argument("--c1", default="1.0", help="c1 values, e.g. 0.5,1,2")
    p.add_argument("--c2", default="2.0", help="c2 values")
    p.add_argument("--particles", default="40", help="swarm sizes")
    p.add_argument("--reps", type=_integer, default=20)
    p.add_argument("--max-iter", type=_integer, default=40)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--jobs", type=_integer, default=1,
                   help="parallel worker processes")
    p.add_argument("--out-dir", metavar="DIR")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("generate", help="write a random instance JSON")
    p.add_argument("--tasks", type=_integer, default=10)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--uavs", type=_integer, default=3)
    p.add_argument("--slots", type=_integer, default=1,
                   help="recharge bays per station")
    p.add_argument("--max-preds", type=_integer, default=2,
                   help="max sampled predecessors per task")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InstanceError, GenerationError, SchedulingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
