"""uavsched benchmark: fixed-work swarm search and a schedule audit.

Run from the repository root:

    python3 benchmark/run.py --workload search-10 --seed 0 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single caller:
each op starts when the previous one has returned. Every op's output is
checked with the package's independent validator. Human-readable lines
name every metric with its unit; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with times corrected
for the host's speed (calibrate.py). With --trace 1 the run
alternates untraced and traced executions of each op and reports the
per-layer metrics of the traced ones. Workloads, metrics and baselines
are described in benchmark/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from calibrate import HostClock, reference_pass
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected.json"

MODULES = ("datagen", "eat", "gantt", "io", "model", "pso", "sequences",
           "validate")
SETUP_REPEATS = 9   # setup_s is the median of these
CAL_SHARE = 0.1     # reference passes take this share of the op time
SETUP_PASSES = 2    # reference passes before each set-up
WARMUP_PASSES = 3   # untimed reference passes first
PROBES = 5          # generate_instance / ProblemInstance calls in a traced run
RNG_SEEDS = 20      # a search op's rng_seed cycles over 0..19
KEEP_SPAN_OPS = 2   # traced ops whose span records are written out
SHOWN_PROBLEMS = 5  # failure reports printed per run


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "search" or "audit"
    n_tasks: int
    panel: int               # instances generated per run
    prefix: int              # ops every run completes; deterministic values
                             # cover exactly these
    iterations: int = 40     # search: max_iterations = convergence_window
    spec: tuple = ()         # further GenSpec fields as (name, value) pairs
    sequences: int = 0       # audit: random feasible sequences per instance

    def instance_seed(self, seed: int, j: int) -> int:
        # base = seed * panel + j; base 0 gives the instance the acceptance
        # tests generate for n_tasks
        return seed * self.panel + j + self.n_tasks


WORKLOADS = {wl.name: wl for wl in (
    Workload("search-10", "search", 10, panel=80, prefix=30),
    Workload("search-100", "search", 100, panel=8, prefix=8, iterations=10),
    Workload("audit-50", "audit", 50, panel=16, prefix=200,
             spec=(("slots_per_station", 2), ("n_uavs", 4)), sequences=13),
)}


def _observe_schedule(counts, args, schedule):
    counts["schedules"] += 1
    for acts in schedule.actions.values():
        for a in acts:
            if a.kind == "recharge":
                counts["recharges"] += 1
            elif a.kind == "hover":
                counts["hover_s"] += a.end - a.start


def _observe_velocity(counts, args, velocity):
    counts["velocity_len"] += len(velocity)


def _observe_repair(counts, args, repaired):
    counts["repairs_changed"] += list(args[0]) != repaired


def _observe_validate(counts, args, violations):
    counts["violations"] += len(violations)


def _observe_csv(counts, args, _):
    counts["csv_bytes"] += os.path.getsize(args[1])


def _observe_svg(counts, args, svg):
    counts["svg_bytes"] += len(svg.encode("utf-8"))


# (module, attribute, span name, observer) wrapped in a traced run
TRACE_TARGETS = {
    "search": (
        ("pso", "run_pso", "pso.run_pso", None),
        ("pso", "priority_orderings", "sequences.priority_orderings", None),
        ("pso", "fitness", "pso.fitness", None),
        ("pso", "build_schedule", "eat.build_schedule", _observe_schedule),
        ("pso", "update_velocity", "pso.update_velocity", _observe_velocity),
        ("pso", "repair", "sequences.repair", _observe_repair),
        ("pso", "apply_swaps", "sequences.apply_swaps", None),
    ),
    "audit": (
        ("eat", "build_schedule", "eat.build_schedule", _observe_schedule),
        ("validate", "validate_schedule", "validate.validate_schedule",
         _observe_validate),
        ("io", "write_schedule_csv", "io.write_schedule_csv", _observe_csv),
        ("gantt", "render_gantt_svg", "gantt.render_gantt_svg", _observe_svg),
    ),
}


def set_up(wl: Workload, seed: int):
    """Import uavsched afresh and generate the workload's inputs."""
    for name in [m for m in sys.modules
                 if m == "uavsched" or m.startswith("uavsched.")]:
        del sys.modules[name]
    importlib.import_module("uavsched")
    mods = SimpleNamespace(**{m: importlib.import_module("uavsched." + m)
                              for m in MODULES})
    specs = [mods.datagen.GenSpec(n_tasks=wl.n_tasks,
                                  seed=wl.instance_seed(seed, j),
                                  **dict(wl.spec))
             for j in range(wl.panel)]
    instances = [mods.datagen.generate_instance(s) for s in specs]
    sequences = []
    for j, inst in enumerate(instances):
        rng = np.random.default_rng([seed, j])
        ids = [t.id for t in inst.tasks]
        for _ in range(wl.sequences):
            shuffled = [ids[k] for k in rng.permutation(len(ids))]
            sequences.append((j, mods.sequences.repair(shuffled, inst)))
    return SimpleNamespace(mods=mods, specs=specs, instances=instances,
                           sequences=sequences)


def op_input(wl: Workload, st, i: int):
    """(instance index, rng_seed or sequence) of op i."""
    if wl.kind == "search":
        return i % wl.panel, i % RNG_SEEDS
    return st.sequences[i % len(st.sequences)]


def run_op(wl: Workload, st, i: int, csv_path):
    """Op i: returns (reported makespan, schedule, violations or None)."""
    mods = st.mods
    j, arg = op_input(wl, st, i)
    inst = st.instances[j]
    if wl.kind == "search":
        cfg = mods.pso.PsoConfig(rng_seed=arg, max_iterations=wl.iterations,
                                 convergence_window=wl.iterations)
        report = mods.pso.run_pso(inst, cfg)
        return report.best_makespan, report.best_schedule, None
    schedule = mods.eat.build_schedule(inst, arg)
    violations = mods.validate.validate_schedule(schedule)
    mods.io.write_schedule_csv(schedule, csv_path)
    mods.gantt.render_gantt_svg(schedule)
    return schedule.makespan(), schedule, violations


def timed_op(wl, st, i, csv_path, tracer):
    """Run op i, traced when a tracer is given; returns (seconds, result)."""
    if tracer is None:
        t0 = time.perf_counter()
        result = run_op(wl, st, i, csv_path)
        return time.perf_counter() - t0, result
    tracer.op = i
    tracer.keep_spans = i < KEEP_SPAN_OPS
    tracer.install()
    try:
        with tracer.span("bench.op"):
            t0 = time.perf_counter()
            result = run_op(wl, st, i, csv_path)
            elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        tracer.keep_spans = False
    return elapsed, result


def gate(result, validate) -> list[str]:
    """Correctness of one op: a clean schedule whose makespan matches."""
    makespan, schedule, violations = result
    if violations is None:
        violations = validate(schedule)
    problems = [str(v) for v in violations]
    if makespan != schedule.makespan():
        problems.append(f"reported makespan {makespan} != schedule "
                        f"makespan {schedule.makespan()}")
    return problems


def run_loop(wl: Workload, st, seconds: float, tracer, out_dir,
             clock: HostClock):
    """Closed loop until `seconds` have passed and the prefix is done.
    Reference passes run between ops, CAL_SHARE of the op time in all."""
    validate = st.mods.validate.validate_schedule   # never traced
    loop = SimpleNamespace(attempted=0, failed=0, problems=[], snapshot=None,
                           plain={}, traced={}, makespans={}, traced_makespans={})
    deadline = time.perf_counter() + seconds
    i = 0
    op_s = cal_s = 0.0
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        csv_path = Path(scratch) / "schedule.csv"
        while i < wl.prefix or time.perf_counter() < deadline:
            while cal_s <= CAL_SHARE * op_s:
                cal_s += clock.calibrate()
            # a traced run alternates which of the pair goes first
            order = ((None,) if tracer is None
                     else (None, tracer) if i % 2 == 0 else (tracer, None))
            for t in order:
                loop.attempted += 1
                try:
                    elapsed, result = timed_op(wl, st, i, csv_path, t)
                    op_s += elapsed
                    problems = gate(result, validate)
                except Exception:
                    problems = [traceback.format_exc()]
                if problems:
                    loop.failed += 1
                    loop.problems.append(f"op {i}: " + "; ".join(problems))
                    continue
                if t is None:
                    loop.plain[i] = elapsed
                    loop.makespans[i] = result[0]
                else:
                    loop.traced[i] = elapsed
                    loop.traced_makespans[i] = result[0]
            if tracer is not None and i == wl.prefix - 1:
                loop.snapshot = dict(tracer.counts)
            i += 1
    for i, makespan in loop.traced_makespans.items():
        if loop.makespans.get(i, makespan) != makespan:
            loop.failed += 1
            loop.problems.append(f"op {i}: tracing changed the makespan")
    return loop


def verify(wl: Workload, st, loop) -> dict:
    """Deterministic outcomes of the prefix, checked against the
    constructor-independent fitness path where one exists."""
    pso = st.mods.pso
    prefix = [loop.makespans[i] for i in range(wl.prefix) if i in loop.makespans]
    det = {"makespan_mean": statistics.fmean(prefix) if prefix else 0.0}
    if wl.kind == "search":
        rule_best = {}
        gains = []
        for i in range(wl.prefix):
            j, _ = op_input(wl, st, i)
            if j not in rule_best:
                inst = st.instances[j]
                rule_best[j] = min(pso.fitness(seq, inst) for seq in
                                   pso.priority_orderings(inst).values())
            if i in loop.makespans:
                gains.append(100.0 * (rule_best[j] - loop.makespans[i])
                             / rule_best[j])
        det["gain_over_rules_pct"] = statistics.fmean(gains) if gains else 0.0
    else:
        expected = {}
        for i, makespan in loop.makespans.items():
            k = i % len(st.sequences)
            if k not in expected:
                j, seq = st.sequences[k]
                expected[k] = pso.fitness(seq, st.instances[j])
            if makespan != expected[k]:
                loop.failed += 1
                loop.problems.append(f"op {i}: build_schedule makespan "
                                     f"{makespan} != fitness {expected[k]}")
    return det


def percentile_tail(times: list[float]):
    """Highest percentile with at least ten ops beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(wl: Workload, swarm_size: int, loop, setup_s: float,
               det: dict, factor: float) -> dict:
    """Times are reference times: wall times scaled by the run's host
    speed factor (see calibrate.py)."""
    times = [t * factor for t in loop.plain.values()]
    scored = swarm_size * (wl.iterations + 1) if wl.kind == "search" else 1
    m = {"setup_s": (setup_s, "s")}
    if times:
        # both from the median op: a mean over a run follows the host's
        # slow spells
        p50 = statistics.median(times)
        m["op_ms_p50"] = (p50 * 1000.0, "ms")
        m["schedules_per_s"] = (scored / p50, "1/s")
    m["makespan_mean"] = (det["makespan_mean"], "s")
    m["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def per_layer(wl: Workload, tracer, loop, probe, det: dict) -> dict:
    """name -> (value, unit, span names it needs)."""
    stats, ops = tracer.stats, max(len(loop.traced), 1)
    c = defaultdict(float, loop.snapshot or {})   # counts over the prefix

    def ratio(a, b):
        return a / b if b else 0.0

    def total(name):
        return stats[name].total if name in stats else 0.0

    def ms_p50(name, source=stats):
        d = source[name].durations if name in source else ()
        return statistics.median(d) * 1000.0 if d else 0.0

    def per_call(key, name):
        return ratio(c[key], c[name + ".calls"])

    build, fit, vel = "eat.build_schedule", "pso.fitness", "pso.update_velocity"
    rep, swaps = "sequences.repair", "sequences.apply_swaps"
    prio = "sequences.priority_orderings"
    val, csv = "validate.validate_schedule", "io.write_schedule_csv"
    svg, gen = "gantt.render_gantt_svg", "datagen.generate_instance"
    rebuild = "model.problem_instance"
    search = [name for _, _, name, _ in TRACE_TARGETS["search"]]
    op_total = total("bench.op")
    layer_self = sum(v.self for k, v in stats.items()
                     if k not in ("bench.op", "trace.observe"))
    pairs = [loop.traced[i] / loop.plain[i] for i in loop.traced
             if i in loop.plain]
    memo_hits = 1.0 - per_call(fit + ">" + build, fit) if c[fit + ".calls"] else 0.0
    run_self = stats["pso.run_pso"].self if "pso.run_pso" in stats else 0.0
    overhead = 100.0 * (statistics.median(pairs) - 1.0) if pairs else 0.0
    return {
        "eat.build_schedule.calls": (c[build + ".calls"] / wl.prefix, "count", [build]),
        "eat.build_schedule.ms_p50": (ms_p50(build), "ms", [build]),
        "eat.build_schedule.share": (100.0 * ratio(total(build), op_total), "%", [build]),
        "eat.recharges_per_schedule": (ratio(c["recharges"], c["schedules"]), "count", [build]),
        "eat.hover_s_per_schedule": (ratio(c["hover_s"], c["schedules"]), "s", [build]),
        "pso.fitness.calls": (c[fit + ".calls"] / wl.prefix, "count", [fit]),
        "pso.memo_hit_ratio": (memo_hits, "ratio", [fit, build]),
        "pso.update_velocity.total_s": (total(vel) / ops, "s", [vel]),
        "pso.velocity_len_mean": (per_call("velocity_len", vel), "count", [vel]),
        "pso.self_s": (run_self / ops, "s", search),
        "sequences.repair.total_s": (total(rep) / ops, "s", [rep]),
        "sequences.repair.changed_ratio": (per_call("repairs_changed", rep), "ratio", [rep]),
        "sequences.apply_swaps.total_s": (total(swaps) / ops, "s", [swaps]),
        "sequences.priority_orderings_ms": (ms_p50(prio), "ms", [prio]),
        "validate.validate_schedule.ms_p50": (ms_p50(val), "ms", [val]),
        "validate.violations": (c["violations"], "count", [val]),
        "io.write_schedule_csv.ms_p50": (ms_p50(csv), "ms", [csv]),
        "io.bytes": (per_call("csv_bytes", csv), "bytes", [csv]),
        "gantt.render_gantt_svg.ms_p50": (ms_p50(svg), "ms", [svg]),
        "gantt.svg_bytes": (per_call("svg_bytes", svg), "bytes", [svg]),
        "datagen.generate_instance_ms": (ms_p50(gen, probe.stats), "ms", [gen]),
        "model.problem_instance_ms": (ms_p50(rebuild, probe.stats), "ms", [rebuild]),
        "gain_over_rules_pct": (det.get("gain_over_rules_pct", 0.0), "%", []),
        "trace.overhead_pct": (overhead, "%", []),
        "trace.accounted_pct": (100.0 * ratio(layer_self, op_total), "%", []),
    }


def probe_setup(st) -> Tracer:
    """Time instance generation and re-validation, the set-up layers."""
    mods, inst = st.mods, st.instances[0]
    probe = Tracer()
    probe.add(mods.datagen, "generate_instance", "datagen.generate_instance")
    probe.add(mods.model, "ProblemInstance", "model.problem_instance")
    probe.install()
    try:
        for _ in range(PROBES):
            if "datagen.generate_instance" not in probe.missing:
                mods.datagen.generate_instance(st.specs[0])
            if "model.problem_instance" not in probe.missing:
                mods.model.ProblemInstance(
                    trajectory_map=inst.trajectory_map, stations=inst.stations,
                    tasks=inst.tasks, uavs=inst.uavs, name=inst.name)
    finally:
        probe.uninstall()
    return probe


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside
    a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(wl: Workload, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "workload": wl.name, "seed": seed, "commit": git_commit()}


def repeat_check(wl: Workload, seed: int, det: dict, expected_path,
                 out_dir) -> list[str]:
    """Deterministic values must repeat exactly: against the committed
    expected file and against earlier runs of this seed in this checkout."""
    sources = []
    if expected_path is not None and Path(expected_path).is_file():
        expected = json.loads(Path(expected_path).read_text())
        sources.append(("expected.json",
                        expected.get(wl.name, {}).get(str(seed), {})))
    digest = hashlib.sha1(repr(wl).encode()).hexdigest()[:10]
    record = Path(out_dir) / f"{wl.name}-s{seed}-{digest}.json"
    earlier = json.loads(record.read_text()) if record.is_file() else {}
    sources.append(("an earlier run", earlier))
    problems = [f"{k} = {v!r} but {label} has {ref[k]!r}"
                for label, ref in sources for k, v in det.items()
                if k in ref and ref[k] != v]
    record.write_text(json.dumps({**earlier, **det}, indent=1, sort_keys=True))
    return problems


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be non-negative")
    return args


def main(argv=None, workloads=WORKLOADS, out_dir=OUT_DIR,
         expected_path=EXPECTED) -> dict:
    args = parse_args(argv, workloads)
    if not (SRC / "uavsched" / "__init__.py").is_file():
        raise SystemExit(f"no uavsched sources under {SRC}; run from a "
                         "checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wl = workloads[args.workload]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    setup_clock, clock = HostClock(), HostClock()
    for _ in range(WARMUP_PASSES):
        reference_pass()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PASSES):
            setup_clock.calibrate()
        gc.collect()   # garbage of the previous set-up is not set-up time
        t0 = time.perf_counter()
        st = set_up(wl, args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_wall_s = statistics.median(setup_times)
    setup_s = setup_wall_s * setup_clock.factor()

    tracer = probe = None
    if args.trace:
        probe = probe_setup(st)
        tracer = Tracer()
        for module, attr, name, observer in TRACE_TARGETS[wl.kind]:
            tracer.add(getattr(st.mods, module), attr, name, observer)
    loop = run_loop(wl, st, args.seconds, tracer, out_dir, clock)
    det = verify(wl, st, loop)

    metrics = end_to_end(wl, st.mods.pso.PsoConfig().swarm_size, loop,
                         setup_s, det, clock.factor())
    tail = percentile_tail([t * clock.factor() for t in loop.plain.values()])
    missing = []
    if tracer is not None:
        layers = per_layer(wl, tracer, loop, probe, det)
        gone = tracer.missing | probe.missing
        missing = sorted(k for k, (_, _, needs) in layers.items()
                         if gone.intersection(needs))
        layer_metrics = {k: (v, unit) for k, (v, unit, _) in layers.items()
                         if k not in missing}
        for key in ("pso.fitness.calls", "eat.build_schedule.calls",
                    "eat.recharges_per_schedule", "eat.hover_s_per_schedule"):
            if key in layer_metrics:
                det[key] = layer_metrics[key][0]
        tracer.write_spans(out_dir / f"{wl.name}-s{args.seed}-spans.jsonl")
    loop.problems += repeat_check(wl, args.seed, det, expected_path, out_dir)
    correct = loop.failed == 0 and not loop.problems

    facts = machine_facts(wl, args.seed)
    print("machine: " + json.dumps(facts, sort_keys=True))
    for problem in loop.problems[:SHOWN_PROBLEMS]:
        print("problem: " + problem.rstrip(), file=sys.stderr)
    shown = dict(metrics)
    if loop.plain:
        shown["op_wall_ms_p50"] = (
            statistics.median(loop.plain.values()) * 1000.0, "ms")
    shown["setup_wall_s"] = (setup_wall_s, "s")
    shown["host_speed"] = (clock.factor(), "ratio")
    shown["error_rate"] = (loop.failed / max(loop.attempted, 1), "ratio")
    tail_of = None
    if tail is not None:
        value, pct, samples = tail
        shown["op_ms_tail"] = (value * 1000.0, "ms")
        tail_of = {"percentile": pct, "samples": samples}
        print(f"op_ms_tail is p{pct:.4g} of {samples} ops")
    if tracer is not None:
        shown.update(layer_metrics)
        for name in missing:
            print(f"per-layer metric {name} is missing: a traced function "
                  "is gone", file=sys.stderr)
    for name, (value, unit) in shown.items():
        print(f"{name:<36} {value:>16.6f} {unit}")

    def as_json(ms):
        return {k: {"value": v, "unit": u} for k, (v, u) in ms.items()}

    result = {"correct": correct, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": as_json(layer_metrics if tracer is not None
                                 else metrics)}
    record = {**result, "machine": facts, "trace": args.trace,
              "all_metrics": as_json(shown), "op_ms_tail_of": tail_of,
              "missing": missing, "deterministic": det,
              "problems": loop.problems}
    (out_dir / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return record


if __name__ == "__main__":
    main()
