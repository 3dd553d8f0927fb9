"""File formats: instance JSON, Table-style task CSV, schedule CSV.

All writers emit canonical bytes (sorted keys, fixed separators, LF
endings) so identical inputs produce identical files.
"""

from __future__ import annotations

import csv
import json
import os
import re
from io import StringIO
from pathlib import Path

from .model import (
    DEFAULT_BATTERY_CAPACITY,
    DEFAULT_RECHARGE_DURATION,
    Action,
    ActionKind,
    InstanceError,
    Position,
    PositionKind,
    ProblemInstance,
    RechargeStation,
    Schedule,
    Task,
    TaskType,
    TrajectoryMap,
    Uav,
    exact_int,
    infer_task_type,
)

TASK_CSV_FIELDS = ("TaskID", "Start", "End", "ProcTime", "Precedence")
SCHEDULE_CSV_FIELDS = ("uav", "action_kind", "start", "end", "from", "to",
                       "task_id")
_KIND_TEXT = {k: k.value for k in ActionKind}


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "name": instance.name,
        "positions": [{"id": p.id, "kind": p.kind.value}
                      for p in instance.trajectory_map.positions],
        "flight_time": [list(row) for row in instance.trajectory_map.seconds],
        "stations": [{"pos": s.pos, "slots": s.slots}
                     for s in instance.stations],
        "tasks": [{
            "id": t.id,
            "type": t.type.value,
            "start": t.start_pos,
            "end": t.end_pos,
            "proc_time": t.proc_time,
            "predecessors": list(t.predecessors),
        } for t in instance.tasks],
        "uavs": [{
            "id": u.id,
            "initial_pos": u.initial_pos,
            "battery_capacity": u.battery_capacity,
            "recharge_duration": u.recharge_duration,
        } for u in instance.uavs],
    }


def _name(value, what: str) -> str:
    """value if it is a string; ids and position names must be."""
    if not isinstance(value, str):
        raise InstanceError(
            f"malformed instance document: {what} must be a string, "
            f"not {value!r}")
    return value


def _integer(value, what: str) -> int:
    """value as an integer field (ids, times, counts) by `exact_int`:
    int() would silently truncate a boolean or a fraction, or read a
    string, so those are rejected."""
    out = exact_int(value)
    if out is None:
        raise InstanceError(
            f"malformed instance document: {what} must be an integer, "
            f"not {value!r}")
    return out


_INTEGER_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_integer(text: str) -> int:
    """A text cell or token as an int: ASCII digits with an optional sign
    and surrounding whitespace. int() alone would also read digit-group
    underscores ("1_2" as 12) and non-ASCII digits."""
    if not _INTEGER_TEXT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def instance_from_dict(doc: dict) -> ProblemInstance:
    try:
        positions = [Position(_name(p["id"], "position id"),
                              PositionKind(p.get("kind", "work")))
                     for p in doc["positions"]]
        fm = TrajectoryMap(positions,
                           [[_integer(v, "flight time") for v in row]
                            for row in doc["flight_time"]])
        stations = tuple(RechargeStation(_name(s["pos"], "station pos"),
                                         _integer(s.get("slots", 1), "slots"))
                         for s in doc["stations"])
        tasks = tuple(Task(
            id=_integer(t["id"], "task id"),
            type=TaskType(t["type"]),
            start_pos=_name(t["start"], "task start"),
            end_pos=_name(t["end"], "task end"),
            proc_time=_integer(t["proc_time"], "proc_time"),
            predecessors=tuple(_integer(p, "predecessor id")
                               for p in t.get("predecessors", ())),
        ) for t in doc["tasks"])
        uavs = tuple(Uav(
            id=_name(u["id"], "uav id"),
            initial_pos=_name(u["initial_pos"], "uav initial_pos"),
            battery_capacity=_integer(u.get("battery_capacity",
                                            DEFAULT_BATTERY_CAPACITY),
                                      "battery_capacity"),
            recharge_duration=_integer(u.get("recharge_duration",
                                             DEFAULT_RECHARGE_DURATION),
                                       "recharge_duration"),
        ) for u in doc["uavs"])
        # Inside the try: validation may still meet a wrongly typed
        # field and raise TypeError or ValueError.
        return ProblemInstance(trajectory_map=fm, stations=stations,
                               tasks=tasks, uavs=uavs,
                               name=doc.get("name", "instance"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a flight time beyond int64
        raise InstanceError(f"malformed instance document: {exc}") from exc


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_text_atomic(path, text: str):
    """Write via a sibling temp file and rename, so partial files never
    land under the final name. Missing parent directories are created."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
    except FileNotFoundError:   # only then pay for creating the parents
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def save_instance(instance: ProblemInstance, path):
    write_text_atomic(path, _canonical_json(instance_to_dict(instance)))


def read_text(path) -> str:
    """A UTF-8 file's text, newlines untranslated; a missing, unreadable
    or undecodable file raises InstanceError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"{path}: cannot read: {exc}") from exc


def load_instance(path) -> ProblemInstance:
    text = read_text(path)
    try:
        doc = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer too long
        raise InstanceError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError(f"{path}: not valid JSON: nested too deeply") \
            from exc
    if not isinstance(doc, dict):
        raise InstanceError(f"{path}: expected a JSON object")
    return instance_from_dict(doc)


def read_task_csv(path) -> tuple[Task, ...]:
    """Import tasks from the tabular format: TaskID, Start, End,
    ProcTime, Precedence (semicolon-separated ids, '-' for none).

    The task type follows from the row by `infer_task_type`.
    """
    tasks = []
    reader = csv.DictReader(StringIO(read_text(path), newline=""))
    missing = set(TASK_CSV_FIELDS) - set(reader.fieldnames or ())
    if missing:
        raise InstanceError(
            f"{path}: task CSV is missing columns {sorted(missing)}")
    for row in reader:
        try:
            tid = parse_integer(row["TaskID"])
            start = row["Start"].strip()
            end = row["End"].strip()
            proc = parse_integer(row["ProcTime"])
            raw = (row["Precedence"] or "").strip()
            preds = (tuple(parse_integer(p) for p in raw.split(";")
                           if p.strip())
                     if raw and raw != "-" else ())
        except (AttributeError, TypeError, ValueError) as exc:
            # A short row leaves its last cells None (AttributeError).
            raise InstanceError(f"{path}: bad task row {row}: {exc}") from exc
        tasks.append(Task(tid, infer_task_type(start, end, proc),
                          start, end, proc, preds))
    return tuple(tasks)


class _Cells(dict):
    """id -> its CSV cell, computed once: quoted as csv.QUOTE_MINIMAL
    quotes it, only when it holds a comma, a double quote or a newline."""

    def __missing__(self, text):
        cell = str(text)
        if any(c in cell for c in ',"\r\n'):
            cell = '"' + cell.replace('"', '""') + '"'
        self[text] = cell
        return cell


def write_task_csv(tasks, path):
    cells = _Cells()
    lines = [",".join(TASK_CSV_FIELDS)]
    for t in tasks:
        preds = ";".join(str(p) for p in t.predecessors) if t.predecessors else "-"
        lines.append(f"{t.id},{cells[t.start_pos]},{cells[t.end_pos]},"
                     f"{t.proc_time},{preds}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_schedule_csv(schedule: Schedule, path):
    cells = _Cells()
    rows = [f"{cells[u]},{_KIND_TEXT[a.kind]},{a.start},{a.end},"
            f"{cells[a.from_pos]},{cells[a.to_pos]},"
            f"{'' if a.task_id is None else a.task_id}"
            for u in schedule.uav_order() for a in schedule.actions[u]]
    write_text_atomic(path, "\n".join([",".join(SCHEDULE_CSV_FIELDS), *rows, ""]))


def read_schedule_csv(path, instance: ProblemInstance) -> Schedule:
    actions: dict[str, list[Action]] = {u.id: [] for u in instance.uavs}
    station_pos = instance.station_positions()
    reader = csv.DictReader(StringIO(read_text(path), newline=""))
    missing = set(SCHEDULE_CSV_FIELDS) - set(reader.fieldnames or ())
    if missing:
        raise InstanceError(
            f"{path}: schedule CSV is missing columns {sorted(missing)}")
    for row in reader:
        try:
            kind = ActionKind(row["action_kind"])
            task_id = (parse_integer(row["task_id"]) if row["task_id"]
                       else None)
            action = Action(
                kind=kind,
                start=parse_integer(row["start"]),
                end=parse_integer(row["end"]),
                from_pos=row["from"],
                to_pos=row["to"],
                task_id=task_id,
                station=(row["from"]
                         if kind in (ActionKind.RECHARGE,
                                     ActionKind.WAIT_ON_GROUND)
                         and row["from"] in station_pos else None),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(
                f"{path}: bad schedule row {row}: {exc}") from exc
        actions.setdefault(row["uav"], []).append(action)
    for acts in actions.values():
        acts.sort(key=lambda a: (a.start, a.end))
    return Schedule(instance=instance, actions=actions)


def write_history_csv(history, path):
    lines = ["iteration,best,mean"]
    for it, best, mean in history:
        lines.append(f"{it},{best},{mean:.6f}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def report_to_dict(report) -> dict:
    """JSON payload for a search run. Wall-clock time is deliberately
    left out so repeated seeded runs serialize byte-identically."""
    cfg = report.config
    return {
        "config": {
            "c1": cfg.c1,
            "c2": cfg.c2,
            "swarm_size": cfg.swarm_size,
            "max_iterations": cfg.max_iterations,
            "convergence_window": cfg.convergence_window,
            "rng_seed": cfg.rng_seed,
        },
        "best_makespan": report.best_makespan,
        "best_sequence": list(report.best_sequence),
        "iterations_run": report.iterations_run,
        "converged": report.converged,
        "convergence_iteration": report.convergence_iteration,
        "last_improvement": report.last_improvement,
        "history": [[it, best, round(mean, 6)]
                    for it, best, mean in report.history],
    }


def write_report_json(report, path):
    write_text_atomic(path, _canonical_json(report_to_dict(report)))
