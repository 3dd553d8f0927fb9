"""File formats: instance JSON, Table-style task CSV, schedule CSV.

All writers emit canonical bytes (sorted keys, fixed separators) so
identical inputs produce identical files. Every artifact is UTF-8 with
LF endings on every platform: a text is encoded before any temp file
exists and written as bytes, with no newline translation.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
from io import StringIO

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
    """value if it is a string that UTF-8 can encode; ids and position
    names must be, since every artifact is written as UTF-8."""
    if not isinstance(value, str):
        raise InstanceError(
            f"malformed instance document: {what} must be a string, "
            f"not {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, from a \ud800 escape
        raise InstanceError(
            f"malformed instance document: {what} {value!r} is not "
            f"valid Unicode text") from None
    return value


_INTEGER_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_integer(text: str) -> int:
    """A text cell or token as an int: ASCII digits with an optional sign
    and surrounding whitespace. int() alone would also read digit-group
    underscores ("1_2" as 12) and non-ASCII digits."""
    if not _INTEGER_TEXT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_real(text: str) -> float:
    """float(text), refusing digit-group underscores and non-ASCII."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def instance_from_dict(doc: dict) -> ProblemInstance:
    try:
        positions = [Position(_name(p["id"], "position id"),
                              PositionKind(p.get("kind", "work")))
                     for p in doc["positions"]]
        fm = TrajectoryMap(positions, doc["flight_time"])
        stations = tuple(RechargeStation(_name(s["pos"], "station pos"),
                                         s.get("slots", 1))
                         for s in doc["stations"])
        tasks = tuple(Task(
            id=t["id"],
            type=TaskType(t["type"]),
            start_pos=_name(t["start"], "task start"),
            end_pos=_name(t["end"], "task end"),
            proc_time=t["proc_time"],
            predecessors=t.get("predecessors", ()),
        ) for t in doc["tasks"])
        uavs = tuple(Uav(
            id=_name(u["id"], "uav id"),
            initial_pos=_name(u["initial_pos"], "uav initial_pos"),
            battery_capacity=u.get("battery_capacity",
                                   DEFAULT_BATTERY_CAPACITY),
            recharge_duration=u.get("recharge_duration",
                                    DEFAULT_RECHARGE_DURATION),
        ) for u in doc["uavs"])
        # Inside the try: validation may still meet a wrongly typed
        # field and raise TypeError or ValueError.
        return ProblemInstance(
            trajectory_map=fm, stations=stations, tasks=tasks, uavs=uavs,
            name=_name(doc.get("name", "instance"), "instance name"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed instance document: {exc}") from exc


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# O_BINARY (Windows only): no newline translation on os.write
_WRITE_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                | getattr(os, "O_BINARY", 0))


def write_text_atomic(path, text: str):
    """Write text as UTF-8 via a sibling temp file and rename, so partial
    files never land under the final name. Missing parent directories
    are created. The bytes go through a raw file descriptor, with no
    buffered file object, and a short write is resumed."""
    data = text.encode("utf-8")     # an unencodable text leaves no file
    tmp = f"{os.fspath(path)}.tmp"
    try:
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:   # only then pay for creating the parents
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    try:
        done = os.write(fd, data)
        while done < len(data):
            done += os.write(fd, memoryview(data)[done:])
    finally:
        os.close(fd)
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


def write_schedule_csv(schedule: Schedule, path):
    cells = _Cells()
    rows = [",".join(SCHEDULE_CSV_FIELDS)]
    for u in schedule.uav_order():
        uav = cells[u]      # each lane's UAV cell once
        rows += [f"{uav},{_KIND_TEXT[a.kind]},{a.start},{a.end},"
                 f"{cells[a.from_pos]},{cells[a.to_pos]},"
                 f"{'' if a.task_id is None else a.task_id}"
                 for a in schedule.actions[u]]
    rows.append("")
    write_text_atomic(path, "\n".join(rows))


def read_schedule_csv(path, instance: ProblemInstance) -> Schedule:
    actions: dict[str, list[Action]] = {u.id: [] for u in instance.uavs}
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
            action = Action(kind, parse_integer(row["start"]),
                            parse_integer(row["end"]), row["from"], row["to"],
                            task_id)
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
    return {
        "config": dataclasses.asdict(report.config),
        "best_makespan": report.best_makespan,
        "best_sequence": list(report.best_sequence),
        "iterations_run": report.iterations_run,
        "converged": report.converged,
        "last_improvement": report.last_improvement,
        "history": [[it, best, round(mean, 6)]
                    for it, best, mean in report.history],
    }


def write_report_json(report, path):
    write_text_atomic(path, _canonical_json(report_to_dict(report)))
