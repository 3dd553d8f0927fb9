import json
import os
import sys
import tempfile
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched.eat import build_schedule
from uavsched.gantt import render_gantt_svg
from uavsched.io import (
    SCHEDULE_CSV_FIELDS,
    _Cells,
    _KIND_TEXT,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    read_schedule_csv,
    read_task_csv,
    save_instance,
    write_history_csv,
    write_report_json,
    write_schedule_csv,
    write_task_csv,
    write_text_atomic,
)
from uavsched.model import (
    InstanceError,
    Position,
    PositionKind,
    ProblemInstance,
    RechargeStation,
    Task,
    TaskType,
    TrajectoryMap,
    Uav,
)
from uavsched.pso import PsoConfig, run_pso
from uavsched.validate import validate_schedule

from conftest import AWKWARD_TEXT, FULL_COMPLETION, drawn_schedules


class TestInstanceJson:
    def test_dict_round_trip(self, lab):
        again = instance_from_dict(instance_to_dict(lab))
        assert again.tasks == lab.tasks
        assert again.uavs == lab.uavs
        assert again.stations == lab.stations
        assert again.trajectory_map.positions == lab.trajectory_map.positions
        assert again.trajectory_map.seconds == lab.trajectory_map.seconds
        assert again.name == lab.name

    def test_file_round_trip(self, lab, tmp_path):
        p = tmp_path / "inst.json"
        save_instance(lab, p)
        assert load_instance(p).tasks == lab.tasks

    def test_canonical_bytes(self, lab, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(lab, a)
        save_instance(lab, b)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == sorted(doc)

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json at all {")
        with pytest.raises(InstanceError):
            load_instance(p)

    def test_not_an_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2, 3]\n")
        with pytest.raises(InstanceError):
            load_instance(p)

    def test_missing_key(self, lab, tmp_path):
        doc = instance_to_dict(lab)
        del doc["tasks"]
        with pytest.raises(InstanceError):
            instance_from_dict(doc)

    @pytest.mark.parametrize("where, what", [
        (("positions", 0, "id"), "position id"),
        (("stations", 0, "pos"), "station pos"),
        (("tasks", 0, "start"), "task start"),
        (("tasks", 0, "end"), "task end"),
        (("uavs", 0, "id"), "uav id"),
        (("uavs", 0, "initial_pos"), "uav initial_pos"),
        (("name",), "instance name"),
    ])
    def test_lone_surrogate_is_refused(self, lab, tmp_path, where, what):
        # json.loads reads the escape "\ud800" as a lone surrogate, which
        # no artifact could encode as UTF-8
        doc = instance_to_dict(lab)
        *path, last = where
        node = doc
        for key in path:
            node = node[key]
        node[last] = "U\ud800"
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InstanceError, match=f"{what} .* not valid"):
            load_instance(p)


class TestTaskCsv:
    def test_round_trip(self, lab, tmp_path):
        p = tmp_path / "tasks.csv"
        write_task_csv(lab.tasks, p)
        assert read_task_csv(p) == lab.tasks

    def test_header_shape(self, lab, tmp_path):
        p = tmp_path / "tasks.csv"
        write_task_csv(lab.tasks, p)
        header, first = p.read_text().splitlines()[:2]
        assert header == "TaskID,Start,End,ProcTime,Precedence"
        assert first == "1,e,f,243,-"

    def test_predecessor_list_separator(self, lab, tmp_path):
        p = tmp_path / "tasks.csv"
        write_task_csv(lab.tasks, p)
        row8 = [r for r in p.read_text().splitlines() if r.startswith("8,")]
        assert row8 == ["8,b,c,304,4;5"]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("TaskID,Start,End\n1,a,a\n")
        with pytest.raises(InstanceError):
            read_task_csv(p)

    def test_bad_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("TaskID,Start,End,ProcTime,Precedence\n1,a,a,soon,-\n")
        with pytest.raises(InstanceError):
            read_task_csv(p)


class TestScheduleCsv:
    def test_round_trip_preserves_timeline(self, lab, tmp_path):
        sched = build_schedule(lab, FULL_COMPLETION)
        p = tmp_path / "sched.csv"
        write_schedule_csv(sched, p)
        again = read_schedule_csv(p, lab)
        assert again.actions == sched.actions
        assert again.makespan() == sched.makespan()
        assert validate_schedule(again) == []

    def test_rows_cover_every_action(self, lab, tmp_path):
        sched = build_schedule(lab, FULL_COMPLETION)
        p = tmp_path / "sched.csv"
        write_schedule_csv(sched, p)
        rows = p.read_text().splitlines()[1:]
        assert len(rows) == sum(len(a) for a in sched.actions.values())

    def test_unknown_kind_rejected(self, lab, tmp_path):
        p = tmp_path / "sched.csv"
        p.write_text("uav,action_kind,start,end,from,to,task_id\n"
                     "UAV1,teleport,0,10,a,b,\n")
        with pytest.raises(InstanceError):
            read_schedule_csv(p, lab)

    @pytest.mark.parametrize("start, end, task_id", [
        ("1_0", "20", ""),
        ("١٠", "20", ""),
        ("0", "2_0", ""),
        ("0", "20", "1_0"),
    ], ids=["underscore-start", "arabic-indic-start", "underscore-end",
            "underscore-task"])
    def test_non_ascii_integer_cell_rejected(self, lab, tmp_path, start, end,
                                              task_id):
        p = tmp_path / "sched.csv"
        p.write_text("uav,action_kind,start,end,from,to,task_id\n"
                     f"UAV1,flight,{start},{end},a,b,{task_id}\n",
                     encoding="utf-8")
        with pytest.raises(InstanceError, match="bad schedule row"):
            read_schedule_csv(p, lab)


def awkward_instance(names, uav_ids) -> ProblemInstance:
    """Three work positions and two stations named by names[0:5], two
    UAVs, and six tasks (inspections and hauls, no precedence) long
    enough that every sequence needs a recharge; of the 720 sequences,
    560 also wait on the ground and 118 hover."""
    work, stations = names[:3], names[3:5]
    positions = ([Position(p) for p in work]
                 + [Position(p, PositionKind.RECHARGE) for p in stations])
    seconds = [[0 if i == j else 10 + 7 * abs(i - j) for j in range(5)]
               for i in range(5)]
    tasks = tuple(
        Task(k + 1, TaskType.MATERIAL_HANDLING, work[k % 3],
             work[(k + 1) % 3], 150 + 10 * k) if k % 2 else
        Task(k + 1, TaskType.COMPOUND_INSPECTION, work[k % 3], work[k % 3],
             150 + 10 * k)
        for k in range(6))
    return ProblemInstance(
        trajectory_map=TrajectoryMap(positions, seconds),
        stations=tuple(RechargeStation(p, 1) for p in stations),
        tasks=tasks,
        uavs=(Uav(uav_ids[0], stations[0], 500, 300),
              Uav(uav_ids[1], stations[1], 500, 300)))


class TestAwkwardIds:
    """Ids holding a comma, a double quote, a line break or an XML
    special survive the CSV writers and the Gantt chart."""

    @settings(max_examples=150, deadline=None)
    @given(names=st.lists(AWKWARD_TEXT, min_size=5, max_size=5, unique=True),
           uav_ids=st.lists(AWKWARD_TEXT, min_size=2, max_size=2, unique=True),
           sequence=st.permutations(range(1, 7)))
    def test_schedule_round_trip(self, names, uav_ids, sequence):
        inst = awkward_instance(names, uav_ids)
        sched = build_schedule(inst, sequence)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "sched.csv"
            write_schedule_csv(sched, p)
            again = read_schedule_csv(p, inst)
        assert again.actions == sched.actions
        assert validate_schedule(again) == []
        svg = render_gantt_svg(sched, title=" ".join(names + uav_ids))
        assert minidom.parseString(svg).documentElement.tagName == "svg"

    @settings(max_examples=100, deadline=None)
    @given(names=st.lists(AWKWARD_TEXT.filter(lambda s: s == s.strip()),
                          min_size=5, max_size=5, unique=True))
    def test_task_round_trip(self, names):
        # the task CSV reader strips its position cells, so the ids here
        # have no surrounding whitespace
        inst = awkward_instance(names, ["U1", "U2"])
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "tasks.csv"
            write_task_csv(inst.tasks, p)
            assert read_task_csv(p) == inst.tasks

    def test_ordinary_ids_unquoted(self, lab, tmp_path):
        p = tmp_path / "sched.csv"
        write_schedule_csv(build_schedule(lab, FULL_COMPLETION), p)
        assert '"' not in p.read_text()

    def test_comma_id_quoted(self, tmp_path):
        inst = awkward_instance(["a,1", "b", 'say "c"', "R1", "R2"],
                                ["U,1", "U2"])
        p = tmp_path / "sched.csv"
        write_schedule_csv(build_schedule(inst, [1, 2, 3, 4, 5, 6]), p)
        text = p.read_text()
        assert '\n"U,1",flight,0,' in text
        assert ',"a,1",' in text and ',"say ""c""",' in text


def frozen_schedule_csv(schedule) -> str:
    """write_schedule_csv's text as it was before each lane's UAV cell
    was formatted once; kept as it was."""
    cells = _Cells()
    rows = [f"{cells[u]},{_KIND_TEXT[a.kind]},{a.start},{a.end},"
            f"{cells[a.from_pos]},{cells[a.to_pos]},"
            f"{'' if a.task_id is None else a.task_id}"
            for u in schedule.uav_order() for a in schedule.actions[u]]
    return "\n".join([",".join(SCHEDULE_CSV_FIELDS), *rows, ""])


class TestScheduleCsvBytes:
    @settings(max_examples=300, deadline=None)
    @given(drawn_schedules())
    def test_same_bytes_as_frozen_writer(self, schedule):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "sched.csv"
            write_schedule_csv(schedule, p)
            assert p.read_bytes() \
                == frozen_schedule_csv(schedule).encode("utf-8")

    def test_bundled_schedule(self, lab, tmp_path):
        schedule = build_schedule(lab, FULL_COMPLETION)
        p = tmp_path / "sched.csv"
        write_schedule_csv(schedule, p)
        assert p.read_bytes() == frozen_schedule_csv(schedule).encode("utf-8")


class TestHistoryCsv:
    def test_format(self, tmp_path):
        p = tmp_path / "history.csv"
        write_history_csv([(0, 5000, 5421.5), (1, 4800, 5100.25)], p)
        assert p.read_text() == ("iteration,best,mean\n"
                                 "0,5000,5421.500000\n"
                                 "1,4800,5100.250000\n")


class TestReportJson:
    def test_deterministic_and_clockless(self, lab, tmp_path):
        cfg = PsoConfig(max_iterations=5, rng_seed=9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(run_pso(lab, cfg), a)
        write_report_json(run_pso(lab, cfg), b)
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert "wall_clock_ms" not in doc
        assert doc["config"]["rng_seed"] == 9
        assert doc["history"][0][0] == 0
        assert sorted(doc["best_sequence"]) == list(range(1, 13))


class TestWriteTextAtomic:
    def test_writes_exactly_the_utf8_bytes(self, tmp_path):
        text = "a,b\r\nc\n\u00e9\u4e2d\U0001f681\n"
        p = tmp_path / "out.csv"
        write_text_atomic(p, text)
        assert p.read_bytes() == text.encode("utf-8")

    def test_creates_missing_parents(self, tmp_path):
        p = tmp_path / "a" / "b" / "out.txt"
        write_text_atomic(p, "x\n")
        assert p.read_bytes() == b"x\n"
        assert list(p.parent.iterdir()) == [p]

    def test_replaces_the_target(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_bytes(b"old contents, longer than the new\n")
        write_text_atomic(str(p), "new\n")
        assert p.read_bytes() == b"new\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_unencodable_text_leaves_the_target(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_bytes(b"old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(p, "U\ud800\n")
        assert p.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts the entries of /proc/self/fd")
    def test_no_descriptor_leaks(self, tmp_path, monkeypatch):
        # a raw descriptor raises no ResourceWarning when it leaks, so
        # count the process's open descriptors around each write
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def refused(*args):
            raise OSError(28, "No space left on device")

        p = tmp_path / "out.txt"
        before = open_fds()
        write_text_atomic(p, "ok\n")
        assert open_fds() == before
        assert p.read_bytes() == b"ok\n"
        for name in ("write", "replace"):
            with monkeypatch.context() as patch:
                patch.setattr(os, name, refused)
                with pytest.raises(OSError, match="No space"):
                    write_text_atomic(p, "lost\n")
            assert open_fds() == before
            assert p.read_bytes() == b"ok\n"

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        real_write, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(real_write(fd, bytes(data[:7])))
            return sizes[-1]

        text = "uav,action_kind\n" + "\u00e9\u4e2d\U0001f681," * 40 + "\n"
        p = tmp_path / "out.csv"
        monkeypatch.setattr(os, "write", short_write)
        write_text_atomic(p, text)
        monkeypatch.undo()
        assert p.read_bytes() == text.encode("utf-8")
        assert len(sizes) > 1 and set(sizes[:-1]) == {7}
