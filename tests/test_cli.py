import copy
import json
import signal
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched.cli import main
from uavsched.io import TASK_CSV_FIELDS, instance_to_dict, load_instance
from uavsched.sampledata import sample_instance

from conftest import GOLDEN_PREFIX


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1
        assert "usage:" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1

    def test_conflicting_sequence_flags(self, capsys):
        code, _, err = run(capsys, ["schedule", "--sequence", "3,2",
                                    "--rule", "proc-time-desc"])
        assert code == 1
        assert "choose one of" in err

    def test_non_integer_sequence(self, capsys):
        code, _, err = run(capsys, ["schedule", "--sequence", "3,x"])
        assert code == 1
        assert "integers" in err

    def test_unknown_rule(self, capsys):
        code, _, err = run(capsys, ["schedule", "--rule", "coin-flip"])
        assert code == 1
        assert "unknown rule" in err


class TestInvalidInput:
    def test_missing_instance_file(self, capsys):
        code, _, err = run(capsys, ["schedule", "--instance",
                                    "/nope/missing.json"])
        assert code == 2
        assert "not found" in err

    def test_precedence_breaking_prefix(self, capsys):
        code, _, err = run(capsys, ["schedule", "--sequence", "4"])
        assert code == 2
        assert "predecessor" in err


def _short_csv_row(tmp):
    path = tmp / "tasks.csv"
    path.write_text("TaskID,Start,End,ProcTime,Precedence\n1,a\n")
    return ["--instance", str(path)]


def _missing_sequence_file(tmp):
    return ["--sequence-file", str(tmp / "missing.txt")]


def _directory_instance(tmp):
    return ["--instance", str(tmp)]


def _latin1_instance(tmp):
    path = tmp / "instance.json"
    path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    return ["--instance", str(path)]


def _latin1_task_csv(tmp):
    path = tmp / "tasks.csv"
    path.write_bytes("TaskID,Start,End,ProcTime,Precedence\n"
                     "1,a,a,30,\u00e9\n".encode("latin-1"))
    return ["--instance", str(path)]


def _list_as_task_start(tmp):
    doc = instance_to_dict(sample_instance())
    doc["tasks"][0]["start"] = ["a"]
    path = tmp / "instance.json"
    path.write_text(json.dumps(doc))
    return ["--instance", str(path)]


def _mutated_instance(edit):
    def make_args(tmp):
        doc = instance_to_dict(sample_instance())
        edit(doc)
        path = tmp / "instance.json"
        path.write_text(json.dumps(doc))
        return ["--instance", str(path)]
    make_args.__name__ = edit.__name__
    return make_args


def _null_uav_id(doc):
    doc["uavs"][0]["id"] = None


def _int_uav_id(doc):
    doc["uavs"][1]["id"] = 7


def _null_uav_initial_pos(doc):
    doc["uavs"][0]["initial_pos"] = None


def _int_position_id(doc):
    doc["positions"][0]["id"] = 3


def _null_station_pos(doc):
    doc["stations"][0]["pos"] = None


def _null_task_end(doc):
    doc["tasks"][0]["end"] = None


def _fractional_asymmetric_flight_times(doc):
    # symmetric only after int() truncates both entries to 108
    doc["flight_time"][0][1] = 108.9
    doc["flight_time"][1][0] = 108.2


def _ragged_flight_times(doc):
    del doc["flight_time"][1][-1]


RAW = "@raw@"   # stands for a raw JSON token that json.dumps cannot write


def _raw_instance(where, token):
    """The bundled instance with the value at where (a key path) written
    as the raw token."""
    def make_args(tmp):
        doc = instance_to_dict(sample_instance())
        *path, last = where
        node = doc
        for key in path:
            node = node[key]
        node[last] = RAW
        file = tmp / "instance.json"
        file.write_text(json.dumps(doc).replace(f'"{RAW}"', token))
        return ["--instance", str(file)]
    make_args.__name__ = f"{'.'.join(map(str, where))}={token}"
    return make_args


def _deeply_nested(tmp):
    path = tmp / "instance.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return ["--instance", str(path)]


def _overlong_integer(tmp):
    path = tmp / "instance.json"
    path.write_text('{"name": ' + "9" * 5000 + "}")
    return ["--instance", str(path)]


class TestBadInputFiles:
    """Unreadable or malformed input files are input errors (exit 2),
    never internal errors (exit 3)."""

    @pytest.mark.parametrize("make_args", [
        _short_csv_row, _missing_sequence_file, _directory_instance,
        _latin1_instance, _latin1_task_csv, _list_as_task_start,
        *map(_mutated_instance, (_null_uav_id, _int_uav_id,
                                 _null_uav_initial_pos, _int_position_id,
                                 _null_station_pos, _null_task_end)),
        # int() of 1e999 (infinity) raises OverflowError
        _raw_instance(("tasks", 0, "proc_time"), "1e999"),
        _raw_instance(("flight_time", 0, 1), "1e999"),
        _raw_instance(("uavs", 0, "battery_capacity"), "1e999"),
        _raw_instance(("stations", 0, "slots"), "-1e999"),
        _raw_instance(("flight_time", 0, 1), "1e300"),
        # json.loads: RecursionError, and ValueError on 5000 digits
        _deeply_nested, _overlong_integer,
        # ids that int() would truncate to a valid id
        _raw_instance(("tasks", 11, "id"), "12.5"),
        _raw_instance(("tasks", 0, "id"), "true"),
        _raw_instance(("tasks", 3, "predecessors", 0), "1.7"),
        _raw_instance(("tasks", 3, "predecessors", 0), "true"),
        # integer fields that int() would truncate, or read as 0 or 1
        _raw_instance(("tasks", 0, "proc_time"), "30.7"),
        _raw_instance(("stations", 0, "slots"), "true"),
        _raw_instance(("uavs", 0, "battery_capacity"), "1200.5"),
        _raw_instance(("uavs", 0, "recharge_duration"), "true"),
        _mutated_instance(_fractional_asymmetric_flight_times),
        _mutated_instance(_ragged_flight_times),
    ], ids=lambda f: f.__name__)
    def test_exits_2(self, capsys, tmp_path, make_args):
        code, _, err = run(capsys, ["schedule", *make_args(tmp_path)])
        assert code == 2, err
        assert err.startswith("error: ")

    @pytest.mark.parametrize("where, token, message", [
        (("tasks", 11, "id"), "12.5",
         "task id must be an integer, not 12.5"),
        (("tasks", 3, "predecessors", 0), "true",
         "predecessor id must be an integer, not True"),
    ])
    def test_bad_task_id_is_named(self, capsys, tmp_path, where, token,
                                  message):
        code, _, err = run(capsys, ["schedule",
                                    *_raw_instance(where, token)(tmp_path)])
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("where, token, message", [
        (("tasks", 0, "proc_time"), "30.7",
         "proc_time must be an integer, not 30.7"),
        (("stations", 0, "slots"), "true",
         "slots must be an integer, not True"),
        (("flight_time", 1, 0), "108.2",
         "flight time must be an integer, not 108.2"),
        (("flight_time", 1), "5",
         "flight time matrix row 1 is not a sequence: 5"),
    ])
    def test_bad_integer_field_is_named(self, capsys, tmp_path, where,
                                        token, message):
        code, _, err = run(capsys, ["schedule",
                                    *_raw_instance(where, token)(tmp_path)])
        assert code == 2
        assert message in err

    def test_integral_float_id_is_an_id(self, capsys, tmp_path):
        # 2.0 names task 2 exactly; only fractions and booleans are
        # rejected
        code, out, err = run(capsys, ["schedule", *_raw_instance(
            ("tasks", 1, "id"), "2.0")(tmp_path)])
        assert code == 0, err
        assert "makespan:" in out

    def test_non_string_id_is_named(self, capsys, tmp_path):
        args = _mutated_instance(_null_uav_id)(tmp_path)
        code, _, err = run(capsys, ["schedule", *args])
        assert code == 2
        assert "uav id must be a string, not None" in err

    @pytest.mark.parametrize("out_dir", [False, True])
    @pytest.mark.parametrize("where, what", [(("uavs", 0, "id"), "uav id"),
                                             (("name",), "instance name")])
    def test_lone_surrogate_is_named(self, capsys, tmp_path, where, what,
                                     out_dir):
        # json.loads reads the escape as a lone surrogate, which no
        # artifact or printed line could encode as UTF-8
        out = tmp_path / "out"
        args = _raw_instance(where, r'"U\ud800"')(tmp_path)
        if out_dir:
            args += ["--out-dir", str(out)]
        code, _, err = run(capsys, ["schedule", *args])
        assert code == 2, err
        assert f"{what} 'U\\ud800' is not valid Unicode text" in err
        assert not out.exists()


class TestStrictIntegerText:
    """Integers written as text are ASCII digits with an optional sign;
    int() would also read digit-group underscores, and a quoted JSON
    number is a string."""

    def test_underscored_sequence_token_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, ["schedule", "--sequence", "1_2"])
        assert code == 1
        assert "integers" in err

    def test_underscored_task_csv_cell_exits_2(self, capsys, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text(",".join(TASK_CSV_FIELDS) + "\n1,a,a,2_0_0,-\n")
        code, _, err = run(capsys, ["schedule", "--instance", str(path)])
        assert code == 2
        assert "2_0_0" in err

    def test_quoted_json_number_exits_2(self, capsys, tmp_path):
        args = _raw_instance(("tasks", 0, "proc_time"), '"3_0"')(tmp_path)
        code, _, err = run(capsys, ["schedule", *args])
        assert code == 2
        assert "proc_time must be an integer, not '3_0'" in err


class _Expired(BaseException):
    """Raised by the case timer; not an Exception, so main cannot map it
    to an exit code."""


CASE_SECONDS = 2.0
WRONG_TYPES = [None, True, "x", "", [], {}, 0, -1, 1.7]
RAW_NUMBERS = ["1e999", "-1e999", "1e308", "NaN", "-Infinity", "1e-999",
               str(10**9), str(10**30), "9" * 400]
BAD_IDS = ["1.7", "true", "12.5", '"1"', "-0.5"]
# a fresh copy per draw: a later mutation writing into a drawn [] or {}
# must not change the list that every later example draws from
wrong_types = st.sampled_from(WRONG_TYPES).map(copy.deepcopy)


def _nodes(doc):
    """(container, key) of every value in the document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value)


def _list_at(doc, key):
    """doc[key] when it is still a list, else []: an earlier mutation
    may have replaced or deleted it."""
    value = doc.get(key)
    return value if isinstance(value, list) else []


@st.composite
def fuzzed_instances(draw):
    """The bundled instance JSON after one to three mutations: a wrong
    type, a deleted key, an extreme number or a bad task id written as a
    raw token, deep nesting or huge bay counts; then maybe truncated or
    wrapped in brackets."""
    doc = instance_to_dict(sample_instance())
    raw = []

    def token(text):
        raw.append(text)
        return f"@raw{len(raw) - 1}@"

    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["type", "delete", "number", "id", "nest", "slots"]))
        if kind == "id":
            task = draw(st.sampled_from(_list_at(doc, "tasks") or [{}]))
            if isinstance(task, dict):
                preds = task.get("predecessors")
                bad = token(draw(st.sampled_from(BAD_IDS)))
                if isinstance(preds, list) and preds and draw(st.booleans()):
                    preds[0] = bad
                else:
                    task["id"] = bad
            continue
        if kind == "slots":
            for station in _list_at(doc, "stations"):
                if isinstance(station, dict):
                    station["slots"] = token(str(10**9))
            continue
        parent, key = draw(st.sampled_from(list(_nodes(doc))))
        if kind == "type":
            parent[key] = draw(wrong_types)
        elif kind == "delete":
            del parent[key]
        elif kind == "number":
            parent[key] = token(draw(st.sampled_from(RAW_NUMBERS)))
        else:
            depth = draw(st.sampled_from([10, 2000, 100_000]))
            parent[key] = token("[" * depth + "]" * depth)
    text = json.dumps(doc)
    for i, value in enumerate(raw):
        text = text.replace(f'"@raw{i}@"', value)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    elif draw(st.booleans()):
        depth = draw(st.sampled_from([1, 100_000]))
        text = "[" * depth + text + "]" * depth
    return text


def _bounded_main(argv):
    """main(argv) with its output captured, stopped after CASE_SECONDS."""
    def expire(signum, frame):
        raise _Expired(f"{argv} ran longer than {CASE_SECONDS}s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
            return main(argv), err.getvalue()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestFuzzedInstance:
    """No mutation of the bundled instance file makes schedule exit 3
    (internal error) or run away."""

    @settings(max_examples=150, deadline=None)
    @given(text=fuzzed_instances())
    def test_exit_code_is_0_1_or_2(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzzed_instance.json"
        path.write_text(text)
        code, err = _bounded_main(["schedule", "--instance", str(path)])
        assert code in (0, 1, 2), err

    @given(wrong_types)
    def test_drawn_containers_are_fresh(self, value):
        assert not any(value is w for w in WRONG_TYPES
                       if isinstance(w, (list, dict)))


BAD_CELLS = ["", " ", "x", "\x00", '"', '"a', 'a"b', "1.5", "-1", "0",
             " 3 ", "1e999", "NaN", str(10**9), str(10**30), "9" * 5000,
             "1;;2", "-;1", ",", "\n", "\r"]


def _damaged_text(draw, text):
    """text with maybe a NUL or a lone quote inserted, then maybe
    truncated."""
    for junk in ("\x00", '"'):
        if draw(st.booleans()):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + junk + text[at:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


@st.composite
def fuzzed_task_csvs(draw):
    """The bundled tasks as a task CSV after one to three mutations: a
    bad cell (fractional, huge, empty, quoted, NUL), an unknown,
    repeated or self id, or a deleted, repeated, shortened or lengthened
    row; then maybe damaged by `_damaged_text`."""
    rows = [list(TASK_CSV_FIELDS)] + [
        [str(t.id), t.start_pos, t.end_pos, str(t.proc_time),
         ";".join(map(str, t.predecessors)) or "-"]
        for t in sample_instance().tasks]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["cell", "id", "row"]))
        r = draw(st.integers(0, len(rows) - 1))
        row = rows[r]
        if kind == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(BAD_CELLS))
        elif kind == "id" and r and len(row) == len(TASK_CSV_FIELDS):
            other = rows[draw(st.integers(1, len(rows) - 1))]
            # a row shortened to nothing has no id to borrow
            tid = draw(st.sampled_from(["999", row[0]] + other[:1]))
            if draw(st.booleans()):
                row[0] = tid            # unknown or repeated task id
            else:                       # unknown, other or self predecessor
                row[4] = tid if row[4] == "-" else f"{row[4]};{tid}"
        elif kind == "row":
            edit = draw(st.sampled_from(["delete", "repeat", "short", "long"]))
            if edit == "delete":
                del rows[r]
            elif edit == "repeat":
                rows.insert(r, list(row))
            elif edit == "short":
                del row[draw(st.integers(0, len(row))):]
            else:
                row.append(draw(st.sampled_from(BAD_CELLS)))
        if not rows:
            rows.append([])
    return _damaged_text(draw, "\n".join(",".join(row) for row in rows))


@st.composite
def fuzzed_sequence_files(draw):
    """A full feasible sequence of the bundled tasks after one to three
    mutations: a bad token, an unknown, repeated or dropped id, two ids
    swapped (breaking precedence) or odd separators; then maybe damaged
    by `_damaged_text`."""
    tokens = [str(t) for t in (3, 2, 1, 4, 6, 5, 7, 8, 9, 10, 11, 12)]
    seps = [","] * (len(tokens) - 1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["bad", "id", "drop", "swap", "sep"]))
        k = draw(st.integers(0, len(tokens) - 1)) if tokens else 0
        if kind == "bad" and tokens:
            tokens[k] = draw(st.sampled_from(BAD_CELLS + ["3.0", "+3"]))
        elif kind == "id" and tokens:
            tokens[k] = draw(st.sampled_from(["0", "13", "999", *tokens]))
        elif kind == "drop" and tokens:
            del tokens[k]
            if seps:
                del seps[min(k, len(seps) - 1)]
        elif kind == "swap" and tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[k], tokens[j] = tokens[j], tokens[k]
        elif kind == "sep" and seps:
            seps[draw(st.integers(0, len(seps) - 1))] = draw(
                st.sampled_from([" ", "\n", "\t", ",,", ";", "", ", "]))
    text = "".join(t + sep for t, sep in zip(tokens, seps + [""]))
    return _damaged_text(draw, text)


class TestFuzzedTaskCsv:
    """No mutation of the bundled tasks as a task CSV makes schedule
    exit 3 (internal error) or run away."""

    @settings(max_examples=150, deadline=None)
    @given(text=fuzzed_task_csvs())
    def test_exit_code_is_0_1_or_2(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzzed_tasks.csv"
        path.write_text(text, encoding="utf-8")
        code, err = _bounded_main(["schedule", "--instance", str(path)])
        assert code in (0, 1, 2), err


class TestFuzzedSequenceFile:
    """No mutation of a bundled-task sequence file makes schedule exit 3
    (internal error) or run away."""

    @settings(max_examples=150, deadline=None)
    @given(text=fuzzed_sequence_files())
    def test_exit_code_is_0_1_or_2(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzzed_sequence.txt"
        path.write_text(text, encoding="utf-8")
        code, err = _bounded_main(["schedule", "--sequence-file",
                                   str(path)])
        assert code in (0, 1, 2), err


class TestSchedule:
    def test_prefix_runs_on_bundled_instance(self, capsys):
        seq = ",".join(str(t) for t in GOLDEN_PREFIX)
        code, out, _ = run(capsys, ["schedule", "--sequence", seq])
        assert code == 0
        assert "makespan: 4875" in out  # prefix extended in id order

    def test_rule_sequence(self, capsys):
        code, out, _ = run(capsys, ["schedule", "--rule", "proc-time-desc"])
        assert code == 0
        assert "sequence: 3 2 1 4 7 9 6 12 5 8 10 11" in out

    def test_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["schedule", "--sequence", "3,2,1",
                                    "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "schedule.csv").exists()
        assert (tmp_path / "schedule.svg").exists()

    def test_billion_bays_run_quickly(self, tmp_path):
        # a list of 10**9 bay releases per station would take 8 GB
        args = _raw_instance(("stations", 0, "slots"), str(10**9))(tmp_path)
        code, err = _bounded_main(["schedule", *args])
        assert code == 0, err

    def test_csv_instance_uses_bundled_environment(self, capsys, tmp_path):
        from uavsched.io import write_task_csv
        from uavsched.sampledata import sample_instance
        p = tmp_path / "tasks.csv"
        write_task_csv(sample_instance().tasks, p)
        code, out, _ = run(capsys, ["schedule", "--instance", str(p),
                                    "--rule", "proc-time-desc"])
        assert code == 0
        assert "instance: tasks" in out


class TestSearch:
    def test_writes_all_artifacts(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["search", "--seed", "7",
                                    "--max-iter", "5",
                                    "--out-dir", str(tmp_path)])
        assert code == 0
        for name in ("best_schedule.csv", "best_schedule.svg",
                     "history.csv", "history.svg", "report.json"):
            assert (tmp_path / name).exists(), name
        assert "best makespan" in out

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            code, _, _ = run(capsys, ["search", "--seed", "11",
                                      "--max-iter", "6",
                                      "--out-dir", str(d)])
            assert code == 0
        for name in ("report.json", "best_schedule.csv", "history.csv",
                     "best_schedule.svg", "history.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_format_filter(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["search", "--seed", "1", "--max-iter", "3",
                                  "--out-dir", str(tmp_path),
                                  "--format", "json"])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert not (tmp_path / "best_schedule.csv").exists()
        assert not (tmp_path / "history.svg").exists()

    def test_bad_particle_count(self, capsys):
        code, _, err = run(capsys, ["search", "--particles", "2"])
        assert code == 1
        assert "swarm_size" in err and "internal error" not in err

    def test_fewer_particles_than_rules(self, capsys):
        code, _, err = run(capsys, ["search", "--particles", "3"])
        assert code == 1
        assert "swarm_size must be at least 8" in err

    def test_zero_convergence_window(self, capsys):
        code, _, err = run(capsys, ["search", "--window", "0"])
        assert code == 1
        assert "convergence_window must be positive" in err

    def test_negative_seed(self, capsys, tmp_path):
        code, out, err = run(capsys, ["search", "--seed", "-1",
                                      "--out-dir", str(tmp_path)])
        assert code == 1
        assert "rng_seed must be a non-negative integer" in err
        assert "internal error" not in err
        assert out == "" and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--c1", "--c2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_factor(self, capsys, tmp_path, flag, value):
        # a NaN or infinite factor would be written to report.json as a
        # bare NaN/Infinity, which is not JSON
        code, out, err = run(capsys, ["search", f"{flag}={value}",
                                      "--out-dir", str(tmp_path)])
        assert code == 1
        assert "acceleration factors must be finite" in err
        assert out == "" and not (tmp_path / "report.json").exists()


class TestGenerate:
    def test_round_trips_through_loader(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["generate", "--tasks", "8", "--seed", "5",
                                    "--out-dir", str(tmp_path)])
        assert code == 0
        inst = load_instance(tmp_path / "instance.json")
        assert len(inst.tasks) == 8

    def test_generated_instance_schedulable(self, capsys, tmp_path):
        run(capsys, ["generate", "--tasks", "6", "--seed", "3",
                     "--out-dir", str(tmp_path)])
        code, out, _ = run(capsys, ["schedule", "--instance",
                                    str(tmp_path / "instance.json")])
        assert code == 0
        assert "makespan:" in out

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["generate", "--seed", "-1",
                                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert err == "error: seed must be non-negative\n"
        assert not (tmp_path / "instance.json").exists()


class TestExperiment:
    def test_tiny_sweep(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["experiment", "--tasks", "10",
                                    "--reps", "2", "--max-iter", "2",
                                    "--out-dir", str(tmp_path)])
        assert code == 0
        runs = (tmp_path / "runs.csv").read_text().splitlines()
        assert runs[0].startswith("run_index,n_tasks,")
        assert len(runs) == 3  # header + 2 repetitions
        summary = (tmp_path / "summary.csv").read_text()
        assert "10" in summary
        # a 10-task cell carries the paper's row in the console table,
        # and a line above the header says where those figures come from
        assert " paper " in out
        assert "the paper's figures, measured on other datasets" in out

    @pytest.mark.parametrize("argv, message", [
        (["--tasks", "x"], "--tasks must be comma-separated int"),
        (["--tasks", "10,"], "--tasks must be comma-separated int"),
        (["--tasks", "-1"], "task counts must be non-negative integers"),
        (["--c1", "a"], "--c1 must be comma-separated float"),
        (["--reps", "0"], "repetitions must be an integer of at least 1"),
        (["--particles", "3"], "swarm_size must be at least 8"),
        (["--particles", "40,3"], "swarm_size must be at least 8"),
        (["--max-iter", "0"], "max_iterations must be positive"),
        (["--c2", "-1"], "acceleration factors must be non-negative"),
        (["--c1", "1,nan"], "acceleration factors must be finite"),
        (["--c2", "inf"], "acceleration factors must be finite"),
        (["--seed", "-1", "--reps", "1"],
         "rng_seed must be a non-negative integer"),
        (["--jobs", "0"], "--jobs must be at least 1"),
        (["--jobs", "-4"], "--jobs must be at least 1"),
    ])
    def test_bad_grid_is_usage_error(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, ["experiment", "--out-dir",
                                      str(tmp_path), *argv])
        assert code == 1
        assert message in err and "internal error" not in err
        # rejected before any run starts
        assert out == "" and "runs" not in err
        assert not (tmp_path / "runs.csv").exists()


class TestIntegerFlags:
    """Every integer flag reads its value by `parse_integer`'s rule, as
    `--sequence` does, and every acceleration factor by `parse_real`'s:
    a digit-group underscore or a non-ASCII digit is a usage error
    naming the flag, not the number int() or float() would read."""

    BASE = {"search": ["search", "--max-iter", "2"],
            "experiment": ["experiment", "--reps", "1", "--max-iter", "2"],
            "generate": ["generate"]}
    FLAGS = [("search", f) for f in
             ("--seed", "--particles", "--max-iter", "--window")] + [
             ("experiment", f) for f in
             ("--tasks", "--particles", "--reps", "--max-iter", "--seed",
              "--jobs")] + [
             ("generate", f) for f in
             ("--tasks", "--seed", "--uavs", "--slots", "--max-preds")] + [
             (command, f) for command in ("search", "experiment")
             for f in ("--c1", "--c2")]

    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0660"])
    @pytest.mark.parametrize("command, flag", FLAGS)
    def test_refused_with_the_flag_named(self, capsys, tmp_path, command,
                                         flag, value):
        code, out, err = run(capsys, [*self.BASE[command], flag, value,
                                      "--out-dir", str(tmp_path)])
        assert code == 1
        assert out == "" and list(tmp_path.iterdir()) == []
        assert flag in err.splitlines()[-1] and repr(value) in err

    def test_list_entries_too(self, capsys, tmp_path):
        code, _, err = run(capsys, ["experiment", "--tasks", "5,1_0",
                                    "--out-dir", str(tmp_path)])
        assert code == 1
        assert err == ("error: --tasks must be comma-separated int values: "
                       "'5,1_0'\n")


class TestUnusableOutDir:
    """An --out-dir that cannot be created or written is a usage error,
    found before any search or experiment runs."""

    COMMANDS = {
        "schedule": ["schedule", "--sequence", "3,2,1,4,6,5,7"],
        "search": ["search", "--seed", "1", "--max-iter", "2"],
        "experiment": ["experiment", "--reps", "1", "--max-iter", "2"],
        "generate": ["generate", "--tasks", "5"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_file_in_the_way_exits_1(self, capsys, tmp_path, command, under):
        blocker = tmp_path / "F"
        blocker.write_text("not a directory\n")
        target = blocker / under if under else blocker
        code, out, err = run(capsys, [*self.COMMANDS[command],
                                      "--out-dir", str(target)])
        assert code == 1
        assert err == (f"error: cannot write to --out-dir {target}: "
                       "not a directory\n")
        assert out == ""
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_directory_exits_1(self, capsys, tmp_path, monkeypatch,
                                          command):
        # os.access stands in for a read-only directory, which a
        # privileged test process could still write to
        monkeypatch.setattr("uavsched.cli.os.access", lambda path, mode: False)
        code, out, err = run(capsys, [*self.COMMANDS[command],
                                      "--out-dir", str(tmp_path)])
        assert code == 1
        assert err == (f"error: cannot write to --out-dir {tmp_path}: "
                       "permission denied\n")
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_directory_is_created(self, capsys, tmp_path, command):
        target = tmp_path / "a" / "b"
        code, _, err = run(capsys, [*self.COMMANDS[command],
                                    "--out-dir", str(target)])
        assert code == 0, err
        assert any(target.iterdir())
