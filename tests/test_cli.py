import json

import pytest

from uavsched.cli import main
from uavsched.io import instance_to_dict, load_instance
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


class TestBadInputFiles:
    """Unreadable or malformed input files are input errors (exit 2),
    never internal errors (exit 3)."""

    @pytest.mark.parametrize("make_args", [
        _short_csv_row, _missing_sequence_file, _directory_instance,
        _latin1_instance, _latin1_task_csv, _list_as_task_start,
        *map(_mutated_instance, (_null_uav_id, _int_uav_id,
                                 _null_uav_initial_pos, _int_position_id,
                                 _null_station_pos, _null_task_end)),
    ])
    def test_exits_2(self, capsys, tmp_path, make_args):
        code, _, err = run(capsys, ["schedule", *make_args(tmp_path)])
        assert code == 2, err
        assert err.startswith("error: ")

    def test_non_string_id_is_named(self, capsys, tmp_path):
        args = _mutated_instance(_null_uav_id)(tmp_path)
        code, _, err = run(capsys, ["schedule", *args])
        assert code == 2
        assert "uav id must be a string, not None" in err


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
        # a 10-task cell carries a reference row in the console table
        assert " base " in out

    @pytest.mark.parametrize("argv, message", [
        (["--tasks", "x"], "--tasks must be comma-separated int"),
        (["--tasks", "10,"], "--tasks must be comma-separated int"),
        (["--tasks", "-1"], "--tasks must be non-negative"),
        (["--c1", "a"], "--c1 must be comma-separated float"),
        (["--reps", "0"], "--reps must be at least 1"),
        (["--particles", "3"], "swarm_size must be at least 8"),
        (["--particles", "40,3"], "swarm_size must be at least 8"),
        (["--max-iter", "0"], "max_iterations must be positive"),
        (["--c2", "-1"], "acceleration factors must be non-negative"),
    ])
    def test_bad_grid_is_usage_error(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, ["experiment", "--out-dir",
                                      str(tmp_path), *argv])
        assert code == 1
        assert message in err and "internal error" not in err
        # rejected before any run starts
        assert out == "" and "runs" not in err
        assert not (tmp_path / "runs.csv").exists()
