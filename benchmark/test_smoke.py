"""Smoke tests for the benchmark at toy size.

    python3 -m pytest -q benchmark/test_smoke.py

Each workload runs with a handful of 6-task ops, untraced and traced,
and must print every metric BENCHMARK.json names, with its unit.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TOY = {name: dataclasses.replace(wl, n_tasks=6, panel=min(wl.panel, 2),
                                 prefix=2, iterations=2,
                                 sequences=min(wl.sequences, 2))
       for name, wl in run.WORKLOADS.items()}


def toy_run(workload, trace, out_dir, capsys):
    run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
              "--trace", str(trace)],
             workloads=TOY, out_dir=out_dir, expected_path=None)
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_names_the_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TOY))
def test_toy_run_prints_every_metric(workload, trace, tmp_path, capsys):
    lines, result = toy_run(workload, trace, tmp_path, capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        shown = [ln.split() for ln in lines if ln.split()[:1] == [m["name"]]]
        assert shown and shown[0][-1] == m["unit"]


def test_vanished_function_reports_missing_metrics(tmp_path, capsys,
                                                   monkeypatch):
    targets = dict(run.TRACE_TARGETS)
    targets["search"] = tuple(
        ("pso", "no_such_function", name, obs) if name == "eat.build_schedule"
        else (mod, attr, name, obs)
        for mod, attr, name, obs in targets["search"])
    monkeypatch.setattr(run, "TRACE_TARGETS", targets)
    lines, result = toy_run("search-10", 1, tmp_path, capsys)
    assert result["correct"]
    gone = {m["name"] for m in BENCHMARK["per_layer"]} - set(result["metrics"])
    assert gone == {"eat.build_schedule.calls", "eat.build_schedule.ms_p50",
                    "eat.build_schedule.share", "eat.recharges_per_schedule",
                    "eat.hover_s_per_schedule", "pso.memo_hit_ratio",
                    "pso.self_s"}
    assert any(ln.startswith("op_ms_p50") for ln in lines)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search-10",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
