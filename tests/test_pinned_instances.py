"""Same spec, same instance: generated instances pinned byte for byte.

The pinned file holds, per case, digests of the generated tasks (id,
type, ends, processing time, predecessors), the UAVs and the stations,
for 0-100 tasks, several seeds and specs that reach every branch of the
generator: skewed and zero type weights, no and many predecessors, a
larger fleet with two bays, a custom map with explicit stations, and a
tight battery that forces resampling. A change to generation that alters
any draw fails here. `uavsched generate` output for two specs is pinned
as whole files. Re-record (only for an intended change of instances)
with:

    PYTHONPATH=src python tests/test_pinned_instances.py > tests/data/pinned_instances.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from uavsched.cli import main
from uavsched.datagen import GenSpec, generate_instance
from uavsched.model import (
    Position,
    PositionKind,
    RechargeStation,
    TrajectoryMap,
    Uav,
)

DATA = Path(__file__).parent / "data"
PINNED = DATA / "pinned_instances.json"

# five work positions and three stations, hosted with 2, 1 and 3 bays
CUSTOM_MAP = TrajectoryMap(
    [Position(p) for p in "vwxyz"]
    + [Position(s, PositionKind.RECHARGE) for s in ("S1", "S2", "S3")],
    [[0, 70, 140, 210, 95, 30, 180, 250],
     [70, 0, 85, 160, 130, 75, 110, 200],
     [140, 85, 0, 90, 175, 150, 45, 120],
     [210, 160, 90, 0, 115, 230, 100, 35],
     [95, 130, 175, 115, 0, 120, 160, 80],
     [30, 75, 150, 230, 120, 0, 190, 260],
     [180, 110, 45, 100, 160, 190, 0, 140],
     [250, 200, 120, 35, 80, 260, 140, 0]])
CUSTOM_STATIONS = (RechargeStation("S1", 2), RechargeStation("S2", 1),
                   RechargeStation("S3", 3))
# the 700 s battery rejects many draws of the bundled map, so the
# generator resamples
TIGHT_FLEET = (Uav("T1", "R1", 700), Uav("T2", "R2", 1500, 900))

SPECS = {
    "default": ({}, {}),
    "fleet4-slots2": ({"n_uavs": 4, "slots_per_station": 2}, {}),
    "skewed": ({"type_weights": (6.0, 0.0, 1.5)}, {}),
    "preds0": ({"max_predecessors": 0}, {}),
    "preds4": ({"max_predecessors": 4}, {}),
    "custom-map": ({"n_uavs": 2}, {"trajectory_map": CUSTOM_MAP,
                                   "stations": CUSTOM_STATIONS}),
    "tight-battery": ({}, {"uavs": TIGHT_FLEET}),
}
SIZES = (0, 1, 3, 10, 50, 100)
SEEDS = (0, 1, 17)
CASES = [(spec, n, seed) for spec in SPECS for n in SIZES for seed in SEEDS]
# (file under tests/data, `uavsched generate` arguments)
CLI_CASES = [
    ("generate_100t_s3.json", ["--tasks", "100", "--seed", "3"]),
    ("generate_50t_4u_2s_s8.json",
     ["--tasks", "50", "--uavs", "4", "--slots", "2", "--seed", "8"]),
]


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def instance_digests(spec_name: str, n_tasks: int, seed: int) -> dict:
    fields, env = SPECS[spec_name]
    inst = generate_instance(GenSpec(n_tasks=n_tasks, seed=seed, **fields),
                             **env)
    return {
        "name": inst.name,
        "tasks": _digest([[t.id, t.type.value, t.start_pos, t.end_pos,
                           t.proc_time, list(t.predecessors)]
                          for t in inst.tasks]),
        "uavs": _digest([[u.id, u.initial_pos, u.battery_capacity,
                          u.recharge_duration] for u in inst.uavs]),
        "stations": _digest([[s.pos, s.slots] for s in inst.stations]),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(f"{s}/{n}/{seed}" for s, n, seed in CASES)


@pytest.mark.parametrize("spec_name, n_tasks, seed", CASES)
def test_instance_matches_pinned(pinned, spec_name, n_tasks, seed):
    assert instance_digests(spec_name, n_tasks, seed) \
        == pinned[f"{spec_name}/{n_tasks}/{seed}"]


@pytest.mark.parametrize("filename, args", CLI_CASES)
def test_cli_generate_matches_pinned(tmp_path, capsys, filename, args):
    assert main(["generate", *args, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "instance.json").read_bytes() \
        == (DATA / filename).read_bytes()


if __name__ == "__main__":
    print("{\n" + ",\n".join(
        f'"{s}/{n}/{seed}": {json.dumps(instance_digests(s, n, seed))}'
        for s, n, seed in CASES) + "\n}")
