"""Same schedules, same bytes: the audit artifacts pinned per case.

For each case the pinned file holds the sha256 of the schedule CSV that
`write_schedule_csv` writes, of `render_gantt_svg` with a title that
needs XML escaping, and of every violation's `str()` joined by newlines.
The cases are 50-task schedules like the benchmark's audit workload
(generated instances, seeded random sequences made feasible by
`repair`), the bundled lab instance's golden and full schedules, and
schedules with injected faults: a gap, an overlap, an unknown position,
a wrong flight duration, a recharge bay overflow and an unknown UAV. A
change to the constructor, the validator or an output format that
alters any of these bytes fails here. Re-record (only for an intended
change of output) with:

    PYTHONPATH=src python tests/test_pinned_artifacts.py > tests/data/pinned_artifacts.json
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from uavsched.datagen import GenSpec, generate_instance
from uavsched.eat import build_schedule
from uavsched.gantt import render_gantt_svg
from uavsched.io import write_schedule_csv
from uavsched.model import ProblemInstance, RechargeStation, Schedule
from uavsched.sampledata import sample_instance
from uavsched.sequences import repair
from uavsched.validate import validate_schedule

from conftest import FULL_COMPLETION, golden_schedule

PINNED = Path(__file__).parent / "data" / "pinned_artifacts.json"
TITLE = 'pinned <schedule> & "faults"'


def audit_schedules():
    """Two random feasible sequences on each of three audit-style
    instances (50 tasks, 4 UAVs, 2 bays per station)."""
    out = {}
    for j in range(3):
        inst = generate_instance(GenSpec(n_tasks=50, seed=50 + j, n_uavs=4,
                                         slots_per_station=2))
        rng = np.random.default_rng([77, j])
        ids = [t.id for t in inst.tasks]
        for k in range(2):
            seq = repair([ids[i] for i in rng.permutation(len(ids))], inst)
            out[f"audit-{j}-{k}"] = build_schedule(inst, seq)
    return out


def _edit(schedule, uav_id, k, **changes):
    """schedule with action k of uav_id replaced by changes."""
    actions = {u: list(acts) for u, acts in schedule.actions.items()}
    actions[uav_id][k] = dataclasses.replace(actions[uav_id][k], **changes)
    return Schedule(instance=schedule.instance, actions=actions)


def faulty_schedules(base):
    """One injected fault per schedule, on top of a clean audit one."""
    uav = base.uav_order()[0]
    acts = base.actions[uav]
    flight = next(k for k, a in enumerate(acts)
                  if k and a.kind == "flight")
    a = acts[flight]
    inst = base.instance
    one_bay = ProblemInstance(
        trajectory_map=inst.trajectory_map,
        stations=tuple(RechargeStation(s.pos, 1) for s in inst.stations),
        tasks=inst.tasks, uavs=inst.uavs, name=inst.name)
    extra = dict(base.actions)
    extra["ghost"] = list(acts[:3])
    return {
        "gap": _edit(base, uav, flight, start=a.start + 5, end=a.end + 5),
        "overlap": _edit(base, uav, flight, start=a.start - 5),
        "unknown_position": _edit(base, uav, flight, to_pos="nowhere"),
        "flight_duration": _edit(base, uav, flight, end=a.end + 7),
        "bay_capacity": Schedule(instance=one_bay, actions=base.actions),
        "unknown_uav": Schedule(instance=inst, actions=extra),
    }


def cases():
    audit = audit_schedules()
    lab = sample_instance()
    out = dict(audit)
    out["lab-golden"] = golden_schedule(lab)
    out["lab-full"] = build_schedule(lab, FULL_COMPLETION)
    for name, s in faulty_schedules(audit["audit-0-0"]).items():
        out["fault-" + name] = s
    return out


def digests(schedule) -> dict:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schedule.csv"
        write_schedule_csv(schedule, path)
        csv = path.read_bytes()
    violations = "\n".join(str(v) for v in validate_schedule(schedule))
    return {"csv": sha(csv),
            "svg": sha(render_gantt_svg(schedule, title=TITLE).encode()),
            "violations": sha(violations.encode())}


@pytest.fixture(scope="module")
def schedules():
    return cases()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_every_case_is_pinned(schedules, pinned):
    assert sorted(schedules) == sorted(pinned)


@pytest.mark.parametrize("name", sorted(cases()))
def test_artifacts_match_pinned(schedules, pinned, name):
    assert digests(schedules[name]) == pinned[name]


def test_faults_show(schedules):
    """Each injected fault is reported, so its pinned message is real."""
    for name, schedule in schedules.items():
        kinds = {v.kind for v in validate_schedule(schedule)}
        if name.startswith("fault-"):
            fault = name[len("fault-"):]
            expect = "timeline_gap" if fault == "gap" else (
                "timeline_overlap" if fault == "overlap" else fault)
            assert expect in kinds, name
        else:
            assert not kinds, name


if __name__ == "__main__":
    print(json.dumps({k: digests(s) for k, s in cases().items()},
                     indent=1, sort_keys=True))
