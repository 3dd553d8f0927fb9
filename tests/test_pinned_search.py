"""Same seeds, same search results: `run_pso` outputs pinned per seed.

The pinned file holds the best makespan, best sequence and history of
ten-iteration searches for seeds 0-2 on generated 10/50/100-task
instances. A change to the search or the constructor that alters any
of them fails here. Re-record (only for an intended change of
results) with:

    PYTHONPATH=src python tests/test_pinned_search.py > tests/data/pinned_search.json
"""

import json
from pathlib import Path

import pytest

from uavsched.datagen import GenSpec, generate_instance
from uavsched.pso import PsoConfig, run_pso

PINNED = Path(__file__).parent / "data" / "pinned_search.json"
CASES = [(n, seed) for n in (10, 50, 100) for seed in range(3)]


def search_result(n_tasks: int, seed: int) -> dict:
    instance = generate_instance(GenSpec(n_tasks=n_tasks, seed=seed))
    report = run_pso(instance, PsoConfig(rng_seed=seed, max_iterations=10))
    return {"best_makespan": report.best_makespan,
            "best_sequence": report.best_sequence,
            "history": [list(h) for h in report.history]}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("n_tasks, seed", CASES)
def test_search_matches_pinned(pinned, n_tasks, seed):
    assert search_result(n_tasks, seed) == pinned[f"{n_tasks}-{seed}"]


if __name__ == "__main__":
    print("{\n" + ",\n".join(f'"{n}-{s}": {json.dumps(search_result(n, s))}'
                             for n, s in CASES) + "\n}")
