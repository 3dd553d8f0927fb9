"""Record the deterministic values of traced runs into expected.json.

    python3 benchmark/record_expected.py --seeds 0-9 [--workload search-10 ...]

Each (workload, seed) runs its prefix ops only (--seconds 0, --trace 1).
The values it records are the ones run.py then requires to repeat
exactly. Re-record only for a change that is meant to alter results.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9",
                    help="inclusive range such as 0-9")
    ap.add_argument("--workload", action="append",
                    choices=sorted(run.WORKLOADS))
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    expected = (json.loads(run.EXPECTED.read_text())
                if run.EXPECTED.is_file() else {})
    for name in args.workload or sorted(run.WORKLOADS):
        for seed in seeds:
            record = run.main(["--workload", name, "--seed", str(seed),
                               "--seconds", "0", "--trace", "1"],
                              expected_path=None)
            if not record["correct"]:
                sys.exit(f"{name} seed {seed} is not correct: "
                         f"{record['problems'][:3]}")
            expected.setdefault(name, {})[str(seed)] = record["deterministic"]
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")


if __name__ == "__main__":
    main()
