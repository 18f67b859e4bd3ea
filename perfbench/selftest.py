"""Exact-count self-test of the benchmark, and the recorder of its
expected outputs.

    python3 perfbench/selftest.py [--seeds 0,1]
    python3 perfbench/selftest.py --record

Run from the repository root.  The self-test runs each workload once
under ``PYTHONHASHSEED=0`` and once under ``PYTHONHASHSEED=1`` (each in
fresh interpreters, traced so ``place_calls`` is counted) and fails if
any exact counter (``workloads.EXACT_COUNTERS``) differs between the two
runs or from the recorded value, or if any output differs from the
checked-in one.

``--seeds`` takes benchmark seeds (0 selects each workload's tuning
input seed, 1 its held-out one).  ``--record`` rewrites
``expected.json`` from one run per workload and input seed.  Only
re-record when a change is meant to alter an output or a count, and say
so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402


def measure(workload: str, seed: int, hash_seed: str) -> dict:
    """Outputs and exact counts of one traced operation."""
    os.environ["PYTHONHASHSEED"] = hash_seed
    op = bench.run_op(workload, seed, trace=True)
    if not op["ok"]:
        raise SystemExit(f"{workload} seed {seed}: operation failed")
    return {"outputs": op["outputs"], "counts": op["counts"]}


def record() -> int:
    data = {"outputs": {}, "counts": {}}
    for workload in wl.WORKLOADS:
        data["outputs"][workload] = {}
        data["counts"][workload] = {}
        for seed in range(len(wl.SEEDS[workload])):
            got = measure(workload, seed, "0")
            key = str(wl.input_seed(workload, seed))
            data["outputs"][workload][key] = got["outputs"]
            data["counts"][workload][key] = got["counts"]
            print(f"recorded {workload} input seed {key}: {got['counts']}",
                  flush=True)
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def selftest(seeds) -> int:
    expected = wl.load_expected()
    problems = []
    for workload in wl.WORKLOADS:
        for seed in seeds:
            runs = {h: measure(workload, seed, h) for h in ("0", "1")}
            want = expected["counts"][workload][
                str(wl.input_seed(workload, seed))]
            for h, got in runs.items():
                for key in wl.EXACT_COUNTERS:
                    if got["counts"][key] != want[key]:
                        problems.append(
                            f"{workload} seed {seed} PYTHONHASHSEED={h}: "
                            f"{key} {got['counts'][key]} != recorded "
                            f"{want[key]}"
                        )
                bad = wl.check_outputs(workload, seed, got["outputs"],
                                       expected)
                if bad:
                    problems.append(
                        f"{workload} seed {seed} PYTHONHASHSEED={h}: "
                        f"outputs differ on {', '.join(bad)}"
                    )
            print(f"{workload} seed {seed}: {runs['0']['counts']}",
                  flush=True)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("OK: counts and outputs repeat exactly under both hash seeds")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--seeds", default="0")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(bench.WORK_DIR, exist_ok=True)
    try:
        if args.record:
            return record()
        return selftest([int(s) for s in args.seeds.split(",") if s])
    finally:
        shutil.rmtree(bench.WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
