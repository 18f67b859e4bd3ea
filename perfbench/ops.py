"""One operation of an in-process workload, in a fresh interpreter.

    python3 perfbench/ops.py WORKLOAD INPUT_SEED OUT_JSON [--trace|--setup-only]

Run from the repository root with ``src`` on ``PYTHONPATH``.  Set-up
(imports, ``osu018_library()``, ``build_benchmark``) happens first; the
timed section is the analysis or resynthesis call itself.  The result
(timestamps, outputs, the two times of a resynthesis run's Rtime and,
with ``--trace``, per-layer metrics and exact counters) is written to
OUT_JSON.  With ``--setup-only`` the child
exits after set-up and writes only its start timestamp.  Timestamps are ``time.monotonic()``,
which is system-wide on Linux, so the parent can subtract its own spawn
time from them.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as spans_mod  # noqa: E402
import workloads as wl  # noqa: E402


def main(argv) -> int:
    workload, seed, out_path = argv[0], int(argv[1]), argv[2]
    trace = "--trace" in argv[3:]
    setup_only = "--setup-only" in argv[3:]

    from repro.bench import build_benchmark
    from repro.core import (
        ResynthesisConfig, analyze_design, resynthesize_for_coverage,
        table1_row, table2_row,
    )
    from repro.library import osu018_library

    tracer = spans_mod.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    library = osu018_library()
    names = (wl.FLOW_CIRCUITS if workload == "flow"
             else (wl.RESYNTH[workload][0],))
    b0 = time.perf_counter()
    circuits = {name: build_benchmark(name, library) for name in names}
    build_s = time.perf_counter() - b0
    if tracer is not None:
        tracer.spans.clear()

    resynth = None
    t_start = time.monotonic()
    if setup_only:
        with open(out_path, "w") as fh:
            json.dump({"t_start": t_start}, fh)
        return 0
    if workload == "flow":
        states = {
            name: analyze_design(c, library, seed=seed, atpg_seed=seed)
            for name, c in circuits.items()
        }
        t_end = time.monotonic()
        outputs = {"table1": [table1_row(n, s) for n, s in states.items()]}
        engine = spans_mod.sum_engine(s.stats.as_dict() for s in states.values())
        rtime = None
    else:
        name, overrides = wl.RESYNTH[workload]
        config = ResynthesisConfig(seed=seed, **overrides)
        result = resynthesize_for_coverage(circuits[name], library, config)
        t_end = time.monotonic()
        stats = result.stats
        outputs = {
            "table2": wl.table2_without_rtime(table2_row(name, result)),
            "trace_digest": wl.history_digest(result.history),
            "aborted": stats.engine.sat_aborts + stats.engine.verdicts_aborted,
        }
        engine = spans_mod.sum_engine([stats.engine.as_dict()])
        resynth = {
            k: v for k, v in stats.as_dict().items() if k != "engine"
        }
        resynth["iterations"] = len(result.history)
        resynth["accepted"] = sum(
            1 for h in result.history if h.status.endswith("accepted")
        )
        # Rtime = runtime / baseline_runtime, both timed from the start of
        # the call; run.py corrects each for the host's speed.
        rtime = [result.runtime, result.baseline_runtime]

    wall = t_end - t_start
    record = {
        "t_start": t_start,
        "wall_s": wall,
        "rtime": rtime,
        "outputs": outputs,
    }
    if tracer is not None:
        tracer.uninstall()
        totals = spans_mod.summarize(tracer.spans, wall)
        engine.update(tracer.counts)
        record["layers"] = spans_mod.layer_metrics(
            totals, engine, resynth, build_s
        )
        record["counts"] = spans_mod.exact_counts(record["layers"])
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
