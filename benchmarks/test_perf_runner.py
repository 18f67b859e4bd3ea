"""Performance harness for the concurrent campaign scheduler.

Runs the paper's Table-I campaign over the bench circuits at
``jobs=1/2/4`` and measures wall-clock makespan.  Tasks run with
``isolation="process"`` (each lane's analyses in that lane's worker
interpreter, one per ``jobs`` lane, so the scheduler's concurrency is
real parallelism, not GIL-interleaved threads).  The normalized
report must be bit-identical at every jobs level — the scaling is only
meaningful if concurrency changes nothing but the clock — and a
trajectory point is appended to
``benchmarks/results/BENCH_runner.json``.

Scaling floors are enforced only when the machine actually has the
cores: the ``jobs=4`` floor applies iff ``len(os.sched_getaffinity)``
is at least 4 (a 1-CPU container records honest numbers — including
the scheduler's overhead — but cannot fail a floor it physically
cannot meet; the 4-vCPU CI runners enforce it).  Every trajectory
point records the effective CPU count alongside the timings.

Run with:
``PYTHONPATH=src python -m pytest benchmarks/test_perf_runner.py -s``

Knobs: ``REPRO_PERF_RUNNER_CIRCUITS`` (default: the 12-circuit bench
set minus ``sparc_fpu`` — that one task is a ~27s straggler that alone
caps the achievable 4-way speedup near 2.3x; add it back to measure
the straggler-bound regime), ``REPRO_PERF_RUNNER_JOBS``
(comma-separated jobs levels, default ``1,2,4``),
``REPRO_PERF_RUNNER_MIN_SPEEDUP`` (floor override for every level).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import pytest

from benchmarks.conftest import emit_report
from repro.runner import normalize_report, run_campaign
from repro.runner.tasks import paper_campaign

pytestmark = [pytest.mark.perf, pytest.mark.slow]

CIRCUITS = [
    name.strip()
    for name in os.environ.get(
        "REPRO_PERF_RUNNER_CIRCUITS",
        "tv80,systemcaes,aes_core,wb_conmax,des_perf,sparc_spu,"
        "sparc_ffu,sparc_exu,sparc_ifu,sparc_tlu,sparc_lsu",
    ).split(",")
    if name.strip()
]
JOBS_LEVELS = [
    int(tok)
    for tok in os.environ.get("REPRO_PERF_RUNNER_JOBS", "1,2,4").split(",")
    if tok.strip()
]

# The ISSUE's acceptance floor: >= 2.0x wall-clock at jobs=4 over
# jobs=1.  jobs=2 only has to beat break-even.  Floors apply only when
# the CPUs exist (see module doc).
_FLOOR_OVERRIDE = os.environ.get("REPRO_PERF_RUNNER_MIN_SPEEDUP")
MIN_SPEEDUP: Dict[int, float] = {4: 2.0, 2: 1.2}


def _effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _min_speedup(jobs: int) -> float:
    if _FLOOR_OVERRIDE:
        return float(_FLOOR_OVERRIDE)
    return MIN_SPEEDUP.get(jobs, 0.0)


def _run_at(jobs: int, root: str) -> dict:
    campaign = paper_campaign(
        CIRCUITS, run_id=f"bench-j{jobs}", tables=(1,),
        isolation="process",
    )
    t0 = time.perf_counter()
    report = run_campaign(campaign, root=root, jobs=jobs)
    wall = time.perf_counter() - t0
    assert report["status"] == "ok", report["status"]
    sched = report.get("scheduler") or {}
    return {
        "jobs": jobs,
        "wall_seconds": round(wall, 4),
        "normalized": json.dumps(normalize_report(report), sort_keys=True),
        "peak_in_flight": sched.get("peak_in_flight"),
        "busy_seconds": round(sched["busy_seconds"], 4)
        if "busy_seconds" in sched else None,
    }


def test_scheduler_scaling_and_equivalence(tmp_path):
    cpus = _effective_cpus()
    runs: List[dict] = [
        _run_at(jobs, str(tmp_path / f"runs-j{jobs}"))
        for jobs in JOBS_LEVELS
    ]

    # Correctness gate: every jobs level must produce the same
    # normalized report — concurrency may only move the clock.
    baseline = runs[0]
    for run in runs[1:]:
        assert run["normalized"] == baseline["normalized"], (
            f"normalized report at jobs={run['jobs']} differs from "
            f"jobs={baseline['jobs']}"
        )

    t_serial = next(r["wall_seconds"] for r in runs if r["jobs"] == 1)
    points = []
    for run in runs:
        speedup = t_serial / run["wall_seconds"] if run["wall_seconds"] \
            else float("inf")
        points.append({
            "jobs": run["jobs"],
            "wall_seconds": run["wall_seconds"],
            "speedup": round(speedup, 2),
            "min_speedup": _min_speedup(run["jobs"]),
            "peak_in_flight": run["peak_in_flight"],
            "busy_seconds": run["busy_seconds"],
        })

    point = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "circuits": CIRCUITS,
        "cpus": cpus,
        "isolation": "process",
        "runs": points,
    }
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "BENCH_runner.json")
    trajectory: List[dict] = []
    if os.path.exists(path):
        with open(path) as fh:
            trajectory = json.load(fh)
    trajectory.append(point)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")

    lines = [
        f"campaign scheduler perf: {len(CIRCUITS)} Table-I circuits, "
        f"process isolation, {cpus} effective CPU(s)"
    ]
    for pt in points:
        enforced = pt["jobs"] <= 1 or cpus >= pt["jobs"]
        floor = (
            f" (floor {pt['min_speedup']:.1f}x"
            f"{'' if enforced else ', not enforced: too few CPUs'})"
            if pt["min_speedup"] else ""
        )
        lines.append(
            f"  jobs={pt['jobs']}: {pt['wall_seconds']:.2f}s wall -> "
            f"{pt['speedup']:.2f}x, peak_in_flight="
            f"{pt['peak_in_flight']}{floor}"
        )
    emit_report("BENCH_runner", "\n".join(lines))

    for pt in points:
        if pt["jobs"] <= 1 or cpus < pt["jobs"]:
            continue  # floor needs cores this machine does not have
        assert pt["speedup"] >= pt["min_speedup"], (
            f"jobs={pt['jobs']}: expected >= {pt['min_speedup']}x over "
            f"jobs=1 on a {cpus}-CPU machine, got {pt['speedup']:.2f}x"
        )
