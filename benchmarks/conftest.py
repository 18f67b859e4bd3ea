"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper.  All
expensive computations (full design flow + exact ATPG + resynthesis) are
driven through the experiment orchestrator (:mod:`repro.runner`): every
analysis/resynthesis runs as a journaled task of one per-session run
under ``benchmarks/results/runs/<run_id>/``, so an interrupted benchmark
session leaves a resumable journal behind and the tests can assert on
what was durably recorded, not just on in-memory objects.  Rich result
objects (``DesignState`` / ``ResynthesisResult``) come back via the
runner's in-process store; Table rows come from the journaled payloads.

Environment knobs (all optional):

* ``REPRO_BENCH_CIRCUITS`` — comma-separated subset of benchmark names
  for Table I / Table II (default: the paper's full list).
* ``REPRO_QMAX`` — q sweep bound for Table II (default 3; paper uses 5).
* ``REPRO_MAX_ITER`` — per-phase iteration cap (default 6).
* ``REPRO_SCALE`` — benchmark circuit scale factor (default 1).
* ``REPRO_RUN_ID`` — fixed run id for the orchestrator run (default:
  ``bench-<epoch>-<pid>``).
"""

from __future__ import annotations

import os
import time
from typing import List, Optional

import pytest

from repro.core import DesignState, ResynthesisResult
from repro.library import Library, osu018_library
from repro.runner import Runner, TaskSpec, read_journal
from repro.runner.model import CampaignSpec

_LIBRARY: Library | None = None
_RUNNER: Runner | None = None

RUNS_ROOT = os.path.join(os.path.dirname(__file__), "results", "runs")


def get_library() -> Library:
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = osu018_library()
    return _LIBRARY


def bench_scale() -> int:
    return int(os.environ.get("REPRO_SCALE", "1"))


def bench_circuits(default: list) -> list:
    raw = os.environ.get("REPRO_BENCH_CIRCUITS")
    if not raw:
        return default
    return [name.strip() for name in raw.split(",") if name.strip()]


# ----------------------------------------------------------------------
# Orchestrated execution: one runner per pytest session
# ----------------------------------------------------------------------

def bench_runner() -> Runner:
    """The session's orchestrator run (created on first use)."""
    global _RUNNER
    if _RUNNER is None:
        run_id = os.environ.get("REPRO_RUN_ID") or (
            f"bench-{int(time.time())}-{os.getpid()}"
        )
        campaign = CampaignSpec(
            run_id=run_id,
            meta={"kind": "pytest-bench", "scale": bench_scale()},
        )
        _RUNNER = Runner(campaign, root=RUNS_ROOT, store={})
    return _RUNNER


def _run_task(task_id: str, kind: str, params: dict):
    runner = bench_runner()
    outcome = runner.outcomes.get(task_id)
    if outcome is None:
        outcome = runner.execute_spec(
            TaskSpec(task_id=task_id, kind=kind, params=params)
        )
    if not outcome.ok:
        raise RuntimeError(f"task {task_id} failed: {outcome.error}")
    return outcome


def _analyze_params(name: str) -> dict:
    return {"circuit": name, "scale": bench_scale(), "variant": "full"}


def _resynthesize_params(name: str) -> dict:
    return {
        **_analyze_params(name),
        "q_max": int(os.environ.get("REPRO_QMAX", "3")),
        "max_iterations_per_phase": int(
            os.environ.get("REPRO_MAX_ITER", "6")
        ),
    }


def get_analysis(name: str) -> DesignState:
    """Design-flow analysis of one benchmark (journaled, cached)."""
    store = bench_runner().store
    key = f"analysis:full:{name}"
    if key not in store:  # a prior resynthesis seeds its original design
        _run_task(f"analyze:full:{name}", "analyze", _analyze_params(name))
    return store[key]


def get_resynthesis(name: str) -> ResynthesisResult:
    """Full two-phase resynthesis of one benchmark (journaled, cached)."""
    store = bench_runner().store
    key = f"resynthesis:full:{name}"
    if key not in store:
        _run_task(
            f"resynthesize:full:{name}", "resynthesize",
            _resynthesize_params(name),
        )
    return store[key]


def get_table1_row(name: str) -> dict:
    """The Table I row the orchestrator journaled for *name*."""
    outcomes = bench_runner().outcomes
    outcome = outcomes.get(f"analyze:full:{name}")
    if outcome is not None and outcome.ok:
        return outcome.payload["row"]
    outcome = outcomes[f"resynthesize:full:{name}"]
    return outcome.payload["original_row"]


def get_table2_rows(name: str) -> List[dict]:
    """The Table II row pair the orchestrator journaled for *name*."""
    return bench_runner().outcomes[f"resynthesize:full:{name}"].payload["rows"]


def journal_payload(task_id: str) -> Optional[dict]:
    """The payload durably recorded in the on-disk journal for a task."""
    runner = bench_runner()
    payload = None
    for event in read_journal(runner.journal_path):
        if (
            event.get("event") == "task_end"
            and event.get("task") == task_id
            and event.get("status") == "ok"
        ):
            payload = event.get("payload")
    return payload


@pytest.fixture(scope="session")
def library():
    return get_library()


# ----------------------------------------------------------------------
# Report collection: benchmark tables are printed inside tests (captured
# by pytest) *and* echoed in the terminal summary + written to
# benchmarks/results/, so `pytest benchmarks/ --benchmark-only | tee ...`
# preserves them.
# ----------------------------------------------------------------------
_REPORTS: list = []


def emit_report(name: str, text: str) -> None:
    """Print a report table and remember it for the session summary."""
    print()
    print(text)
    _REPORTS.append((name, text))
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _RUNNER is not None and _RUNNER.outcomes:
        _RUNNER.finalize()
        terminalreporter.section("orchestrator run")
        terminalreporter.write_line(
            f"run {_RUNNER.campaign.run_id}: journal + report under "
            f"{_RUNNER.run_dir}"
        )
        terminalreporter.write_line(
            f"inspect with: python -m repro.runner report "
            f"{_RUNNER.campaign.run_id} --out {RUNS_ROOT}"
        )
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction reports")
    for name, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"===== {name} =====")
        for line in text.splitlines():
            terminalreporter.write_line(line)
