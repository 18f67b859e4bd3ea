"""Supervision of stuck work: task timeouts and SAT abort reasons.

Two layers keep a hang-class failure — work that stops making progress
without dying — from wedging a campaign or silently skewing its numbers:

* the campaign runner's ``TaskSpec.timeout``: an attempt that overruns
  is given up on (a process-isolated worker is killed; an inline worker
  thread is abandoned, journaled as ``RUN-THREAD-ABANDONED``) and the
  task is retried.  Locked in here on every bundled benchmark circuit: a
  task whose first attempt hangs mid-simulation — after it has built the
  circuit's plan and filled its shared caches — is retried, and the
  retry's detect words are bit-identical to a clean serial run's;
* the per-fault SAT budget: every abort carries the solver's reason
  (deadline / conflicts / decisions) through ``AtpgResult.abort_reasons``
  into the degradation records and the rendered report.
"""

from __future__ import annotations

import threading

import pytest

from repro.atpg.budget import AtpgBudget
from repro.atpg.engine import run_atpg
from repro.bench.circuits import BENCHMARKS, build_benchmark
from repro.faults.fsim import PatternBatch, fault_simulate
from repro.runner import CampaignSpec, Runner, TaskSpec, read_journal
from repro.runner.executor import CODE_THREAD_ABANDONED
from repro.runner.registry import task
from tests.conftest import (
    injected_sat_aborts,
    mixed_fault_list,
    random_mapped_circuit,
)

# ----------------------------------------------------------------------
# End-to-end: hang, give up at the timeout, retry — bit-identical on
# every bundled benchmark
# ----------------------------------------------------------------------

# Per-attempt timeout.  The whole simulation takes a few tens of
# milliseconds on the largest benchmark, so a retry never comes close.
HANG_TIMEOUT_S = 0.5

# name -> (circuit, cells, faults, batch, events) for the running test.
_WORKLOADS = {}


@task("fsim_hang_once")
def _fsim_hang_once(params, ctx):
    """Detect words of a benchmark workload; the first attempt hangs.

    Before hanging, the first attempt simulates half the faults, so the
    retry runs against a plan and good-value cache that the abandoned
    attempt built and still holds.
    """
    circuit, cells, faults, batch, events = _WORKLOADS[params["name"]]
    if ctx.attempt == 1:
        try:
            fault_simulate(circuit, cells, faults[: len(faults) // 2], batch)
            events["hung"].set()
            events["release"].wait(60.0)
            raise RuntimeError("hung attempt released")
        finally:
            events["done"].set()
    words = fault_simulate(circuit, cells, faults, batch)
    return {"words": words}


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_hung_worker_reaped_and_retried_bit_identical(
    cells, library, name, tmp_path
):
    """The task runs inline, where a hung worker thread cannot be killed:
    it is abandoned at the timeout and left blocked while the retry runs
    on the same circuit object."""
    # A cold circuit: the hung attempt is the first to touch its plan.
    circuit = build_benchmark(name, library)
    faults = mixed_fault_list(circuit, library, seed=0, per_kind=5)
    batch = PatternBatch.random(circuit, 150, seed=0)

    events = {k: threading.Event() for k in ("hung", "release", "done")}
    _WORKLOADS[name] = (circuit, cells, faults, batch, events)
    root = str(tmp_path)
    campaign = CampaignSpec(f"hung-{name}", [TaskSpec(
        "sim", "fsim_hang_once", {"name": name},
        timeout=HANG_TIMEOUT_S, retries=2, backoff=0.0,
    )])
    try:
        report = Runner(campaign, root=root, sleep=lambda _s: None).execute()
    finally:
        events["release"].set()
        # The abandoned attempt unblocks and exits before the next test.
        assert events["done"].wait(60.0)
        del _WORKLOADS[name]

    # The reference: a clean serial run on an independent build.
    reference = build_benchmark(name, library)
    serial = fault_simulate(reference, cells, faults, batch)
    assert events["hung"].is_set()
    assert report["status"] == "ok"
    assert report["results"]["sim"]["words"] == serial
    assert report["runtime_warnings"][CODE_THREAD_ABANDONED] >= 1
    journal = tmp_path / f"hung-{name}" / "journal.jsonl"
    ends = [
        e["status"] for e in read_journal(str(journal))
        if e.get("event") == "task_end"
    ]
    assert ends[0] == "timeout"
    assert ends[-1] == "ok"


# ----------------------------------------------------------------------
# Abort reasons: which budget tripped, end to end
# ----------------------------------------------------------------------

def _abort_scenario(cells, library):
    circuit = random_mapped_circuit(cells, n_pi=6, n_gates=24, n_po=6,
                                    seed=3)
    faults = mixed_fault_list(circuit, library, seed=3, per_kind=6)
    return circuit, faults


class TestAbortReasons:
    def test_decision_budget_reason(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        result = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=AtpgBudget(decision_budget=0),
        )
        if result.aborted:
            assert set(result.abort_reasons) == result.aborted
            assert set(result.abort_reasons.values()) <= {"decisions"}
            assert result.stats.sat_abort_reasons.get("decisions", 0) > 0
            assert any("decisions=" in record
                       for record in result.stats.degradations)

    def test_deadline_reason(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        result = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=AtpgBudget(deadline_ms=0.0),
        )
        if result.aborted:
            assert set(result.abort_reasons.values()) <= {"deadline"}
            assert any("deadline=" in record
                       for record in result.stats.degradations)

    def test_injected_reason(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        with injected_sat_aborts(calls=frozenset(range(64))):
            result = run_atpg(
                circuit, cells, list(faults), seed=5, random_rounds=2,
            )
        if result.aborted:
            assert set(result.abort_reasons.values()) <= {"injected"}

    def test_clean_run_has_no_reasons(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        result = run_atpg(circuit, cells, list(faults), seed=5,
                          random_rounds=2)
        assert result.abort_reasons == {}
        assert result.stats.sat_abort_reasons == {}

    def test_reasons_reach_report_degradations(self):
        from repro.runner.report import (
            build_report,
            normalize_report,
            render_report,
        )

        outcomes = {
            "analyze:full:x": {
                "kind": "analyze", "status": "ok", "duration": 1.0,
                "attempts": 1,
                "payload": {
                    "degradation": {
                        "aborted_faults": 3,
                        "abort_reasons": {"deadline": 2, "conflicts": 1},
                        "records": ["r1"],
                    },
                },
            },
        }
        report = build_report(
            {}, "run-x", outcomes,
            runtime_warnings={"RUN-THREAD-ABANDONED": 1},
        )
        assert report["degradations"]["analyze:full:x"]["abort_reasons"] \
            == {"deadline": 2, "conflicts": 1}
        assert report["runtime_warnings"] == {"RUN-THREAD-ABANDONED": 1}
        rendered = render_report(report)
        assert "abort_reasons[deadline]=2" in rendered
        assert "abort_reasons[conflicts]=1" in rendered
        assert "RUN-THREAD-ABANDONED" in rendered
        # Both are wall-clock facts: normalization strips them so
        # straight and resumed runs still compare byte-for-byte.
        normalized = normalize_report(report)
        assert "runtime_warnings" not in normalized
        assert "abort_reasons" not in normalized["degradations"][
            "analyze:full:x"]
