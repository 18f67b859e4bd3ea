"""Injected failures: every degradation is explicit, never silent.

The tests inject each failure themselves (see ``tests/conftest.py``)
and check its safety invariant:

* SAT aborts (``injected_sat_aborts`` patches ``Solver.solve``):
  verdicts stay a partition of F, the undetectable set only shrinks
  relative to a clean run, and the aborts surface in the stats (see
  also tests/test_verdicts.py);
* a crash mid-analysis (``fail_analysis_once`` patches fault
  extraction): the exception propagates — a half-analyzed state is
  never returned — and under the orchestrator it becomes an explicit
  failed task in the journal and report;
* worker death: the orchestrator SIGKILL + resume path (exercised in
  tests/test_runner.py and the CI crash-resume job) journals the
  interruption and never re-executes completed work.
"""

from __future__ import annotations

import pytest

from repro.atpg import run_atpg
from repro.core import analyze_design
from tests.conftest import (
    InjectedFailure,
    fail_analysis_once,
    injected_sat_aborts,
    mixed_fault_list,
)


class TestAnalyzeFailure:
    def test_analyze_design_raises_not_returns(
        self, adder4, library, monkeypatch
    ):
        seen = fail_analysis_once(monkeypatch)
        with pytest.raises(InjectedFailure, match="fault extraction"):
            analyze_design(adder4, library)
        assert seen.injected == 1
        # Later analyses in the same process succeed (the injected
        # failure is a one-shot, like a real transient crash).
        state = analyze_design(adder4, library)
        assert state.n_faults > 0
        assert not state.degraded

    def test_runner_journals_analyze_failure(self, tmp_path, monkeypatch):
        """Under the orchestrator a crash is an explicit task failure."""
        from repro.runner import CampaignSpec, Runner, TaskSpec, read_journal

        # A task kind that runs a real (tiny) analysis.
        from repro.runner.registry import task

        @task("crash_analyze")
        def crash_analyze(params, ctx):  # noqa: ANN001
            from repro.library import osu018_library
            from repro.netlist import Circuit

            c = Circuit("t")
            c.add_input("a")
            c.add_input("b")
            c.add_gate("u1", "NAND2X1", {"A": "a", "B": "b"}, "y")
            c.set_outputs(["y"])
            state = analyze_design(c, osu018_library())
            return {"faults": state.n_faults}

        campaign = CampaignSpec(run_id="crash-run", tasks=[
            TaskSpec("t1", "crash_analyze", {}),
        ])
        fail_analysis_once(monkeypatch)
        report = Runner(campaign, root=str(tmp_path)).execute()
        assert report["status"] == "failed"
        assert report["tasks"]["t1"]["status"] == "failed"
        events = read_journal(
            str(tmp_path / "crash-run" / "journal.jsonl")
        )
        failures = [
            e for e in events
            if e.get("event") == "task_end" and e.get("status") == "failed"
        ]
        assert failures, "the injected failure must be journaled explicitly"
        assert any("InjectedFailure" in str(e) for e in failures)


class TestSatAbortChaos:
    def test_rate_one_aborts_every_sat_decision(self, adder4, cells, library):
        faults = mixed_fault_list(adder4, library, seed=2, per_kind=5)
        clean = run_atpg(adder4, cells, list(faults), seed=9, random_rounds=0)
        with injected_sat_aborts(rate=1.0) as seen:
            aborted = run_atpg(
                adder4, cells, list(faults), seed=9, random_rounds=0,
            )
        assert seen.injected > 0
        assert seen.injected == seen.calls
        # Nothing was proved undetectable — every undetectability claim
        # requires a completed UNSAT proof.
        assert aborted.undetectable == set()
        assert aborted.undetectable <= clean.undetectable
        all_ids = {f.fault_id for f in faults}
        assert aborted.detected | aborted.aborted == all_ids
        assert aborted.stats.sat_aborts > 0
        assert aborted.stats.degradations

    def test_seeded_rate_is_reproducible(self, adder4, cells, library):
        faults = mixed_fault_list(adder4, library, seed=2, per_kind=5)
        runs = []
        for _ in range(2):
            with injected_sat_aborts(rate=0.5, seed=11):
                runs.append(run_atpg(
                    adder4, cells, list(faults), seed=9, random_rounds=0,
                ))
        assert runs[0].detected == runs[1].detected
        assert runs[0].undetectable == runs[1].undetectable
        assert runs[0].aborted == runs[1].aborted
