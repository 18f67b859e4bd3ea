"""Supervision of stuck work: task timeouts and SAT abort reasons.

Two layers keep a hang-class failure — work that stops making progress
without dying — from wedging a campaign or silently skewing its numbers:

* the campaign runner's ``TaskSpec.timeout``: an attempt that overruns
  has its worker process killed, and the task is retried in a fresh
  interpreter.  Locked in here on a paper task: an ``analyze`` of
  sparc_tlu whose first attempt blocks inside fault simulation is
  killed at its timeout, and the retry's Table I row is that of a clean
  analysis;
* the per-fault SAT budget: every aborted decision carries the solver's
  reason (deadline / conflicts / decisions) through
  ``EngineStats.sat_abort_reasons`` into the degradation records and
  the rendered report.
"""

from __future__ import annotations

import os

from repro.atpg.budget import AtpgBudget
from repro.atpg.engine import run_atpg
from repro.bench.circuits import build_benchmark
from repro.core import analyze_design, table1_row
from repro.runner import CampaignSpec, Runner, TaskSpec, read_journal
from tests.conftest import (
    injected_sat_aborts,
    mixed_fault_list,
    random_mapped_circuit,
)

# ----------------------------------------------------------------------
# End-to-end: block in fault simulation, killed at the timeout, retried
# ----------------------------------------------------------------------

# Per-attempt timeout.  A clean sparc_tlu analysis takes well under a
# second in a fresh interpreter, so the retry never comes close.
HANG_TIMEOUT_S = 5.0

# Put first on a worker's PYTHONPATH (workers inherit the runner's
# environment): the first ``fault_simulate`` call of the ATPG engine in
# a process that finds the marker file removes it and blocks, for far
# longer than the timeout but not forever, so a runner that fails to
# kill the worker fails the test instead of hanging it.
_SITECUSTOMIZE = """\
import os
import time

import repro.atpg.engine as engine

_real = engine.fault_simulate


def fault_simulate(*args, **kwargs):
    if os.path.exists({marker!r}):
        os.remove({marker!r})
        time.sleep(60.0)
    return _real(*args, **kwargs)


engine.fault_simulate = fault_simulate
"""


def test_blocked_analysis_killed_and_retried(library, tmp_path, monkeypatch):
    marker = str(tmp_path / "block-once")
    hook_dir = tmp_path / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(marker=marker)
    )
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (str(hook_dir), os.environ.get("PYTHONPATH")) if p
    ))
    with open(marker, "w") as fh:
        fh.write("armed\n")
    root = str(tmp_path / "runs")
    campaign = CampaignSpec("blocked", [TaskSpec(
        "analyze:full:sparc_tlu", "analyze",
        {"circuit": "sparc_tlu", "scale": 1, "seed": 0, "variant": "full"},
        timeout=HANG_TIMEOUT_S, retries=1, backoff=0.0, isolation="process",
    )])
    report = Runner(campaign, root=root).execute()

    events = read_journal(os.path.join(root, "blocked", "journal.jsonl"))
    ends = [e for e in events if e.get("event") == "task_end"]
    assert [e["status"] for e in ends] == ["timeout", "ok"]
    assert "worker killed" in ends[0]["error"]
    assert not os.path.exists(marker)  # the first attempt did block
    assert report["status"] == "ok"
    clean = analyze_design(
        build_benchmark("sparc_tlu", library), library, seed=0, atpg_seed=0,
    )
    assert report["table1"] == [table1_row("sparc_tlu", clean)]


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
            reasons = result.stats.sat_abort_reasons
            assert set(reasons) == {"decisions"}
            assert sum(reasons.values()) == result.stats.sat_aborts
            assert any("decisions=" in record
                       for record in result.stats.degradations)

    def test_deadline_reason(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        result = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=AtpgBudget(deadline_ms=0.0),
        )
        if result.aborted:
            assert set(result.stats.sat_abort_reasons) <= {"deadline"}
            assert any("deadline=" in record
                       for record in result.stats.degradations)

    def test_injected_reason(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        with injected_sat_aborts(calls=frozenset(range(64))):
            result = run_atpg(
                circuit, cells, list(faults), seed=5, random_rounds=2,
            )
        if result.aborted:
            assert set(result.stats.sat_abort_reasons) <= {"injected"}

    def test_clean_run_has_no_reasons(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        result = run_atpg(circuit, cells, list(faults), seed=5,
                          random_rounds=2)
        assert result.stats.sat_aborts == 0
        assert result.stats.sat_abort_reasons == {}

    def test_analyze_task_reasons_count_decisions(self, tmp_path,
                                                  monkeypatch):
        """An ``analyze`` task's ``abort_reasons`` counts aborted SAT
        decisions, as a ``resynthesize`` task's does, so it sums to the
        payload's ``sat_aborts`` and not to its aborted member faults."""
        from repro.runner.registry import TaskContext, get_task

        monkeypatch.setenv("REPRO_ATPG_CONFLICT_BUDGET", "2")
        payload = get_task("analyze")(
            {"circuit": "sparc_tlu", "scale": 1, "seed": 0,
             "variant": "full"},
            TaskContext(run_dir=str(tmp_path), task_id="analyze:x"),
        )
        degradation = payload["degradation"]
        sat_aborts = payload["engine"]["sat_aborts"]
        # The budget leaves aborted classes of several faults, so the
        # two counts differ.
        assert degradation["aborted_faults"] != sat_aborts
        assert sum(degradation["abort_reasons"].values()) == sat_aborts > 0

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
        report = build_report({}, "run-x", outcomes)
        assert report["degradations"]["analyze:full:x"]["abort_reasons"] \
            == {"deadline": 2, "conflicts": 1}
        rendered = render_report(report)
        assert "abort_reasons[deadline]=2" in rendered
        assert "abort_reasons[conflicts]=1" in rendered
        # A wall-clock fact: normalization strips it so straight and
        # resumed runs still compare byte-for-byte.
        normalized = normalize_report(report)
        assert "abort_reasons" not in normalized["degradations"][
            "analyze:full:x"]
