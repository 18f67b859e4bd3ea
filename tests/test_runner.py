"""Tests for the crash-robust experiment orchestrator.

The contract under test: every task boundary is journaled durably, a
SIGKILL at any point loses at most the task that was running, and
``resume`` re-executes only tasks that are missing, failed, or whose
input fingerprint changed — never completed ones.  The final report of
an interrupted-then-resumed campaign must normalize byte-identically to
a straight-through run's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.runner import (
    CampaignSpec,
    Runner,
    TaskSpec,
    normalize_report,
    read_journal,
    replay,
    resume,
    run_campaign,
)
from repro.runner.journal import (
    Journal,
    JournalError,
    verify_resume_discipline,
)
from repro.runner.model import CampaignError, fingerprint_task
from repro.runner.report import build_report, load_report
from repro.utils.observability import EngineStats

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

posix_only = pytest.mark.skipif(
    os.name != "posix", reason="SIGKILL semantics are POSIX-only"
)


def sum_campaign(run_id, **overrides):
    """Three independent tasks a=1, b=2, c=3."""
    policy = {
        k: overrides[k]
        for k in ("timeout", "retries", "backoff", "isolation")
        if k in overrides
    }
    return CampaignSpec(run_id=run_id, tasks=[
        TaskSpec("a", "sum", {"value": 1}, **policy),
        TaskSpec("b", "sum", {"value": 2}, **policy),
        TaskSpec("c", "sum", {"value": 3}, **policy),
    ], meta={"kind": "synthetic"})


def events_of(root, run_id):
    return read_journal(os.path.join(root, run_id, "journal.jsonl"))


def starts_of(events, task_id):
    return [
        e for e in events
        if e.get("event") == "task_start" and e.get("task") == task_id
    ]


# ----------------------------------------------------------------------
# Campaign validation
# ----------------------------------------------------------------------

class TestCampaignValidation:
    def test_duplicate_ids_rejected(self, tmp_path):
        c = CampaignSpec("r", [TaskSpec("a", "sum"), TaskSpec("a", "sum")])
        with pytest.raises(CampaignError, match="duplicate"):
            Runner(c, root=str(tmp_path)).execute()
        assert not os.path.exists(os.path.join(str(tmp_path), "r"))

    def test_unknown_dep_rejected(self, tmp_path):
        """Campaign tasks are independent: a file that names any
        dependency is rejected on load, while the empty lists that files
        of earlier revisions carry still load."""
        path = str(tmp_path / "campaign.json")

        def load(deps):
            with open(path, "w") as fh:
                json.dump({"run_id": "r", "tasks": [
                    {"id": "a", "kind": "sum", "deps": deps},
                ]}, fh)
            return CampaignSpec.load(path)

        assert load([]).tasks == [TaskSpec("a", "sum")]
        with pytest.raises(CampaignError, match="task a: .*deps"):
            load(["ghost"])

    def test_bad_isolation_rejected(self):
        with pytest.raises(CampaignError, match="isolation"):
            TaskSpec("a", "sum", isolation="thread")

    @pytest.mark.parametrize("policy, message", [
        ({"timeout": 0}, "timeout"),
        ({"timeout": -1.0}, "timeout"),
        ({"timeout": float("nan")}, "timeout"),
        ({"timeout": float("inf")}, "timeout"),
        ({"timeout": "5"}, "timeout"),
        ({"timeout": True}, "timeout"),
        ({"backoff": -1}, "backoff"),
        ({"backoff": float("nan")}, "backoff"),
        ({"backoff": "1"}, "backoff"),
        ({"retries": -1}, "retries"),
        ({"retries": 1.5}, "retries"),
        ({"retries": True}, "retries"),
        ({"retries": "2"}, "retries"),
    ], ids=["timeout-zero", "timeout-negative", "timeout-nan",
            "timeout-inf", "timeout-string", "timeout-bool",
            "backoff-negative", "backoff-nan", "backoff-string",
            "retries-negative", "retries-float", "retries-bool",
            "retries-string"])
    def test_bad_execution_policy_rejected(self, policy, message):
        with pytest.raises(CampaignError, match=f"task a: {message}"):
            TaskSpec("a", "sum", isolation="process", **policy)

    def test_roundtrips_through_json(self, tmp_path):
        c = sum_campaign("rt")
        path = str(tmp_path / "campaign.json")
        c.save(path)
        loaded = CampaignSpec.load(path)
        assert loaded.to_json() == c.to_json()


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

class TestFingerprints:
    def test_param_change_changes_fingerprint(self):
        a1 = fingerprint_task(TaskSpec("a", "sum", {"value": 1}), env={})
        a2 = fingerprint_task(TaskSpec("a", "sum", {"value": 2}), env={})
        assert a1 != a2

    def test_env_knob_changes_fingerprint(self):
        spec = TaskSpec("a", "sum", {"value": 1})
        f1 = fingerprint_task(spec, env={})
        # No task reads REPRO_SCALE (the benchmark harness turns it into
        # a task param), so it leaves the fingerprint alone.
        assert fingerprint_task(spec, env={"REPRO_SCALE": "2"}) == f1
        # The ATPG budget decides which faults abort, so each of its
        # knobs changes what an analysis reports.
        for knob in (
            "REPRO_ATPG_DEADLINE_MS",
            "REPRO_ATPG_CONFLICT_BUDGET",
            "REPRO_ATPG_DECISION_BUDGET",
            "REPRO_ATPG_ABORT_FRACTION",
        ):
            assert fingerprint_task(spec, env={knob: "2"}) != f1, knob

    def test_paper_task_fingerprints_are_stable(self):
        """Golden fingerprints of the paper sweep's task kinds.

        Journaled runs stay resumable with zero re-execution only while
        these values hold; a change here invalidates every such run.
        """
        from repro.runner.model import fingerprint_campaign
        from repro.runner.tasks import paper_campaign

        fps = {}
        for tables in ((1,), (1, 2)):
            fps.update(fingerprint_campaign(
                paper_campaign(["sparc_tlu"], "golden", tables=tables),
                env={},
            ))
        assert fps == {
            "analyze:full:sparc_tlu": "sha256:5b32b69628bd0f9e27e9c63f586d8"
                                      "cf028d8067e6a47dc371a6cfaeaa470ee7f",
            "resynthesize:full:sparc_tlu": "sha256:5fcfa89817e5b32d1b33c01"
                                           "957bbafa4151c61f070355a7c0ef99"
                                           "ad380d3411f",
        }


# ----------------------------------------------------------------------
# Straight-through execution + journal shape
# ----------------------------------------------------------------------

class TestExecution:
    def test_dag_runs_in_order_and_reports(self, tmp_path):
        root = str(tmp_path)
        report = run_campaign(sum_campaign("ok"), root=root)
        assert report["status"] == "ok"
        assert [report["results"][t]["value"] for t in "abc"] == [1, 2, 3]
        assert set(report["tasks"]) == {"a", "b", "c"}
        # report.json was written and matches the journaled report
        assert load_report(os.path.join(root, "ok")) == report

    def test_journal_is_valid_jsonl(self, tmp_path):
        root = str(tmp_path)
        run_campaign(sum_campaign("jl"), root=root)
        path = os.path.join(root, "jl", "journal.jsonl")
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        events = [json.loads(ln) for ln in lines]  # every line parses
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("task_start") == kinds.count("task_end") == 3
        assert all("ts" in e for e in events)
        ok_ends = [e for e in events if e["event"] == "task_end"]
        assert all(e["status"] == "ok" and "fingerprint" in e
                   for e in ok_ends)

    def test_incremental_execute_spec(self, tmp_path):
        root = str(tmp_path)
        runner = Runner(CampaignSpec("inc"), root=root, store={})
        out_a = runner.execute_spec(TaskSpec("a", "sum", {"value": 4}))
        out_b = runner.execute_spec(TaskSpec("b", "sum", {"value": 1}))
        assert out_a.payload["value"] == 4
        assert out_b.payload["value"] == 1
        report = runner.finalize()
        assert report["status"] == "ok"
        # The campaign file accreted both tasks (the run is resumable).
        loaded = CampaignSpec.load(
            os.path.join(root, "inc", "campaign.json")
        )
        assert [t.task_id for t in loaded.tasks] == ["a", "b"]

    def test_execute_spec_rejects_before_appending(self, tmp_path):
        """A task that fails its check is not written into the campaign
        file, so the run still resumes."""
        root = str(tmp_path)
        runner = Runner(CampaignSpec("inc"), root=root)
        assert runner.execute_spec(TaskSpec("a", "sum", {"value": 1})).ok
        with pytest.raises(CampaignError, match="cannot build circuit"):
            runner.execute_spec(TaskSpec(
                "analyze:full:nope", "analyze", {"circuit": "nope"},
            ))
        runner.finalize()
        loaded = CampaignSpec.load(os.path.join(root, "inc", "campaign.json"))
        assert [t.task_id for t in loaded.tasks] == ["a"]
        assert resume("inc", root=root)["status"] == "ok"


# ----------------------------------------------------------------------
# Timeouts, retries, backoff
# ----------------------------------------------------------------------

class TestRetries:
    def test_hanging_task_times_out_with_bounded_retries(self, tmp_path):
        root = str(tmp_path)
        naps = []
        c = CampaignSpec("hang", [TaskSpec(
            "h", "hang", {"seconds": 60},
            timeout=0.3, retries=2, backoff=0.01, isolation="process",
        )])
        runner = Runner(c, root=root, sleep=naps.append)
        t0 = time.perf_counter()
        report = runner.execute()
        wall = time.perf_counter() - t0
        assert report["status"] == "failed"
        assert wall < 30  # three bounded attempts, not 60s hangs
        events = events_of(root, "hang")
        assert len(starts_of(events, "h")) == 3  # 1 try + 2 retries
        retries = [e for e in events if e["event"] == "task_retry"]
        assert [e["next_attempt"] for e in retries] == [2, 3]
        ends = [e for e in events if e["event"] == "task_end"]
        assert [e["status"] for e in ends] == ["timeout"] * 3
        # exponential backoff: base, then doubled
        assert naps == [0.01, 0.02]
        assert [e["backoff"] for e in retries] == [0.01, 0.02]

    def test_inline_timeout(self, tmp_path):
        """A timeout is enforced by killing the task's worker process,
        so an inline task cannot take one: its campaign is rejected
        before a run directory exists."""
        with pytest.raises(CampaignError, match="task h: .*'process'"):
            TaskSpec("h", "hang", {"seconds": 60}, timeout=0.2)
        root = str(tmp_path / "runs")
        proc = _cli(["run", "--circuits", "sparc_tlu", "--tables", "1",
                     "--timeout", "5", "--run-id", "it", "--out", root],
                    cwd=str(tmp_path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith(
            "error: task analyze:full:sparc_tlu: a timeout needs"
        )
        assert not os.path.exists(root)

    def test_process_attempts_leave_no_scratch_files(self, tmp_path):
        """Each process attempt's in/out files go once its outcome is
        known: a failed, a timed-out and a successful task leave
        nothing under tmp/."""
        root = str(tmp_path)
        c = CampaignSpec("scratch", [
            TaskSpec("bad", "flaky", {"fail_times": 99}, retries=1,
                     backoff=0.0, isolation="process"),
            TaskSpec("stuck", "hang", {"seconds": 60}, timeout=0.5,
                     isolation="process"),
            TaskSpec("good", "sum", {"value": 4}, isolation="process"),
        ])
        report = Runner(c, root=root).execute()
        assert report["tasks"]["bad"]["status"] == "failed"
        assert report["tasks"]["stuck"]["status"] == "timeout"
        assert report["results"]["good"] == {"value": 4}
        assert os.listdir(os.path.join(root, "scratch", "tmp")) == []

    def test_flaky_task_retries_then_succeeds(self, tmp_path):
        root = str(tmp_path)
        c = CampaignSpec("fl", [TaskSpec(
            "f", "flaky", {"fail_times": 2, "value": 9},
            retries=3, backoff=0.01,
        )])
        report = Runner(c, root=root, sleep=lambda _s: None).execute()
        assert report["status"] == "ok"
        assert report["results"]["f"]["value"] == 9
        events = events_of(root, "fl")
        assert len(starts_of(events, "f")) == 3  # failed, failed, ok
        assert events_of(root, "fl")[-1]["status"] == "ok"

    def test_failed_task_is_retried_on_resume(self, tmp_path):
        root = str(tmp_path)
        c = CampaignSpec("fr", [
            TaskSpec("f", "flaky", {"fail_times": 1, "value": 3}),
        ])
        report = Runner(c, root=root).execute()
        assert report["status"] == "failed"
        report = resume("fr", root=root)
        assert report["status"] == "ok"
        assert report["results"]["f"]["value"] == 3


# ----------------------------------------------------------------------
# Worker interpreters: one per pool lane
# ----------------------------------------------------------------------

@pytest.fixture
def workers(monkeypatch):
    """Every worker interpreter the runner starts, in start order."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def task_ends(root, run_id):
    return [e for e in events_of(root, run_id) if e["event"] == "task_end"]


@posix_only
class TestLaneWorkers:
    """A process-isolated task runs in its pool lane's long-lived worker
    interpreter.  A worker that timed out, died, or started under other
    ATPG knobs is replaced at the lane's next attempt, and no worker
    outlives the run."""

    def test_one_worker_serves_a_lane(self, tmp_path, workers):
        root = str(tmp_path)
        report = Runner(
            sum_campaign("lane", isolation="process"), root=root, jobs=1,
        ).execute()
        assert report["status"] == "ok"
        assert [report["results"][t]["value"] for t in "abc"] == [1, 2, 3]
        assert len(workers) == 1
        assert workers[0].poll() == 0

    def test_timed_out_worker_is_replaced(self, tmp_path, workers):
        root = str(tmp_path)
        c = CampaignSpec("tl", [
            TaskSpec("stuck", "hang", {"seconds": 60}, timeout=0.5,
                     isolation="process"),
            TaskSpec("next", "sum", {"value": 7}, isolation="process"),
        ])
        report = Runner(c, root=root, jobs=1).execute()
        assert [e["status"] for e in task_ends(root, "tl")] == [
            "timeout", "ok"]
        assert report["results"]["next"] == {"value": 7}
        assert len(workers) == 2
        assert workers[0].poll() == -signal.SIGKILL
        assert workers[1].poll() == 0

    def test_dead_worker_is_replaced_for_the_retry(self, tmp_path, workers):
        root = str(tmp_path)
        c = CampaignSpec("ks", [TaskSpec(
            "boom", "kill_self", {"value": 5}, retries=1, backoff=0.0,
            isolation="process",
        )])
        report = Runner(c, root=root, jobs=1).execute()
        assert report["tasks"]["boom"]["status"] == "ok"
        assert report["tasks"]["boom"]["attempts"] == 2
        assert report["results"]["boom"]["survived"] is True
        first = task_ends(root, "ks")[0]
        assert first["status"] == "failed"
        assert first["error"] == (
            f"worker exited with code {-signal.SIGKILL} and wrote no result"
        )
        assert len(workers) == 2
        assert all(w.poll() is not None for w in workers)

    def test_knob_change_starts_a_fresh_worker(
        self, tmp_path, workers, monkeypatch
    ):
        """A worker keeps the ATPG knobs it started with, so a knob set
        between two ``execute_spec`` calls takes a fresh worker."""
        for knob in ("REPRO_ATPG_CONFLICT_BUDGET", "REPRO_ATPG_DEADLINE_MS",
                     "REPRO_ATPG_DECISION_BUDGET",
                     "REPRO_ATPG_ABORT_FRACTION"):
            monkeypatch.delenv(knob, raising=False)
        runner = Runner(CampaignSpec("knob"), root=str(tmp_path))
        params = {"circuit": "sparc_tlu", "scale": 1, "seed": 0,
                  "variant": "full"}
        clean = runner.execute_spec(TaskSpec(
            "analyze:full:sparc_tlu", "analyze", params,
            isolation="process",
        ))
        assert len(workers) == 1 and workers[0].poll() is None
        monkeypatch.setenv("REPRO_ATPG_CONFLICT_BUDGET", "2")
        budgeted = runner.execute_spec(TaskSpec(
            "analyze:budget:sparc_tlu", "analyze", params,
            isolation="process",
        ))
        assert clean.payload["row"]["Aborted"] == 0
        assert budgeted.payload["row"]["Aborted"] > 0
        assert len(workers) == 2
        assert workers[0].poll() == 0
        assert workers[1].poll() is None
        assert runner.finalize()["status"] == "ok"
        assert workers[1].poll() == 0


# ----------------------------------------------------------------------
# Resume semantics
# ----------------------------------------------------------------------

class TestResume:
    def test_resume_reruns_nothing_when_complete(self, tmp_path):
        root = str(tmp_path)
        first = run_campaign(sum_campaign("done"), root=root)
        second = resume("done", root=root)
        events = events_of(root, "done")
        assert sum(1 for e in events if e["event"] == "task_cached") == 3
        for task in ("a", "b", "c"):
            assert len(starts_of(events, task)) == 1
        assert verify_resume_discipline(events) == []
        assert normalize_report(first) == normalize_report(second)

    def test_fingerprint_change_reexecutes_cone(self, tmp_path, monkeypatch):
        root = str(tmp_path)
        monkeypatch.delenv("REPRO_ATPG_ABORT_FRACTION", raising=False)
        run_campaign(sum_campaign("fp"), root=root)
        # An env knob changed between runs: every task's fingerprint
        # changes, so resume re-executes instead of serving stale
        # results.
        monkeypatch.setenv("REPRO_ATPG_ABORT_FRACTION", "0.5")
        report = resume("fp", root=root)
        assert report["status"] == "ok"
        events = events_of(root, "fp")
        assert sum(1 for e in events if e["event"] == "task_cached") == 0
        for task in ("a", "b", "c"):
            assert len(starts_of(events, task)) == 2
        # Re-execution after a fingerprint change is legitimate.
        assert verify_resume_discipline(events) == []

    def test_unread_env_reuses_every_task(self, tmp_path, monkeypatch):
        """Variables the package does not read change no fingerprint, so
        a resume under them re-executes nothing."""
        root = str(tmp_path)
        unread = {
            "REPRO_SCALE": "3", "REPRO_QMAX": "5", "REPRO_MAX_ITER": "9",
            "REPRO_RUN_JOBS": "1", "REPRO_JOURNAL_FSYNC": "batch",
        }
        for knob in unread:
            monkeypatch.delenv(knob, raising=False)
        run_campaign(sum_campaign("unread"), root=root)
        before = len(events_of(root, "unread"))
        for knob, value in unread.items():
            monkeypatch.setenv(knob, value)
        report = resume("unread", root=root)
        assert report["status"] == "ok"
        events = events_of(root, "unread")[before:]
        assert sum(e["event"] == "task_cached" for e in events) == 3
        assert not [e for e in events if e["event"] == "task_start"]

    def test_atpg_budget_change_reexecutes_task(self, tmp_path, monkeypatch):
        """A row computed under an ATPG budget is not served once the
        budget is gone: the aborts it carries belong to that budget."""
        from repro.runner.tasks import paper_campaign

        root = str(tmp_path)
        task_id = "analyze:full:sparc_tlu"
        for knob in ("REPRO_ATPG_DEADLINE_MS", "REPRO_ATPG_DECISION_BUDGET",
                     "REPRO_ATPG_ABORT_FRACTION"):
            monkeypatch.delenv(knob, raising=False)
        monkeypatch.setenv("REPRO_ATPG_CONFLICT_BUDGET", "2")
        budgeted = Runner(
            paper_campaign(["sparc_tlu"], "budget", tables=(1,)), root=root,
        ).execute()
        assert budgeted["results"][task_id]["row"]["Aborted"] > 0
        monkeypatch.delenv("REPRO_ATPG_CONFLICT_BUDGET")
        report = resume("budget", root=root)
        assert report["status"] == "ok"
        events = events_of(root, "budget")
        assert not [e for e in events if e["event"] == "task_cached"]
        assert len(starts_of(events, task_id)) == 2
        assert report["results"][task_id]["row"]["Aborted"] == 0
        assert "degradation" not in report["results"][task_id]
        assert verify_resume_discipline(events) == []

    def test_truncated_tail_is_tolerated(self, tmp_path):
        root = str(tmp_path)
        run_campaign(sum_campaign("tr"), root=root)
        path = os.path.join(root, "tr", "journal.jsonl")
        whole = open(path).read()
        open(path, "w").write(whole + '{"event": "task_start", "ta')
        events = read_journal(path)  # partial final line ignored
        assert events[-1]["event"] == "run_end"

    def test_interior_corruption_raises(self, tmp_path):
        root = str(tmp_path)
        run_campaign(sum_campaign("co"), root=root)
        path = os.path.join(root, "co", "journal.jsonl")
        lines = open(path).read().splitlines()
        lines[1] = lines[1][:10]  # chop an interior line
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="malformed"):
            read_journal(path)

    def test_replay_marks_interrupted_tasks(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        j.append({"event": "run_start", "run_id": "x"})
        j.append({"event": "task_start", "task": "t", "attempt": 1,
                  "fingerprint": "sha256:f"})
        j.close()  # killed before task_end
        ledger = replay(read_journal(path))
        assert ledger.interrupted() == {"t"}
        assert ledger.completed("t", "sha256:f") is None


class TestLegacyReports:
    @staticmethod
    def _report(extra):
        engine = dict(EngineStats(faults_extracted=7).as_dict(), **extra)
        outcomes = {"analyze:full:x": {
            "kind": "analyze", "status": "ok", "duration": 1.0,
            "attempts": 1, "payload": {"engine": engine},
        }}
        return build_report({}, "run-x", outcomes)

    def test_faults_carried_is_dropped_by_normalization(self):
        """Reports written while internal faults were carried over
        between design states still diff clean against current ones."""
        old = self._report({"faults_carried": 5})
        assert old["results"]["analyze:full:x"]["engine"][
            "faults_carried"] == 5
        assert normalize_report(old) == normalize_report(self._report({}))

    def test_cache_counters_are_dropped_by_normalization(self):
        """Reports written while fault simulation kept a good-value cache
        and counted plan and evaluator cache traffic still diff clean
        against current ones."""
        deleted = (
            "good_simulations", "good_cache_hits", "plan_builds",
            "plan_cache_hits", "eval_compiles", "eval_cache_hits",
            "eval_cache_misses",
        )
        old = self._report({key: i + 1 for i, key in enumerate(deleted)})
        engine = old["results"]["analyze:full:x"]["engine"]
        assert all(engine[key] for key in deleted)
        assert normalize_report(old) == normalize_report(self._report({}))


# ----------------------------------------------------------------------
# Kill mid-run (the acceptance scenario)
# ----------------------------------------------------------------------

def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.runner", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@posix_only
class TestKillMidRun:
    def _campaign_file(self, tmp_path, run_id):
        spec = {
            "run_id": run_id,
            "meta": {"kind": "synthetic"},
            "tasks": [
                {"id": "a", "kind": "sum", "params": {"value": 1}},
                {"id": "boom", "kind": "kill_self", "params": {"value": 5}},
                {"id": "c", "kind": "sum", "params": {"value": 3}},
            ],
        }
        path = str(tmp_path / f"{run_id}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path

    def test_sigkill_then_resume_matches_straight_run(self, tmp_path):
        root = str(tmp_path / "runs")
        camp = self._campaign_file(tmp_path, "killed")

        # 1. The run is SIGKILLed from inside the "boom" task; one worker
        #    starts the tasks in file order.
        proc = _cli(["run", "--campaign", camp, "--out", root,
                     "--jobs", "1"], cwd=str(tmp_path))
        assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)

        # 2. The journal survived: "a" completed, "boom" started but
        #    never ended, nothing after it ran.
        events = events_of(root, "killed")
        ledger = replay(events)
        assert ledger.completed(
            "a", starts_of(events, "a")[0]["fingerprint"]
        ) is not None
        assert ledger.interrupted() == {"boom"}
        assert not starts_of(events, "c")

        # 3. Resume completes the campaign without re-running "a".
        proc = _cli(["resume", "killed", "--out", root], cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        events = events_of(root, "killed")
        assert len(starts_of(events, "a")) == 1
        assert verify_resume_discipline(events) == []

        # 4. `check` agrees from the outside.
        proc = _cli(["check", "killed", "--out", root], cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no completed task re-executed" in proc.stdout

        # 5. A straight-through run of the same campaign (kill disarmed
        #    by pre-planting the marker) reports byte-identically after
        #    normalization.
        camp2 = self._campaign_file(tmp_path, "straight")
        os.makedirs(os.path.join(root, "straight"), exist_ok=True)
        with open(os.path.join(root, "straight",
                               "killed-boom.marker"), "w") as fh:
            fh.write("armed\n")
        proc = _cli(["run", "--campaign", camp2, "--out", root],
                    cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr

        resumed = normalize_report(load_report(os.path.join(root, "killed")))
        straight = normalize_report(
            load_report(os.path.join(root, "straight"))
        )
        assert (
            json.dumps(resumed, sort_keys=True)
            == json.dumps(straight, sort_keys=True)
        )

        # 6. `diff` agrees from the outside.
        proc = _cli(["diff", "killed", "straight", "--out", root],
                    cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_kill_at_hook_via_cli(self, tmp_path):
        """--kill-at SIGKILLs right after the task_start is journaled."""
        root = str(tmp_path / "runs")
        spec = {
            "run_id": "hooked",
            "meta": {},
            "tasks": [
                {"id": "a", "kind": "sum", "params": {"value": 1}},
                {"id": "b", "kind": "sum", "params": {"value": 2}},
            ],
        }
        camp = str(tmp_path / "hooked.json")
        with open(camp, "w") as fh:
            json.dump(spec, fh)
        proc = _cli(
            ["run", "--campaign", camp, "--out", root, "--kill-at", "b",
             "--jobs", "1"],
            cwd=str(tmp_path),
        )
        assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)
        events = events_of(root, "hooked")
        ledger = replay(events)
        assert ledger.interrupted() == {"b"}
        proc = _cli(["resume", "hooked", "--out", root], cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = load_report(os.path.join(root, "hooked"))
        assert report["results"]["b"]["value"] == 2
        assert len(starts_of(events_of(root, "hooked"), "a")) == 1


class TestInvalidCampaignCli:
    """An invalid campaign is rejected before its run directory exists,
    so the run id stays free for a corrected campaign."""

    @pytest.mark.parametrize("task, message", [
        ({"id": "t", "kind": "no_such_kind"}, "unknown task kind"),
        ({"id": "t", "kind": "sum", "isolation": "thread"}, "isolation"),
        ({"id": "t", "kind": "sum", "deps": ["ghost"]}, "deps"),
        ({"id": "a", "kind": "sum"}, "duplicate task id"),
        ({"id": "t", "kind": "flaky", "retries": 1, "backoff": -1},
         "backoff"),
        ({"id": "t", "kind": "sum", "isolation": "process",
          "timeout": "5"}, "timeout"),
        ({"id": "t", "kind": "analyze", "params": {"circuit": "nope"}},
         "task t: cannot build circuit 'nope'"),
    ], ids=["unknown-kind", "bad-isolation", "deps", "duplicate-id",
            "negative-backoff", "string-timeout", "unknown-circuit"])
    def test_run_exits_2_without_run_dir(self, tmp_path, task, message):
        root = str(tmp_path / "runs")
        camp = str(tmp_path / "bad.json")
        with open(camp, "w") as fh:
            json.dump({"run_id": "bad", "tasks": [
                {"id": "a", "kind": "sum"}, task,
            ]}, fh)
        proc = _cli(["run", "--campaign", camp, "--out", root],
                    cwd=str(tmp_path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not os.path.exists(os.path.join(root, "bad"))

    def test_resume_unknown_run_exits_2_without_run_dir(self, tmp_path):
        root = str(tmp_path / "runs")
        proc = _cli(["resume", "nosuch", "--out", root], cwd=str(tmp_path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr == f"error: no run 'nosuch' under {root}\n"
        assert not os.path.exists(root)

    def test_resume_checks_every_task_before_journaling(self, tmp_path):
        """``resume`` checks the campaign as ``run`` does: a campaign
        that names a circuit which does not build exits 2, listing every
        bad task, and the run's journal is left as it was."""
        root = str(tmp_path / "runs")
        run_campaign(sum_campaign("stale"), root=root)
        campaign = CampaignSpec.load(
            os.path.join(root, "stale", "campaign.json")
        )
        for name in ("nope", "gone"):
            campaign.tasks.append(TaskSpec(
                f"analyze:full:{name}", "analyze", {"circuit": name},
            ))
        campaign.save(os.path.join(root, "stale", "campaign.json"))
        journal = os.path.join(root, "stale", "journal.jsonl")
        with open(journal, "rb") as fh:
            before = fh.read()
        proc = _cli(["resume", "stale", "--out", root], cwd=str(tmp_path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: campaign check found 2 ")
        assert "task analyze:full:nope: cannot build circuit 'nope'" \
            in proc.stderr
        assert "task analyze:full:gone: cannot build circuit 'gone'" \
            in proc.stderr
        assert "Traceback" not in proc.stderr
        with open(journal, "rb") as fh:
            assert fh.read() == before
