"""Tests for the concurrent campaign scheduler.

The contract under test: ``jobs>1`` changes *when* tasks run, never
*what* they compute — normalized reports are bit-identical to ``jobs=1``
runs, resume never re-executes completed work even when the orchestrator
is SIGKILLed mid-wave, and per-task timeouts bound stuck tasks without
stalling their peers.
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
)
from repro.runner.executor import resolve_run_jobs
from repro.runner.journal import Journal, verify_resume_discipline
from repro.runner.model import fingerprint_task

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

posix_only = pytest.mark.skipif(
    os.name != "posix", reason="SIGKILL semantics are POSIX-only"
)


def events_of(root, run_id):
    return read_journal(os.path.join(root, run_id, "journal.jsonl"))


def starts_of(events, task_id):
    return [
        e for e in events
        if e.get("event") == "task_start" and e.get("task") == task_id
    ]


def _norm(report):
    return json.dumps(normalize_report(report), sort_keys=True)


def fan_campaign(run_id, n=6, **policy):
    """n + 1 independent sum tasks: the leaves and a last "join" task."""
    tasks = [
        TaskSpec(f"leaf{i}", "sum", {"value": i + 1}, **policy)
        for i in range(n)
    ]
    tasks.append(TaskSpec("join", "sum", {"value": 100}, **policy))
    return CampaignSpec(run_id=run_id, tasks=tasks,
                        meta={"kind": "synthetic"})


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.runner", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


# ----------------------------------------------------------------------
# resolve_run_jobs
# ----------------------------------------------------------------------

class TestResolveRunJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_JOBS", "7")
        assert resolve_run_jobs(3) == 3

    def test_default_is_cpu_count(self):
        assert resolve_run_jobs() == max(1, os.cpu_count() or 1)

    def test_clamped_to_one(self):
        assert resolve_run_jobs(0) == 1
        assert resolve_run_jobs(-4) == 1


# ----------------------------------------------------------------------
# Fingerprints ignore performance knobs
# ----------------------------------------------------------------------

class TestPerfParamFingerprints:
    def test_result_params_still_fingerprinted(self):
        a = TaskSpec("t", "sum", {"value": 1})
        b = TaskSpec("t", "sum", {"value": 2})
        assert fingerprint_task(a) != fingerprint_task(b)

    def test_scheduler_knobs_are_observed_not_fingerprinted(self, monkeypatch):
        # The package reads neither name: setting them leaves every
        # fingerprint as it was.
        monkeypatch.setenv("REPRO_RUN_JOBS", "4")
        monkeypatch.setenv("REPRO_JOURNAL_FSYNC", "batch")
        spec = TaskSpec("t", "sum", {"value": 1})
        with_knobs = fingerprint_task(spec)
        monkeypatch.delenv("REPRO_RUN_JOBS")
        monkeypatch.delenv("REPRO_JOURNAL_FSYNC")
        assert fingerprint_task(spec) == with_knobs


# ----------------------------------------------------------------------
# Concurrent execution correctness
# ----------------------------------------------------------------------

class TestConcurrentExecution:
    def test_concurrent_report_matches_serial(self, tmp_path):
        root = str(tmp_path / "runs")
        serial = Runner(fan_campaign("serial"), root=root, jobs=1).execute()
        conc = Runner(fan_campaign("conc"), root=root, jobs=4).execute()
        assert _norm(serial) == _norm(conc)
        assert conc["results"]["join"]["value"] == 100
        assert conc["results"]["leaf5"]["value"] == 6

    def test_report_tasks_in_topo_order(self, tmp_path):
        # Campaign order, although the first task finishes last.
        root = str(tmp_path / "runs")
        campaign = CampaignSpec(run_id="topo", tasks=[
            TaskSpec(f"s{i}", "sleep", {"seconds": 0.4 if i == 0 else 0.0})
            for i in range(4)
        ], meta={"kind": "synthetic"})
        report = Runner(campaign, root=root, jobs=4).execute()
        ends = [e["task"] for e in events_of(root, "topo")
                if e["event"] == "task_end"]
        assert ends[0] != "s0"
        order = [t.task_id for t in campaign.tasks]
        assert list(report["tasks"]) == order
        assert list(report["results"]) == order

    def test_independent_tasks_overlap_wall_clock(self, tmp_path):
        root = str(tmp_path / "runs")
        campaign = CampaignSpec(run_id="overlap", tasks=[
            TaskSpec("s1", "sleep", {"seconds": 0.6}),
            TaskSpec("s2", "sleep", {"seconds": 0.6}),
        ], meta={"kind": "synthetic"})
        t0 = time.perf_counter()
        report = Runner(campaign, root=root, jobs=2).execute()
        elapsed = time.perf_counter() - t0
        assert report["status"] == "ok"
        assert elapsed < 1.1  # serial would need >= 1.2s

    def test_dep_failure_skips_dependents(self, tmp_path):
        # A failing task fails the run and leaves its peers ok.
        root = str(tmp_path / "runs")
        campaign = CampaignSpec(run_id="skip", tasks=[
            TaskSpec("ok", "sum", {"value": 1}),
            TaskSpec("bad", "flaky", {"fail_times": 99}),
            TaskSpec("child", "sum", {"value": 2}),
            TaskSpec("orphan", "sum", {"value": 3}),
        ], meta={"kind": "synthetic"})
        report = Runner(campaign, root=root, jobs=4).execute()
        assert report["status"] == "failed"
        assert report["tasks"]["bad"]["status"] == "failed"
        for peer, value in (("ok", 1), ("child", 2), ("orphan", 3)):
            assert report["tasks"][peer]["status"] == "ok"
            assert report["results"][peer]["value"] == value

    def test_retries_apply_per_task(self, tmp_path):
        root = str(tmp_path / "runs")
        campaign = CampaignSpec(run_id="retry", tasks=[
            TaskSpec("flaky", "flaky", {"fail_times": 2}, retries=3,
                     backoff=0.0),
            TaskSpec("peer", "sum", {"value": 5}),
        ], meta={"kind": "synthetic"})
        runner = Runner(campaign, root=root, jobs=2, sleep=lambda s: None)
        report = runner.execute()
        assert report["status"] == "ok"
        assert report["tasks"]["flaky"]["attempts"] == 3

    def test_timeout_bounds_stuck_task_without_stalling_peers(self, tmp_path):
        root = str(tmp_path / "runs")
        campaign = CampaignSpec(run_id="hang", tasks=[
            TaskSpec("stuck", "hang", {"seconds": 60.0}, timeout=1.0,
                     isolation="process"),
            TaskSpec("peer", "sum", {"value": 5}),
        ], meta={"kind": "synthetic"})
        t0 = time.perf_counter()
        report = Runner(campaign, root=root, jobs=2).execute()
        elapsed = time.perf_counter() - t0
        assert report["tasks"]["stuck"]["status"] == "timeout"
        assert report["tasks"]["peer"]["status"] == "ok"
        assert elapsed < 30.0

    def test_scheduler_section_present_and_volatile(self, tmp_path):
        root = str(tmp_path / "runs")
        serial = Runner(fan_campaign("s1"), root=root, jobs=1).execute()
        conc = Runner(fan_campaign("s2"), root=root, jobs=3).execute()
        # jobs=1 is a one-worker pool and reports like any other width.
        assert serial["scheduler"]["run_jobs"] == 1
        assert serial["scheduler"]["peak_in_flight"] == 1
        assert "scheduler" not in normalize_report(serial)
        sched = conc["scheduler"]
        assert sched["run_jobs"] == 3
        assert 1 <= sched["peak_in_flight"] <= 3
        assert set(sched["spans"]) == {t.task_id
                                       for t in fan_campaign("s2").tasks}
        for span in sched["spans"].values():
            assert span["queued"] >= 0.0 and span["run"] >= 0.0
            assert span["start"] >= 0.0
        assert "scheduler" not in normalize_report(conc)

    def test_peak_in_flight_counts_overlapping_tasks(self, tmp_path):
        """Four 0.3 s sleeps on two workers overlap two at a time; on one
        worker they never overlap."""
        root = str(tmp_path / "runs")

        def sleeps(run_id):
            return CampaignSpec(run_id=run_id, tasks=[
                TaskSpec(f"s{i}", "sleep", {"seconds": 0.3})
                for i in range(4)
            ], meta={"kind": "synthetic"})

        pair = Runner(sleeps("p2"), root=root, jobs=2).execute()
        one = Runner(sleeps("p1"), root=root, jobs=1).execute()
        assert pair["scheduler"]["peak_in_flight"] == 2
        assert one["scheduler"]["peak_in_flight"] == 1


# ----------------------------------------------------------------------
# Journal: durability, replay order-insensitivity
# ----------------------------------------------------------------------

class TestJournalBatching:
    def test_event_mode_syncs_per_append(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = os.fsync

        def counting(fd):
            calls["n"] += 1
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        journal = Journal(str(tmp_path / "j.jsonl"))
        for i in range(5):
            journal.append({"event": "task_start", "task": f"t{i}"})
        assert calls["n"] == 5
        journal.close()
        assert calls["n"] == 5

    def test_replay_is_order_insensitive_across_tasks(self, tmp_path):
        # Two interleavings of the same per-task event streams replay to
        # the same ledger — the property that makes concurrent journals
        # resumable and diffable.
        root = str(tmp_path / "runs")
        Runner(fan_campaign("shuffle"), root=root, jobs=4).execute()
        events = events_of(root, "shuffle")
        task_events = [e for e in events if "task" in e]
        other = [e for e in events if "task" not in e]
        # Adversarial reordering: sort per-task streams together while
        # keeping each task's own event order (stable sort).
        reordered = other + sorted(
            task_events, key=lambda e: str(e["task"])
        )
        a, b = replay(events), replay(reordered)
        assert set(a.tasks) == set(b.tasks)
        for task_id, rec in a.tasks.items():
            alt = b.tasks[task_id]
            assert (rec.status, rec.fingerprint, rec.payload) == \
                (alt.status, alt.fingerprint, alt.payload)


# ----------------------------------------------------------------------
# Campaign saves of lazily-added tasks
# ----------------------------------------------------------------------

class TestCampaignSaveDebounce:
    def test_lazy_tasks_saved_as_added(self, tmp_path):
        # A crash right after any execute_spec loses no task: the
        # campaign file already holds it.
        root = str(tmp_path / "runs")
        campaign = CampaignSpec(run_id="lazy", meta={"kind": "synthetic"})
        runner = Runner(campaign, root=root)
        path = os.path.join(root, "lazy", "campaign.json")
        for i in range(5):
            runner.execute_spec(TaskSpec(f"t{i}", "sum", {"value": i}))
            loaded = CampaignSpec.load(path)
            assert [t.task_id for t in loaded.tasks] == [
                f"t{k}" for k in range(i + 1)
            ]
        assert runner.finalize()["status"] == "ok"

    def test_interval_elapsed_saves_again(self, tmp_path):
        root = str(tmp_path / "runs")
        campaign = CampaignSpec(run_id="ticking", meta={"kind": "synthetic"})
        runner = Runner(campaign, root=root)
        runner.execute_spec(TaskSpec("t0", "sum", {"value": 1}))
        loaded = CampaignSpec.load(
            os.path.join(root, "ticking", "campaign.json")
        )
        assert [t.task_id for t in loaded.tasks] == ["t0"]
        runner.finalize()


# ----------------------------------------------------------------------
# Kill / resume under concurrency (satellite: SIGKILL a jobs=4 run)
# ----------------------------------------------------------------------

@posix_only
class TestKillMidWave:
    def _campaign_file(self, tmp_path, run_id):
        tasks = [
            {"id": f"leaf{i}", "kind": "sum", "params": {"value": i + 1}}
            for i in range(6)
        ]
        tasks.append({"id": "boom", "kind": "kill_self",
                      "params": {"value": 50}})
        tasks.append({"id": "join", "kind": "sum", "params": {"value": 100}})
        spec = {"run_id": run_id, "meta": {"kind": "synthetic"},
                "tasks": tasks}
        path = str(tmp_path / f"{run_id}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path

    def test_sigkill_jobs4_resume_zero_reexecution(self, tmp_path):
        root = str(tmp_path / "runs")

        # Reference: the same campaign straight through, serially.  The
        # kill_self marker is pre-seeded so "boom" survives its first run.
        ref = self._campaign_file(tmp_path, "straight")
        os.makedirs(os.path.join(root, "straight"), exist_ok=True)
        with open(os.path.join(root, "straight",
                               "killed-boom.marker"), "w") as fh:
            fh.write("armed\n")
        proc = _cli(["run", "--campaign", ref, "--out", root, "--jobs", "1"],
                    cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr

        # 1. A jobs=4 run is SIGKILLed from inside "boom" mid-wave.
        camp = self._campaign_file(tmp_path, "killed")
        proc = _cli(["run", "--campaign", camp, "--out", root,
                     "--jobs", "4"], cwd=str(tmp_path))
        assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)

        # 2. The journal survived; whatever completed is replayable.
        events = events_of(root, "killed")
        ledger = replay(events)
        completed_before = {
            t for t, rec in ledger.tasks.items() if rec.status == "ok"
        }
        assert "boom" in ledger.interrupted()

        # 3. Resume (again concurrent) completes without re-running any
        #    completed task: every completed task keeps exactly one start.
        proc = _cli(["resume", "killed", "--out", root, "--jobs", "4"],
                    cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        events = events_of(root, "killed")
        for task_id in completed_before:
            assert len(starts_of(events, task_id)) == 1, task_id
        assert verify_resume_discipline(events) == []

        # 4. `check` agrees, and the resumed run's normalized report is
        #    bit-identical to the uninterrupted serial run's.
        proc = _cli(["check", "killed", "--out", root], cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stdout
        proc = _cli(["diff", "straight", "killed", "--out", root],
                    cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stdout


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

class TestCliJobs:
    def test_run_accepts_jobs_flag(self, tmp_path):
        camp = {"run_id": "clijobs", "meta": {"kind": "synthetic"},
                "tasks": [
                    {"id": "a", "kind": "sum", "params": {"value": 1}},
                    {"id": "b", "kind": "sum", "params": {"value": 2}},
                ]}
        path = str(tmp_path / "c.json")
        with open(path, "w") as fh:
            json.dump(camp, fh)
        root = str(tmp_path / "runs")
        proc = _cli(["run", "--campaign", path, "--out", root,
                     "--jobs", "2"], cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "UTILIZATION" in proc.stdout
