"""DAG execution: concurrency, timeouts, retries, isolation, resume.

:class:`Runner` executes a :class:`~repro.runner.model.CampaignSpec`
either serially in deterministic topological order (``jobs=1``) or with
a **ready-set scheduler** (``jobs>1``; ``None`` means the CPU count):
tasks whose dependencies are all settled dispatch concurrently onto a
bounded thread pool.  This is the one parallel layer, and ``jobs`` the
one execution setting: each task itself runs serially.  Around every
task it journals ``task_start`` / ``task_end`` events (each fsync'd
before proceeding), so the run directory always reflects exactly what
has finished — a SIGKILL, OOM, or power cut mid-campaign loses at most
the tasks that were running.  ``campaign.json`` is written whenever the
campaign changes: at start, and each time :meth:`Runner.execute_spec`
appends a task.

Concurrency changes *when* tasks run, never *what* they compute: journal
events are task-keyed so replay / ``diff`` / resume are insensitive to
interleaving, and outcomes are re-ordered to campaign topological order
before the report is built — a ``jobs=4`` report normalizes
bit-identical to a serial one.

Execution policy per task:

* **timeout** — wall-clock bound per attempt.  Process-isolated tasks
  are killed preemptively; inline tasks run on a daemon worker thread
  that is abandoned on timeout (best-effort — use ``isolation:
  "process"`` for tasks that must be preemptible).  An abandoned
  inline thread is journaled as the coded ``RUN-THREAD-ABANDONED``
  warning and counted in the report — the thread still occupies the
  interpreter until its body returns.
* **retries / backoff** — a failed attempt is retried up to ``retries``
  times, sleeping ``backoff * 2**(attempt-1)`` seconds in between; every
  retry is journaled.
* **isolation** — ``"process"`` runs the task in a fresh interpreter
  (``python -m repro.runner._worker``): heavy tasks cannot corrupt or
  OOM the orchestrator, and their timeouts are enforced with a kill.

Resume replays the journal and re-executes only tasks that are missing,
failed, interrupted, or whose input fingerprint changed; completed tasks
are reused from their journaled payloads (``task_cached`` events record
every reuse).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.runner.journal import Journal, RunLedger, read_journal, replay
from repro.runner.model import (
    CampaignSpec,
    TaskSpec,
    env_knobs,
    fingerprint_task,
)
from repro.runner.registry import TaskContext, fingerprint_extra, get_task
from repro.runner.report import build_report, write_report

DEFAULT_RUNS_ROOT = os.path.join("benchmarks", "results", "runs")


def resolve_run_jobs(jobs: Optional[int] = None) -> int:
    """Scheduler width; ``None`` means the CPU count.

    The default saturates the machine with one in-flight task per core.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))

# Coded warning: an inline task hit its timeout and its worker thread
# was abandoned (daemon threads cannot be killed).  Journaled as a
# ``warning`` event and counted in the report's runtime_warnings.
CODE_THREAD_ABANDONED = "RUN-THREAD-ABANDONED"


class TaskFailure(Exception):
    """One attempt failed; ``status`` is ``failed`` or ``timeout``."""

    def __init__(self, message: str, status: str = "failed"):
        super().__init__(message)
        self.status = status


@dataclass
class TaskOutcome:
    """Terminal state of one task within this orchestrator process."""

    task_id: str
    kind: str
    status: str  # "ok" | "cached" | "failed" | "timeout" | "skipped"
    payload: Optional[dict] = None
    duration: float = 0.0
    attempts: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "status": self.status,
            "payload": self.payload,
            "duration": self.duration,
            "attempts": self.attempts,
        }


@dataclass
class Runner:
    """Executes one campaign against one run directory."""

    campaign: CampaignSpec
    root: str = DEFAULT_RUNS_ROOT
    store: Optional[dict] = None
    # Failure-injection hook: called right after a task_start event is
    # journaled, before the task body runs (used by tests/CI to SIGKILL
    # the orchestrator mid-task).
    on_task_start: Optional[Callable[[str, int], None]] = None
    sleep: Callable[[float], None] = time.sleep
    # Scheduler width: None resolves to the CPU count at execute() time;
    # 1 is the historical serial path, bit-for-bit.
    jobs: Optional[int] = None

    outcomes: "OrderedDict[str, TaskOutcome]" = field(
        default_factory=OrderedDict
    )

    def __post_init__(self):
        self.run_dir = os.path.join(self.root, self.campaign.run_id)
        self.journal: Optional[Journal] = None
        self.ledger: RunLedger = RunLedger()
        self._fps: Dict[str, str] = {}
        self._known = {t.task_id for t in self.campaign.tasks}
        # code -> count of runtime warnings this orchestrator life saw
        # (abandoned threads, ...); folded into the final report.
        self.runtime_warnings: Dict[str, int] = {}
        self._warn_lock = threading.Lock()
        # Scheduler observability for the report's UTILIZATION section
        # (populated only by the concurrent path).
        self.scheduler_info: Optional[dict] = None

    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> str:
        return os.path.join(self.run_dir, "journal.jsonl")

    @property
    def campaign_path(self) -> str:
        return os.path.join(self.run_dir, "campaign.json")

    def _ensure_started(self) -> None:
        if self.journal is not None:
            return
        os.makedirs(self.run_dir, exist_ok=True)
        prior = (
            read_journal(self.journal_path)
            if os.path.exists(self.journal_path) else []
        )
        self.ledger = replay(prior)
        self.campaign.save(self.campaign_path)
        self.journal = Journal(self.journal_path)
        if not prior:
            self.journal.append({
                "event": "run_start",
                "run_id": self.campaign.run_id,
                "n_tasks": len(self.campaign.tasks),
                "env": env_knobs(),
                "meta": dict(self.campaign.meta),
            })
        else:
            self.journal.append({
                "event": "run_resume",
                "run_id": self.campaign.run_id,
            })

    # ------------------------------------------------------------------
    def execute(self) -> dict:
        """Run every task and finalize the report.

        ``jobs=1``: the historical serial loop in topological order.
        ``jobs>1``: the ready-set scheduler — same journal schema, same
        resume discipline, same normalized report.
        """
        order = self.campaign.topo_order()  # validates before any I/O
        self._ensure_started()
        jobs = resolve_run_jobs(self.jobs)
        if jobs <= 1 or len(order) <= 1:
            for spec in order:
                self._execute_spec(spec)
        else:
            self._execute_concurrent(order, jobs)
        return self.finalize()

    def execute_spec(self, spec: TaskSpec) -> TaskOutcome:
        """Incremental API: append *spec* to the campaign and run it.

        Used by the pytest benchmark harness, which discovers its tasks
        lazily; the campaign file is rewritten on every append so the
        run stays resumable.
        """
        if spec.task_id not in self._known:
            self.campaign.tasks.append(spec)
            self._known.add(spec.task_id)
            if self.journal is not None:  # else _ensure_started saves it
                self.campaign.save(self.campaign_path)
        self._ensure_started()
        return self._execute_spec(spec)

    def finalize(self) -> dict:
        """Journal the aggregated report and the run_end event."""
        self._ensure_started()
        # Report determinism under concurrency: outcomes settle in
        # completion order, which interleaving makes nondeterministic;
        # the report always presents them in campaign topological order.
        ordered: "OrderedDict[str, TaskOutcome]" = OrderedDict()
        for spec in self.campaign.topo_order():
            if spec.task_id in self.outcomes:
                ordered[spec.task_id] = self.outcomes[spec.task_id]
        for tid, outcome in self.outcomes.items():
            if tid not in ordered:
                ordered[tid] = outcome
        self.outcomes = ordered
        failed = [o for o in self.outcomes.values() if not o.ok]
        status = "failed" if failed else "ok"
        report = build_report(
            self.campaign.meta,
            self.campaign.run_id,
            OrderedDict(
                (tid, o.as_dict()) for tid, o in self.outcomes.items()
            ),
            runtime_warnings=self.runtime_warnings,
            scheduler=self.scheduler_info,
        )
        self.journal.append({"event": "report", "report": report})
        write_report(self.run_dir, report)
        self.journal.append({
            "event": "run_end",
            "run_id": self.campaign.run_id,
            "status": status,
        })
        self.journal.close()
        self.journal = None
        return report

    # ------------------------------------------------------------------
    def _fingerprint(self, spec: TaskSpec) -> str:
        fp = self._fps.get(spec.task_id)
        if fp is None:
            missing = [d for d in spec.deps if d not in self._fps]
            for dep in missing:
                raise RuntimeError(
                    f"task {spec.task_id}: dep {dep} not yet fingerprinted"
                )
            fp = fingerprint_task(
                spec, self._fps,
                extra=fingerprint_extra(spec.kind, spec.params),
            )
            self._fps[spec.task_id] = fp
        return fp

    def _settle_fast(self, spec: TaskSpec) -> Optional[TaskOutcome]:
        """Settle *spec* without running it, if possible.

        Fingerprints the task (deps must already be settled), then
        resolves the no-execution outcomes: already done this life,
        journaled-complete with a matching fingerprint (``task_cached``),
        or skipped because a dependency failed.  Returns ``None`` when
        the task genuinely needs an execution attempt.  Runs on the
        scheduler thread only, so fingerprint and journal bookkeeping
        stay single-writer.
        """
        done = self.outcomes.get(spec.task_id)
        if done is not None:
            return done
        fp = self._fingerprint(spec)

        # Completed in a previous orchestrator life with the same
        # fingerprint: reuse the journaled result, re-execute nothing.
        cached = self.ledger.completed(spec.task_id, fp)
        if cached is not None:
            self.journal.append({
                "event": "task_cached",
                "task": spec.task_id,
                "fingerprint": fp,
            })
            outcome = TaskOutcome(
                spec.task_id, spec.kind, "cached",
                payload=cached.payload, duration=cached.duration,
                attempts=cached.attempts,
            )
            self.outcomes[spec.task_id] = outcome
            return outcome

        bad_deps = [
            d for d in spec.deps if not self.outcomes[d].ok
        ]
        if bad_deps:
            self.journal.append({
                "event": "task_skipped",
                "task": spec.task_id,
                "reason": "dep-failed",
                "deps": bad_deps,
            })
            outcome = TaskOutcome(
                spec.task_id, spec.kind, "skipped",
                error=f"dependencies failed: {bad_deps}",
            )
            self.outcomes[spec.task_id] = outcome
            return outcome
        return None

    def _execute_spec(self, spec: TaskSpec) -> TaskOutcome:
        outcome = self._settle_fast(spec)
        if outcome is not None:
            return outcome
        outcome = self._run_attempts(spec, self._fps[spec.task_id])
        self.outcomes[spec.task_id] = outcome
        return outcome

    # ------------------------------------------------------------------
    # Ready-set scheduler (jobs > 1)
    # ------------------------------------------------------------------
    def _execute_concurrent(self, order: List[TaskSpec], jobs: int) -> None:
        """Dispatch ready tasks onto a bounded pool until the DAG drains.

        A task is *ready* when every dependency has an outcome.  Ready
        tasks are settled fast-path first (cached / skipped — these may
        unblock dependents within the same wave); the remainder are
        submitted to the pool.  The scheduler thread is the only writer
        of ``outcomes``, the fingerprint map, and the campaign file;
        worker threads only journal their own task events (the journal
        is thread-safe) and return their outcome through the future.
        """
        started = time.perf_counter()
        pending: "OrderedDict[str, TaskSpec]" = OrderedDict(
            (s.task_id, s) for s in order
        )
        in_flight: Dict[Future, str] = {}
        spans: Dict[str, Dict[str, float]] = {}
        peak_in_flight = 0
        with ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-sched"
        ) as pool:
            while pending or in_flight:
                progressed = True
                while progressed:
                    progressed = False
                    for task_id in list(pending):
                        spec = pending[task_id]
                        if any(d not in self.outcomes for d in spec.deps):
                            continue
                        del pending[task_id]
                        if self._settle_fast(spec) is not None:
                            # Settled without running: dependents may
                            # have become ready — rescan this wave.
                            progressed = True
                            continue
                        fut = pool.submit(
                            self._run_timed,
                            spec,
                            self._fps[spec.task_id],
                            time.perf_counter(),
                        )
                        in_flight[fut] = task_id
                peak_in_flight = max(peak_in_flight, len(in_flight))
                if not in_flight:
                    if pending:  # unreachable after topo validation
                        raise RuntimeError(
                            "scheduler stalled with tasks pending: "
                            f"{sorted(pending)}"
                        )
                    break
                finished, _ = wait(
                    list(in_flight), return_when=FIRST_COMPLETED
                )
                for fut in finished:
                    task_id = in_flight.pop(fut)
                    outcome, span = fut.result()
                    self.outcomes[task_id] = outcome
                    spans[task_id] = span
        makespan = time.perf_counter() - started
        busy = sum(span["run"] for span in spans.values())
        self.scheduler_info = {
            "run_jobs": jobs,
            "peak_in_flight": peak_in_flight,
            "makespan": makespan,
            "busy_seconds": busy,
            "spans": {
                s.task_id: spans[s.task_id]
                for s in order if s.task_id in spans
            },
        }
        self.journal.append({
            "event": "scheduler",
            "run_id": self.campaign.run_id,
            **{k: v for k, v in self.scheduler_info.items() if k != "spans"},
        })

    def _run_timed(
        self, spec: TaskSpec, fp: str, enqueued: float
    ) -> Tuple[TaskOutcome, Dict[str, float]]:
        """Worker-thread body: run one task, timing its queue/run span."""
        t0 = time.perf_counter()
        outcome = self._run_attempts(spec, fp)
        return outcome, {
            "queued": t0 - enqueued,
            "run": time.perf_counter() - t0,
        }

    def _run_attempts(self, spec: TaskSpec, fp: str) -> TaskOutcome:
        ctx = TaskContext(
            run_dir=self.run_dir,
            task_id=spec.task_id,
            deps={d: self.outcomes[d].payload or {} for d in spec.deps},
            dep_meta={
                d: {"kind": self.outcomes[d].kind,
                    "status": self.outcomes[d].status}
                for d in spec.deps
            },
            store=self.store,
        )
        attempts = spec.retries + 1
        last_error: Optional[TaskFailure] = None
        for attempt in range(1, attempts + 1):
            ctx.attempt = attempt
            self.journal.append({
                "event": "task_start",
                "task": spec.task_id,
                "kind": spec.kind,
                "attempt": attempt,
                "fingerprint": fp,
            })
            if self.on_task_start is not None:
                self.on_task_start(spec.task_id, attempt)
            t0 = time.perf_counter()
            try:
                if spec.isolation == "process":
                    payload = self._attempt_process(spec, ctx)
                else:
                    payload = self._attempt_inline(spec, ctx)
            except TaskFailure as exc:
                duration = time.perf_counter() - t0
                last_error = exc
                self.journal.append({
                    "event": "task_end",
                    "task": spec.task_id,
                    "attempt": attempt,
                    "status": exc.status,
                    "duration": duration,
                    "error": str(exc),
                })
                if attempt < attempts:
                    pause = spec.backoff * (2 ** (attempt - 1))
                    self.journal.append({
                        "event": "task_retry",
                        "task": spec.task_id,
                        "next_attempt": attempt + 1,
                        "backoff": pause,
                    })
                    self.sleep(pause)
                continue
            duration = time.perf_counter() - t0
            self.journal.append({
                "event": "task_end",
                "task": spec.task_id,
                "attempt": attempt,
                "status": "ok",
                "duration": duration,
                "fingerprint": fp,
                "payload": payload,
            })
            return TaskOutcome(
                spec.task_id, spec.kind, "ok",
                payload=payload, duration=duration, attempts=attempt,
            )
        return TaskOutcome(
            spec.task_id, spec.kind, last_error.status,
            duration=0.0, attempts=attempts, error=str(last_error),
        )

    # ------------------------------------------------------------------
    def _attempt_inline(self, spec: TaskSpec, ctx: TaskContext) -> dict:
        fn = get_task(spec.kind)
        if spec.timeout is None:
            try:
                return fn(spec.params, ctx)
            except Exception as exc:
                raise TaskFailure(f"{type(exc).__name__}: {exc}") from exc
        box: dict = {}

        def body() -> None:
            try:
                box["payload"] = fn(spec.params, ctx)
            except BaseException as exc:  # captured, re-raised below
                box["error"] = exc

        worker = threading.Thread(
            target=body, name=f"task-{spec.task_id}", daemon=True
        )
        worker.start()
        worker.join(spec.timeout)
        if worker.is_alive():
            self._warn(
                CODE_THREAD_ABANDONED,
                f"task {spec.task_id}: inline worker thread abandoned "
                f"after {spec.timeout}s (daemon thread keeps running "
                f"until its body returns)",
                task=spec.task_id,
            )
            raise TaskFailure(
                f"timeout after {spec.timeout}s (inline; thread abandoned)",
                status="timeout",
            )
        if "error" in box:
            exc = box["error"]
            raise TaskFailure(f"{type(exc).__name__}: {exc}") from None
        return box["payload"]

    def _warn(self, code: str, message: str, **extra: object) -> None:
        """Journal a coded runtime warning and count it for the report.

        Called from scheduler worker threads too, so the counter update
        is locked (the journal serializes its own writes).
        """
        with self._warn_lock:
            self.runtime_warnings[code] = (
                self.runtime_warnings.get(code, 0) + 1
            )
        event = {"event": "warning", "code": code, "message": message}
        event.update(extra)
        self.journal.append(event)

    def _attempt_process(self, spec: TaskSpec, ctx: TaskContext) -> dict:
        tmp_dir = os.path.join(self.run_dir, "tmp")
        os.makedirs(tmp_dir, exist_ok=True)
        stem = spec.task_id.replace(os.sep, "_")
        in_path = os.path.join(tmp_dir, f"{stem}.{ctx.attempt}.in.json")
        out_path = os.path.join(tmp_dir, f"{stem}.{ctx.attempt}.out.json")
        if os.path.exists(out_path):
            os.remove(out_path)
        with open(in_path, "w") as fh:
            json.dump({
                "kind": spec.kind,
                "params": dict(spec.params),
                "task_id": spec.task_id,
                "attempt": ctx.attempt,
                "run_dir": self.run_dir,
                "deps": ctx.deps,
                "dep_meta": ctx.dep_meta,
            }, fh)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runner._worker",
             in_path, out_path],
            env=env,
        )
        try:
            returncode = proc.wait(timeout=spec.timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise TaskFailure(
                f"timeout after {spec.timeout}s (worker killed)",
                status="timeout",
            ) from None
        if os.path.exists(out_path):
            with open(out_path) as fh:
                result = json.load(fh)
            if result.get("status") == "ok":
                return result["payload"]
            raise TaskFailure(str(result.get("error", "worker error")))
        raise TaskFailure(
            f"worker exited with code {returncode} and wrote no result"
        )


# ----------------------------------------------------------------------
def run_campaign(
    campaign: CampaignSpec,
    root: str = DEFAULT_RUNS_ROOT,
    store: Optional[dict] = None,
    on_task_start: Optional[Callable[[str, int], None]] = None,
    jobs: Optional[int] = None,
) -> dict:
    """Execute *campaign* from scratch; returns the final report."""
    runner = Runner(
        campaign, root=root, store=store, on_task_start=on_task_start,
        jobs=jobs,
    )
    return runner.execute()


def resume(
    run_id: str,
    root: str = DEFAULT_RUNS_ROOT,
    store: Optional[dict] = None,
    jobs: Optional[int] = None,
) -> dict:
    """Resume *run_id* from its journal; returns the final report.

    Replays ``<root>/<run_id>/journal.jsonl``, reuses every completed
    task whose fingerprint still matches, and executes the rest —
    concurrently unless *jobs* is 1; resume and scheduling compose
    because cached settling happens on the scheduler thread before
    anything dispatches.
    """
    campaign_path = os.path.join(root, run_id, "campaign.json")
    campaign = CampaignSpec.load(campaign_path)
    runner = Runner(campaign, root=root, store=store, jobs=jobs)
    return runner.execute()
