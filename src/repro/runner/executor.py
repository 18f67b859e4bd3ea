"""Campaign execution: one pool, timeouts, retries, isolation, resume.

:class:`Runner` executes a :class:`~repro.runner.model.CampaignSpec`, a
list of independent tasks, on one bounded thread pool of ``jobs``
workers (``None`` means the CPU count; ``jobs=1`` is a one-worker
pool).  This is the one parallel layer, and ``jobs`` the one execution
setting: each task itself runs serially.  Around every task it journals
``task_start`` / ``task_end`` events (each fsync'd before proceeding),
so the run directory always reflects exactly what has finished — a
SIGKILL, OOM, or power cut mid-campaign loses at most the tasks that
were running.  ``campaign.json`` is written whenever the
campaign changes: at start, and each time :meth:`Runner.execute_spec`
appends a task.

Concurrency changes *when* tasks run, never *what* they compute: journal
events are task-keyed so replay / ``diff`` / resume are insensitive to
interleaving, and outcomes are re-ordered to campaign order before the
report is built — a ``jobs=4`` report normalizes bit-identical to a
``jobs=1`` one.

Before it touches the run directory, :meth:`Runner.execute` (``run``
and ``resume`` alike) fingerprints every task.  That pass is the
campaign's check: an unknown kind or an input its fingerprint hook
rejects (a circuit that does not build or lint) is collected per task,
and one :class:`~repro.runner.model.CampaignError` lists them all.

Execution policy per task (checked by :class:`TaskSpec`):

* **timeout** — wall-clock bound per attempt, enforced one way: the
  task's worker process is killed.  Only a process-isolated task takes
  one; an inline task runs to completion on its pool thread.
* **retries / backoff** — a failed attempt is retried up to ``retries``
  times, sleeping ``backoff * 2**(attempt-1)`` seconds in between; every
  retry is journaled.
* **isolation** — ``"process"`` runs the task in its pool lane's
  worker interpreter (``python -m repro.runner._worker``), one
  long-lived process per lane, started by the lane's first process
  attempt: heavy tasks cannot corrupt or OOM the orchestrator, and
  their timeouts are enforced with a kill.  A killed or crashed worker,
  or one started under other ``REPRO_ATPG_*`` knobs, is replaced by a
  fresh one at the lane's next attempt; every worker is closed (stdin
  EOF) and waited for when the pool finishes and in :meth:`finalize`,
  so none outlives the run.  The attempt's scratch files under ``tmp/``
  are deleted once its outcome is known.

Resume replays the journal and re-executes only tasks that are missing,
failed, interrupted, or whose input fingerprint changed; completed tasks
are reused from their journaled payloads (``task_cached`` events record
every reuse).
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.runner.journal import Journal, RunLedger, read_journal, replay
from repro.runner.model import (
    CampaignError,
    CampaignSpec,
    TaskSpec,
    env_knobs,
    fingerprint_task,
)
from repro.runner.registry import TaskContext, fingerprint_extra, get_task
from repro.runner.report import build_report, write_report

DEFAULT_RUNS_ROOT = os.path.join("benchmarks", "results", "runs")
_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def resolve_run_jobs(jobs: Optional[int] = None) -> int:
    """Scheduler width; ``None`` means the CPU count.

    The default saturates the machine with one in-flight task per core.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


class TaskFailure(Exception):
    """One attempt failed; ``status`` is ``failed`` or ``timeout``."""

    def __init__(self, message: str, status: str = "failed"):
        super().__init__(message)
        self.status = status


class _Worker:
    """One pool lane's worker interpreter (``repro.runner._worker``).

    It keeps the ``REPRO_ATPG_*`` knobs it started with for its life.
    Each task is one request line on its stdin; it answers with one
    byte on a completion pipe of its own, so the task's stdout and
    stderr stay the orchestrator's.
    """

    def __init__(self) -> None:
        self.knobs = env_knobs()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC_ROOT, env.get("PYTHONPATH")) if p
        )
        done_r, done_w = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.runner._worker", str(done_w)],
                stdin=subprocess.PIPE, bufsize=0, env=env,
                pass_fds=(done_w,),
            )
        except BaseException:
            os.close(done_r)
            raise
        finally:
            os.close(done_w)
        self.done = done_r

    def run(self, in_path: str, out_path: str,
            timeout: Optional[float]) -> Optional[bool]:
        """Hand the worker one task: True once it reports the task done,
        False if it exited first, None after *timeout* seconds."""
        try:
            self.proc.stdin.write(
                (json.dumps([in_path, out_path]) + "\n").encode()
            )
        except BrokenPipeError:
            return False
        ready, _, _ = select.select([self.done], [], [], timeout)
        if not ready:
            return None
        return os.read(self.done, 1) == b"."

    def close(self, kill: bool = False) -> int:
        """End the worker (killed, or at stdin EOF once idle), wait for
        it and return its exit code."""
        if kill:
            self.proc.kill()
        self.proc.stdin.close()
        os.close(self.done)
        return self.proc.wait()


@dataclass
class TaskOutcome:
    """Terminal state of one task within this orchestrator process."""

    task_id: str
    kind: str
    status: str  # "ok" | "cached" | "failed" | "timeout"
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
    # Pool width: None resolves to the CPU count at execute() time.
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
        # Scheduler observability for the report's UTILIZATION section
        # (populated by execute(), not by execute_spec()).
        self.scheduler_info: Optional[dict] = None
        # Each pool lane's worker interpreter, keyed by thread id.
        self._workers: Dict[int, _Worker] = {}

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
        """Run every task on the pool and finalize the report.

        Task ids are checked and every task fingerprinted before the
        run directory is touched; the problems of every task that fails
        its fingerprint (unknown kind, unbuildable or unlinted circuit)
        are raised as one :class:`CampaignError`, so an invalid campaign
        leaves nothing behind and a resumed one appends nothing.
        """
        self.campaign.by_id()
        problems = []
        for spec in self.campaign.tasks:
            try:
                self._fingerprint(spec)
            except CampaignError as exc:
                problems.extend(str(exc).splitlines())
        if problems:
            raise CampaignError(
                f"campaign check found {len(problems)} problem(s); "
                "nothing was run:\n"
                + "\n".join(f"  {problem}" for problem in problems)
            )
        self._ensure_started()
        self._execute_pool(resolve_run_jobs(self.jobs))
        return self.finalize()

    def execute_spec(self, spec: TaskSpec) -> TaskOutcome:
        """Incremental API: append *spec* to the campaign and run it.

        Used by the pytest benchmark harness, which discovers its tasks
        lazily; the campaign file is rewritten on every append so the
        run stays resumable.  The task is fingerprinted first, so one
        that fails its check raises :class:`CampaignError` and is not
        appended.
        """
        self._fingerprint(spec)
        if spec.task_id not in self._known:
            self.campaign.tasks.append(spec)
            self._known.add(spec.task_id)
            if self.journal is not None:  # else _ensure_started saves it
                self.campaign.save(self.campaign_path)
        self._ensure_started()
        outcome = self._settle_fast(spec)
        if outcome is None:
            outcome = self._run_attempts(spec, self._fps[spec.task_id])
            self.outcomes[spec.task_id] = outcome
        return outcome

    def finalize(self) -> dict:
        """Close every worker, then journal the aggregated report and
        the run_end event."""
        self._close_workers()
        self._ensure_started()
        # Report determinism under concurrency: outcomes settle in
        # completion order, which interleaving makes nondeterministic;
        # the report always presents them in campaign order.
        self.outcomes = OrderedDict(
            (s.task_id, self.outcomes[s.task_id])
            for s in self.campaign.tasks if s.task_id in self.outcomes
        )
        failed = [o for o in self.outcomes.values() if not o.ok]
        status = "failed" if failed else "ok"
        report = build_report(
            self.campaign.meta,
            self.campaign.run_id,
            OrderedDict(
                (tid, o.as_dict()) for tid, o in self.outcomes.items()
            ),
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
            fp = fingerprint_task(spec, extra=fingerprint_extra(spec))
            self._fps[spec.task_id] = fp
        return fp

    def _settle_fast(self, spec: TaskSpec) -> Optional[TaskOutcome]:
        """Settle *spec* without running it, if possible.

        Fingerprints the task, then resolves the no-execution outcomes:
        already done this life, or journaled-complete with a matching
        fingerprint (``task_cached``).  Returns ``None`` when the task
        needs an execution attempt.  Runs on the scheduler thread only,
        so fingerprint and outcome bookkeeping stay single-writer.
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
        return None

    # ------------------------------------------------------------------
    def _execute_pool(self, jobs: int) -> None:
        """Settle cached tasks, then run the rest on a bounded pool.

        Cached tasks settle on this thread in campaign order; the rest
        are submitted in campaign order and collected as they finish.
        This thread is the only writer of ``outcomes`` and the
        fingerprint map; worker threads only journal their own task
        events (the journal is thread-safe) and return their outcome
        through the future.
        """
        started = time.perf_counter()
        todo = [s for s in self.campaign.tasks if self._settle_fast(s) is None]
        spans: Dict[str, Dict[str, float]] = {}
        try:
            with ThreadPoolExecutor(
                max_workers=jobs, thread_name_prefix="repro-sched"
            ) as pool:
                futures = [
                    pool.submit(self._run_timed, spec,
                                self._fps[spec.task_id], started,
                                time.perf_counter())
                    for spec in todo
                ]
                for fut in as_completed(futures):
                    outcome, span = fut.result()
                    self.outcomes[outcome.task_id] = outcome
                    spans[outcome.task_id] = span
        finally:
            self._close_workers()
        makespan = time.perf_counter() - started
        busy = sum(span["run"] for span in spans.values())
        self.scheduler_info = {
            "run_jobs": jobs,
            "peak_in_flight": _peak_overlap(spans.values()),
            "makespan": makespan,
            "busy_seconds": busy,
            "spans": {s.task_id: spans[s.task_id] for s in todo},
        }
        self.journal.append({
            "event": "scheduler",
            "run_id": self.campaign.run_id,
            **{k: v for k, v in self.scheduler_info.items() if k != "spans"},
        })

    def _run_timed(
        self, spec: TaskSpec, fp: str, started: float, enqueued: float
    ) -> Tuple[TaskOutcome, Dict[str, float]]:
        """Worker-thread body: run one task, timing its start/queue/run."""
        t0 = time.perf_counter()
        outcome = self._run_attempts(spec, fp)
        return outcome, {
            "start": t0 - started,
            "queued": t0 - enqueued,
            "run": time.perf_counter() - t0,
        }

    def _run_attempts(self, spec: TaskSpec, fp: str) -> TaskOutcome:
        ctx = TaskContext(
            run_dir=self.run_dir, task_id=spec.task_id, store=self.store,
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
        try:
            return get_task(spec.kind)(spec.params, ctx)
        except Exception as exc:
            raise TaskFailure(f"{type(exc).__name__}: {exc}") from exc

    def _attempt_process(self, spec: TaskSpec, ctx: TaskContext) -> dict:
        tmp_dir = os.path.join(self.run_dir, "tmp")
        os.makedirs(tmp_dir, exist_ok=True)
        stem = spec.task_id.replace(os.sep, "_")
        in_path = os.path.join(tmp_dir, f"{stem}.{ctx.attempt}.in.json")
        out_path = os.path.join(tmp_dir, f"{stem}.{ctx.attempt}.out.json")
        # The attempt's files (with the worker's atomic-write temporary)
        # go once its outcome is known; files a killed earlier life of
        # the run left under the same names go before it starts.
        scratch = (in_path, out_path, out_path + ".tmp")
        _remove(scratch)
        try:
            with open(in_path, "w") as fh:
                json.dump({
                    "kind": spec.kind,
                    "params": dict(spec.params),
                    "task_id": spec.task_id,
                    "attempt": ctx.attempt,
                    "run_dir": self.run_dir,
                }, fh)
            done = self._lane_worker().run(in_path, out_path, spec.timeout)
            if done is None:
                self._workers.pop(threading.get_ident()).close(kill=True)
                raise TaskFailure(
                    f"timeout after {spec.timeout}s (worker killed)",
                    status="timeout",
                )
            if not done:
                returncode = self._workers.pop(threading.get_ident()).close()
                raise TaskFailure(
                    f"worker exited with code {returncode} and wrote no result"
                )
            with open(out_path) as fh:
                result = json.load(fh)
            if result.get("status") == "ok":
                return result["payload"]
            raise TaskFailure(str(result.get("error", "worker error")))
        finally:
            _remove(scratch)

    def _lane_worker(self) -> _Worker:
        """The calling lane's worker, started fresh when the lane has
        none or the ATPG knobs changed since its worker started."""
        lane = threading.get_ident()
        worker = self._workers.get(lane)
        if worker is not None and worker.knobs != env_knobs():
            worker.close()
            worker = None
        if worker is None:
            worker = self._workers[lane] = _Worker()
        return worker

    def _close_workers(self) -> None:
        """Close every lane's worker and wait for it to exit."""
        while self._workers:
            self._workers.popitem()[1].close()


def _remove(paths: Iterable[str]) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _peak_overlap(spans: Iterable[Mapping[str, float]]) -> int:
    """The most run spans open at one instant (a span's end does not
    overlap a start at the same instant)."""
    edges = sorted(
        edge for span in spans
        for edge in ((span["start"], 1), (span["start"] + span["run"], -1))
    )
    peak = live = 0
    for _, step in edges:
        live += step
        peak = max(peak, live)
    return peak


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
    task whose fingerprint still matches, and executes the rest on the
    pool; cached tasks settle before anything is submitted.
    """
    campaign_path = os.path.join(root, run_id, "campaign.json")
    campaign = CampaignSpec.load(campaign_path)
    runner = Runner(campaign, root=root, store=store, jobs=jobs)
    return runner.execute()
