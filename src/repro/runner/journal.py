"""Append-only JSONL run journal.

One journal records the whole life of a run, including resumes: every
event is a single JSON object on its own line, flushed and fsync'd
before the orchestrator proceeds, so a SIGKILL / OOM / power cut loses
at most the line being written.  The reader tolerates exactly that
failure mode — a truncated *final* line is ignored — while corruption
anywhere else raises :class:`JournalError`.

The writer is thread-safe: scheduler threads of one run share one
journal under a lock, and events stay whole-line atomic.

Event schema (all events carry ``event`` and ``ts`` = epoch seconds):

* ``run_start``  — ``run_id``, ``n_tasks``, ``env`` (the fingerprinted
  ATPG budget knobs that are set), ``meta`` (campaign metadata);
* ``run_resume`` — ``run_id``; appended every time a journal is resumed;
* ``task_start`` — ``task``, ``kind``, ``attempt`` (1-based),
  ``fingerprint``;
* ``task_end``   — ``task``, ``attempt``, ``status`` (``ok`` | ``failed``
  | ``timeout``), ``duration`` (seconds), ``fingerprint``, ``payload``
  (the task's JSON result, including its EngineStats /
  ResynthesisStats snapshot) on success, ``error`` on failure;
* ``task_retry`` — ``task``, ``next_attempt``, ``backoff`` (seconds
  slept before the next attempt);
* ``task_cached`` — ``task``, ``fingerprint``; the journaled result of a
  previous execution was reused without re-running the task;
* ``task_skipped`` — ``task``, ``reason`` (e.g. ``dep-failed``);
* ``report``     — ``report``: the aggregated final report of the run;
* ``run_end``    — ``run_id``, ``status`` (``ok`` | ``failed``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


class JournalError(RuntimeError):
    """Malformed journal (corruption before the final line)."""


class Journal:
    """Append-only JSONL writer; every append is flushed and fsync'd."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def append(self, event: Dict[str, object]) -> None:
        record = dict(event)
        record.setdefault("ts", time.time())
        line = json.dumps(record, sort_keys=True, default=str)
        if "\n" in line:
            raise JournalError("journal events must be single-line JSON")
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def read_journal(path: str) -> List[Dict[str, object]]:
    """Parse a journal, tolerating a crash-truncated final line only."""
    events: List[Dict[str, object]] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            if i >= len(lines) - 2:
                break  # interrupted mid-write: ignore the partial tail
            raise JournalError(
                f"{path}: malformed journal line {i + 1}"
            ) from None
    return events


@dataclass
class TaskRecord:
    """Replayed state of one task."""

    task_id: str
    attempts: int = 0
    status: Optional[str] = None  # last task_end status
    fingerprint: Optional[str] = None  # of the last successful end
    payload: Optional[dict] = None
    duration: float = 0.0
    started_unfinished: bool = False


@dataclass
class RunLedger:
    """What a journal says already happened, for resume decisions."""

    tasks: Dict[str, TaskRecord] = field(default_factory=dict)
    run_started: bool = False
    run_ended: bool = False
    resumes: int = 0

    def record(self, task_id: str) -> TaskRecord:
        rec = self.tasks.get(task_id)
        if rec is None:
            rec = self.tasks[task_id] = TaskRecord(task_id)
        return rec

    def completed(self, task_id: str, fingerprint: str) -> Optional[TaskRecord]:
        """The reusable result for *task_id*, if any.

        A result is reusable only when the last recorded end was ``ok``
        *and* its fingerprint matches the task's current fingerprint.
        """
        rec = self.tasks.get(task_id)
        if rec is None or rec.status != "ok":
            return None
        if rec.fingerprint != fingerprint:
            return None
        return rec

    def interrupted(self) -> Set[str]:
        """Tasks with a start but no matching end (killed mid-task)."""
        return {
            t for t, rec in self.tasks.items() if rec.started_unfinished
        }


def verify_resume_discipline(events: List[Dict[str, object]]) -> List[str]:
    """Problems with a journal's resume behaviour (empty = clean).

    The crash-robustness contract: once a task has a successful
    ``task_end``, no later life of the run may journal another
    ``task_start`` for it with the same fingerprint — completed work is
    never re-executed.  (A *changed* fingerprint legitimately re-runs.)
    """
    problems: List[str] = []
    completed: Dict[str, object] = {}  # task -> fingerprint of ok end
    for event in events:
        kind = event.get("event")
        if kind == "task_end" and event.get("status") == "ok":
            completed[str(event["task"])] = event.get("fingerprint")
        elif kind == "task_start":
            task = str(event["task"])
            if task in completed and (
                event.get("fingerprint") == completed[task]
            ):
                problems.append(
                    f"completed task {task!r} was re-executed "
                    "(same fingerprint)"
                )
    if not any(e.get("event") == "run_end" for e in events):
        problems.append("journal has no run_end event")
    elif events[-1].get("event") != "run_end":
        problems.append("journal does not end with run_end")
    return problems


def replay(events: List[Dict[str, object]]) -> RunLedger:
    """Fold journal events into a :class:`RunLedger`."""
    ledger = RunLedger()
    for event in events:
        kind = event.get("event")
        if kind == "run_start":
            ledger.run_started = True
        elif kind == "run_resume":
            ledger.resumes += 1
            ledger.run_ended = False
        elif kind == "run_end":
            ledger.run_ended = True
        elif kind == "task_start":
            rec = ledger.record(str(event["task"]))
            rec.attempts += 1
            rec.started_unfinished = True
        elif kind == "task_end":
            rec = ledger.record(str(event["task"]))
            rec.started_unfinished = False
            rec.status = str(event.get("status"))
            rec.duration = float(event.get("duration", 0.0))
            if rec.status == "ok":
                rec.fingerprint = event.get("fingerprint")
                rec.payload = event.get("payload")
            else:
                rec.fingerprint = None
                rec.payload = None
    return ledger
