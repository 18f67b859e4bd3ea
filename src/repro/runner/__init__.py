"""Crash-robust experiment orchestrator.

A *campaign* — e.g. "analyze and resynthesize circuits X, Y, Z for
q = 0..5 with library variants A, B" — is expressed as a DAG of
idempotent tasks (:class:`TaskSpec` / :class:`CampaignSpec`) and
executed by :class:`Runner` with per-task wall-clock timeouts, bounded
retries with exponential backoff, and optional process isolation for
heavy tasks.  Every task's start/end/result/stats is journaled to an
append-only JSONL file under ``benchmarks/results/runs/<run_id>/``, so
a crash, hang or OOM in the middle of a sweep loses at most the task
that was running: :func:`resume` replays the journal and re-executes
only tasks that are missing, failed, or whose input fingerprint
(circuit hash + config + ATPG budget env knobs + dependency
fingerprints) changed.

Command line: ``python -m repro.runner {run,resume,report,check,diff}``
(see README.md for the journal schema and CLI reference).
"""

from repro.runner.executor import Runner, resume, run_campaign
from repro.runner.journal import Journal, JournalError, read_journal, replay
from repro.runner.model import CampaignSpec, TaskSpec, fingerprint_campaign
from repro.runner.report import build_report, load_report, normalize_report

__all__ = [
    "CampaignSpec",
    "TaskSpec",
    "Journal",
    "JournalError",
    "Runner",
    "build_report",
    "fingerprint_campaign",
    "load_report",
    "normalize_report",
    "read_journal",
    "replay",
    "resume",
    "run_campaign",
]
