"""Final-report assembly, rendering, and volatile-field normalization.

The report aggregates every task's journaled payload into one JSON
document: the reconstructed Table I / Table II sections (when the
campaign ran paper tasks), the raw per-task results, per-task execution
metadata, and engine-effort totals (where wall-clock and SAT effort
went).  It is journaled as the ``report`` event, written to
``report.json`` in the run directory, and rendered by the CLI.

:func:`normalize_report` strips every timing- and process-history-
dependent field so that two runs of the same campaign — e.g. a
straight-through run and a SIGKILL-interrupted-then-resumed run — can
be compared byte-for-byte: the normalized reports must be identical.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional

# Fields that legitimately differ between two executions of identical
# work: wall-clock stamps and durations and duration-derived ratios.
VOLATILE_KEYS = frozenset({
    "ts",
    "duration",
    "runtime",
    "baseline_runtime",
    "Rtime",
    "phase_seconds",
    "timings",
    "attempts",
    "run_id",
    # Process history: which budget happened to trip first on an abort
    # is a wall-clock fact — the verdicts and tables it annotates are
    # not.
    "sat_abort_reasons",
    "abort_reasons",
    # Scheduler shape: a jobs=4 campaign interleaves differently from a
    # serial one, yet computes bit-identical results — exactly what
    # normalized comparison checks.
    "scheduler",
    "run_jobs",
}) | frozenset({
    # Keys only reports of earlier revisions carry: the intra-task
    # parallel layers' counters and coded warnings, the speculation
    # counters, the campaign's worker settings, the counters of the
    # removed vectorized fault simulator, the removed good-value cache
    # checksum's repair count, the removed internal-fault carry-over
    # count, the removed good-value, plan and evaluator cache
    # counters, the removed count of inline task threads abandoned at a
    # timeout, and the removed delta-clustering counters.  Dropping
    # them keeps those reports diffable against current ones, and lets
    # a resumed run mix their cached payloads with fresh ones.
    "parallel_chunks",
    "proc_shards",
    "proc_workers",
    "shm_bytes",
    "shard_imbalance",
    "ledger_grants",
    "ledger_workers",
    "warnings",
    "warning_counts",
    "sat_shards",
    "sat_workers",
    "hung_workers",
    "shard_retries",
    "supervise_wakeups",
    "breaker_state",
    "candidates_speculated",
    "candidates_wasted",
    "workers",
    "exec_mode",
    "wide_batches",
    "words_per_batch",
    "vector_ops",
    "cache_integrity_failures",
    "faults_carried",
    "good_simulations",
    "good_cache_hits",
    "plan_builds",
    "plan_cache_hits",
    "eval_compiles",
    "eval_cache_hits",
    "eval_cache_misses",
    "runtime_warnings",
    "clusters_reused",
    "clusters_recomputed",
})


def normalize_report(report: object) -> object:
    """Deep copy of *report* with every volatile field removed."""
    if isinstance(report, Mapping):
        return {
            k: normalize_report(v)
            for k, v in report.items()
            if k not in VOLATILE_KEYS
        }
    if isinstance(report, (list, tuple)):
        return [normalize_report(v) for v in report]
    return report


def _merge_numeric(dst: Dict[str, object], src: Mapping[str, object]) -> None:
    for key, value in src.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            dst[key] = dst.get(key, 0) + value
        elif isinstance(value, Mapping):
            sub = dst.setdefault(key, {})
            if isinstance(sub, dict):
                _merge_numeric(sub, value)
                if not sub:  # empty or all-non-numeric map
                    del dst[key]


def build_report(
    campaign_meta: Mapping[str, object],
    run_id: str,
    outcomes: Mapping[str, dict],
    scheduler: Optional[Mapping[str, object]] = None,
) -> dict:
    """Aggregate task *outcomes* into the final report.

    *outcomes* maps task_id to ``{"kind", "status", "payload",
    "duration", "attempts"}`` in campaign order; cached reuses count as
    completed (their recorded payload stands in for a fresh execution).
    *scheduler* is the concurrent scheduler's utilization snapshot
    (``run_jobs``, ``makespan``, per-task queue/run spans); volatile by
    definition, so :func:`normalize_report` strips it whole.
    """
    from repro.core.metrics import average_rows

    table1: List[dict] = []
    table2_rows: List[dict] = []
    orig_rows: List[dict] = []
    resyn_rows: List[dict] = []
    results: Dict[str, object] = {}
    tasks: Dict[str, dict] = {}
    engine_totals: Dict[str, object] = {}
    degradations: Dict[str, dict] = {}
    status = "ok"
    for task_id, outcome in outcomes.items():
        task_status = outcome["status"]
        if task_status == "cached":
            task_status = "ok"  # a reused result is a completed result
        tasks[task_id] = {
            "kind": outcome["kind"],
            "status": task_status,
            "duration": outcome.get("duration", 0.0),
            "attempts": outcome.get("attempts", 1),
        }
        if task_status != "ok":
            status = "failed"
            continue
        payload = outcome.get("payload") or {}
        results[task_id] = payload
        if isinstance(payload.get("degradation"), Mapping):
            degradations[task_id] = dict(payload["degradation"])
        if outcome["kind"] == "analyze" and "row" in payload:
            table1.append(payload["row"])
        if outcome["kind"] == "resynthesize":
            if "original_row" in payload:
                table1.append(payload["original_row"])
            rows = payload.get("rows") or []
            table2_rows.extend(rows)
            if len(rows) == 2:
                orig_rows.append(rows[0])
                resyn_rows.append(rows[1])
        for stats_key in ("engine", "stats"):
            stats = payload.get(stats_key)
            if isinstance(stats, Mapping):
                _merge_numeric(engine_totals, stats)

    report: dict = {
        "run_id": run_id,
        "status": status,
        "campaign": dict(campaign_meta),
        "tasks": tasks,
        "results": results,
    }
    if table1:
        report["table1"] = table1
    if table2_rows:
        averages = []
        if orig_rows and resyn_rows:
            avg_orig = average_rows(orig_rows)
            avg_orig["MaxInc"] = "orig"
            avg_resyn = average_rows(resyn_rows)
            avg_resyn["MaxInc"] = "resyn"
            averages = [avg_orig, avg_resyn]
        report["table2"] = {"rows": table2_rows, "averages": averages}
    if engine_totals:
        report["engine_totals"] = engine_totals
    if degradations:
        # Present only when some task degraded (aborted faults,
        # approximate mode, repaired cache corruption): a clean run's
        # report shape is unchanged, and every degradation is explicit —
        # never folded silently into the tables.
        report["degradations"] = degradations
    if scheduler:
        report["scheduler"] = dict(scheduler)
    return report


def write_report(run_dir: str, report: dict) -> str:
    path = os.path.join(run_dir, "report.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_report(run_dir: str) -> Optional[dict]:
    """The run's report — from report.json, else from the journal."""
    path = os.path.join(run_dir, "report.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    journal_path = os.path.join(run_dir, "journal.jsonl")
    if os.path.exists(journal_path):
        from repro.runner.journal import read_journal

        for event in reversed(read_journal(journal_path)):
            if event.get("event") == "report":
                return event["report"]
    return None


def _union_header(rows: List[Mapping[str, object]]) -> List[str]:
    """Ordered union of all row keys.

    Rows journaled by different code revisions (a resumed run mixing old
    cached payloads with fresh ones) may not share a column set; taking
    the union — with ``""`` filling the gaps — keeps rendering working
    instead of crashing on the first ragged row.
    """
    header: List[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                header.append(key)
    return header


def render_report(report: Mapping[str, object]) -> str:
    """Human-readable rendering: tables plus the effort breakdown."""
    from repro.utils import format_table

    lines: List[str] = [
        f"run {report.get('run_id')} — status {report.get('status')}"
    ]
    table1 = report.get("table1")
    if table1:
        header = _union_header(table1)
        lines.append(format_table(
            header, [[r.get(k, "") for k in header] for r in table1],
            title="TABLE I. CLUSTERED UNDETECTABLE FAULTS",
        ))
    table2 = report.get("table2")
    if table2 and table2.get("rows"):
        rows = list(table2["rows"]) + list(table2.get("averages", ()))
        header = _union_header(rows)
        lines.append(format_table(
            header, [[r.get(k, "") for k in header] for r in rows],
            title="TABLE II. EXPERIMENTAL RESULTS",
        ))
    degradations = report.get("degradations") or {}
    if isinstance(degradations, Mapping) and degradations:
        rows = []
        for tid, deg in degradations.items():
            records = deg.get("records") or []
            detail = "; ".join(str(r) for r in records) if records else "-"
            parts = []
            for k, v in sorted(deg.items()):
                if k == "records" or not v:
                    continue
                if isinstance(v, Mapping):
                    # Nested histograms (abort_reasons) flatten to one
                    # readable entry per bucket.
                    parts.extend(
                        f"{k}[{kk}]={vv}" for kk, vv in sorted(v.items())
                    )
                else:
                    parts.append(f"{k}={v}")
            rows.append([tid, ", ".join(parts) or "-", detail])
        lines.append(format_table(
            ["task", "counters", "detail"], rows,
            title="DEGRADATIONS (results usable but not exact — see detail)",
        ))
    tasks = report.get("tasks") or {}
    if tasks:
        rows = [
            [tid, meta.get("kind"), meta.get("status"),
             meta.get("attempts"), f"{meta.get('duration', 0.0):.2f}s"]
            for tid, meta in tasks.items()
        ]
        lines.append(format_table(
            ["task", "kind", "status", "attempts", "wall"], rows,
            title="TASKS (where the wall-clock went)",
        ))
    scheduler = report.get("scheduler") or {}
    if isinstance(scheduler, Mapping) and scheduler:
        head = [
            [key, scheduler[key]]
            for key in ("run_jobs", "peak_in_flight", "makespan")
            if key in scheduler
        ]
        if head:
            lines.append(format_table(
                ["metric", "value"],
                [[k, f"{v:.2f}s" if k == "makespan" else v]
                 for k, v in head],
                title="UTILIZATION (campaign scheduler)",
            ))
        spans = scheduler.get("spans")
        if isinstance(spans, Mapping) and spans:
            rows = [
                [tid, f"{span.get('queued', 0.0):.2f}s",
                 f"{span.get('run', 0.0):.2f}s"]
                for tid, span in spans.items()
            ]
            lines.append(format_table(
                ["task", "queued", "run"], rows,
                title="UTILIZATION (per-task queue/run spans)",
            ))
    totals = report.get("engine_totals") or {}
    if totals:
        effort = [
            [key, totals[key]]
            for key in ("sat_calls", "sat_conflicts", "sat_propagations",
                        "sat_learned", "sat_restarts", "sat_lemmas_reused",
                        "faults_simulated", "events_propagated",
                        "verdicts_inherited", "verdicts_proved")
            if key in totals
        ]
        engine = totals.get("engine")
        if isinstance(engine, Mapping):
            effort.extend(
                [f"engine.{key}", engine[key]]
                for key in ("sat_calls", "sat_conflicts",
                            "faults_simulated", "events_propagated")
                if key in engine
            )
        if effort:
            lines.append(format_table(
                ["counter", "total"], effort,
                title="ENGINE EFFORT (where the SAT/simulation work went)",
            ))
        phases = totals.get("phase_seconds")
        if isinstance(engine, Mapping) and not phases:
            phases = engine.get("phase_seconds")
        if isinstance(phases, Mapping) and phases:
            lines.append(format_table(
                ["phase", "seconds"],
                [[name, f"{secs:.3f}"]
                 for name, secs in sorted(phases.items())],
                title="ENGINE PHASES (wall-clock per engine phase)",
            ))
    return "\n\n".join(lines)
