"""Command-line interface of the experiment orchestrator.

::

    python -m repro.runner run    [--circuits c17,c432] [options]
    python -m repro.runner resume <run_id> [--out DIR]
    python -m repro.runner report <run_id> [--out DIR] [--normalized]
    python -m repro.runner check  <run_id> [--out DIR]
    python -m repro.runner check  --netlist FILE [--format bench]
    python -m repro.runner ingest FILE... [--format auto] [--variant full]
    python -m repro.runner diff   <run_a> <run_b> [--out DIR]

``run`` builds a paper-sweep campaign (or loads ``--campaign file.json``)
and executes it; ``resume`` continues a crashed or interrupted run from
its journal, re-executing only missing/failed/changed tasks; ``report``
renders the final report; ``check`` validates journal integrity and the
zero-re-execution resume discipline; ``diff`` compares two runs'
normalized reports (exit 1 on mismatch).

``--kill-at TASK[:ATTEMPT]`` is a fault-injection hook used by CI and
tests: the orchestrator SIGKILLs itself right after journaling that
task's ``task_start`` — the crash the journal must survive.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import Optional

from repro.runner.executor import DEFAULT_RUNS_ROOT, Runner, resume
from repro.runner.journal import (
    JournalError,
    read_journal,
    verify_resume_discipline,
)
from repro.runner.model import CampaignSpec
from repro.runner.report import load_report, normalize_report, render_report


def _parse_kill_at(value: str):
    # Task ids themselves contain colons (analyze:full:c17), so only a
    # numeric suffix is an attempt selector.
    task, want = value, 1
    head, _, tail = value.rpartition(":")
    if head and tail.isdigit():
        task, want = head, int(tail)

    def hook(task_id: str, attempt_no: int) -> None:
        if task_id == task and attempt_no == want:
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


def _csv(value: str):
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", default=DEFAULT_RUNS_ROOT,
        help="runs root directory (default: %(default)s)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="crash-robust experiment orchestrator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a campaign")
    _add_common(run)
    run.add_argument("--run-id", default=None)
    run.add_argument(
        "--campaign", default=None,
        help="load a campaign.json instead of building a paper sweep",
    )
    run.add_argument(
        "--circuits", type=_csv, default=("sparc_tlu", "sparc_lsu"),
        help="comma-separated benchmark circuits",
    )
    run.add_argument(
        "--tables", type=_csv, default=("1", "2"),
        help="which paper tables to produce (1,2)",
    )
    run.add_argument("--qmax", type=int, default=3)
    run.add_argument("--max-iter", type=int, default=6)
    run.add_argument("--scale", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="concurrent campaign tasks (default: the CPU count; "
             "1 = serial)",
    )
    run.add_argument(
        "--variants", type=_csv, default=("full",),
        help="library variants (full, drop<k>, exclude:<a>,<b>)",
    )
    run.add_argument(
        "--isolation", choices=("inline", "process"), default="inline",
    )
    run.add_argument("--timeout", type=float, default=None)
    run.add_argument("--retries", type=int, default=0)
    run.add_argument("--backoff", type=float, default=1.0)
    run.add_argument(
        "--kill-at", default=None, metavar="TASK[:ATTEMPT]",
        help="fault injection: SIGKILL self after that task_start",
    )

    res = sub.add_parser("resume", help="resume a run from its journal")
    res.add_argument("run_id")
    _add_common(res)
    res.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="concurrent campaign tasks (default: the CPU count; "
             "1 = serial)",
    )
    res.add_argument(
        "--kill-at", default=None, metavar="TASK[:ATTEMPT]",
        help="fault injection: SIGKILL self after that task_start",
    )

    rep = sub.add_parser("report", help="render a run's final report")
    rep.add_argument("run_id")
    _add_common(rep)
    rep.add_argument(
        "--normalized", action="store_true",
        help="print the normalized report JSON instead of tables",
    )

    chk = sub.add_parser(
        "check",
        help="validate journal integrity + resume discipline, "
             "or lint netlist files (--netlist)",
    )
    chk.add_argument("run_id", nargs="?", default=None)
    _add_common(chk)
    chk.add_argument(
        "--netlist", action="append", default=[], metavar="FILE",
        help="lint a netlist file instead of checking a run journal "
             "(repeatable; exit 1 on any structural error)",
    )
    chk.add_argument(
        "--format", default="auto",
        choices=("auto", "netlist", "bench", "verilog"),
        help="netlist format for --netlist files "
             "(default: detect from extension/content)",
    )

    ing = sub.add_parser(
        "ingest",
        help="parse + lint + technology-map foreign netlists "
             "(.bench / structural Verilog / native)",
    )
    ing.add_argument("files", nargs="+", metavar="FILE")
    ing.add_argument(
        "--format", default="auto",
        choices=("auto", "netlist", "bench", "verilog"),
        help="input format (default: detect from extension/content)",
    )
    ing.add_argument(
        "--variant", default="full",
        help="library variant to map onto (full, drop<k>, "
             "exclude:<a>,<b>; default: %(default)s)",
    )
    ing.add_argument(
        "--save", default=None, metavar="DIR",
        help="also write each mapped circuit as native netlist text "
             "into DIR",
    )
    ing.add_argument(
        "--json", action="store_true",
        help="machine-readable summary on stdout",
    )

    dif = sub.add_parser(
        "diff", help="compare two runs' normalized reports"
    )
    dif.add_argument("run_a")
    dif.add_argument("run_b")
    _add_common(dif)
    return parser


def _cmd_run(args) -> int:
    if args.campaign:
        campaign = CampaignSpec.load(args.campaign)
        if args.run_id:
            campaign.run_id = args.run_id
    else:
        from repro.runner.tasks import paper_campaign

        run_id = args.run_id or f"run-{int(time.time())}-{os.getpid()}"
        campaign = paper_campaign(
            list(args.circuits),
            run_id,
            tables=tuple(int(t) for t in args.tables),
            q_max=args.qmax,
            max_iterations_per_phase=args.max_iter,
            scale=args.scale,
            seed=args.seed,
            variants=args.variants,
            isolation=args.isolation,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
        )
    journal_path = os.path.join(
        args.out, campaign.run_id, "journal.jsonl"
    )
    if os.path.exists(journal_path):
        print(
            f"error: run {campaign.run_id!r} already has a journal; "
            f"use `resume {campaign.run_id}`",
            file=sys.stderr,
        )
        return 2
    from repro.runner.tasks import preflight_campaign

    problems = preflight_campaign(campaign)
    if problems:
        print(
            f"error: campaign preflight found {len(problems)} problem(s); "
            "nothing was run:",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    hook = _parse_kill_at(args.kill_at) if args.kill_at else None
    runner = Runner(
        campaign, root=args.out, on_task_start=hook, jobs=args.jobs
    )
    report = runner.execute()
    print(render_report(report))
    return 0 if report["status"] == "ok" else 1


def _cmd_resume(args) -> int:
    if args.kill_at:
        campaign = CampaignSpec.load(
            os.path.join(args.out, args.run_id, "campaign.json")
        )
        runner = Runner(
            campaign, root=args.out,
            on_task_start=_parse_kill_at(args.kill_at),
            jobs=args.jobs,
        )
        report = runner.execute()
    else:
        report = resume(args.run_id, root=args.out, jobs=args.jobs)
    print(render_report(report))
    return 0 if report["status"] == "ok" else 1


def _cmd_report(args) -> int:
    report = load_report(os.path.join(args.out, args.run_id))
    if report is None:
        print(f"error: no report for run {args.run_id!r}", file=sys.stderr)
        return 2
    if args.normalized:
        print(json.dumps(normalize_report(report), indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0


def _cmd_check(args) -> int:
    if args.netlist:
        return _check_netlists(args.netlist, args.format)
    if not args.run_id:
        print(
            "error: check needs a run_id or at least one --netlist FILE",
            file=sys.stderr,
        )
        return 2
    journal_path = os.path.join(args.out, args.run_id, "journal.jsonl")
    if not os.path.exists(journal_path):
        print(f"error: no journal at {journal_path}", file=sys.stderr)
        return 2
    try:
        events = read_journal(journal_path)
    except JournalError as exc:
        print(f"FAIL: {exc}")
        return 1
    problems = verify_resume_discipline(events)
    starts = sum(1 for e in events if e.get("event") == "task_start")
    cached = sum(1 for e in events if e.get("event") == "task_cached")
    resumes = sum(1 for e in events if e.get("event") == "run_resume")
    print(
        f"journal: {len(events)} events, {starts} task starts, "
        f"{cached} cached reuses, {resumes} resume(s)"
    )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print("OK: journal intact, no completed task re-executed")
    return 0


def _check_netlists(paths, fmt: str = "auto") -> int:
    """Lint netlist files of any supported format (check --netlist).

    Foreign formats (``.bench``, structural Verilog) are parsed,
    link-checked and technology-mapped exactly like ``ingest`` does;
    the native format goes through the recovering text linter.  Exit 1
    on any structural error (warnings alone stay exit 0).
    """
    failed = False
    for path in paths:
        design = _ingest_one(path, fmt, "full")
        if design is None:
            failed = True
            continue
        if design.ok and not design.report.warnings:
            print(f"OK: {path}: clean")
        else:
            print(design.report.render())
            if not design.report.ok:
                failed = True
    return 1 if failed else 0


def _ingest_one(path: str, fmt: str, variant: str):
    """Recovering ingest of one file for the CLI; None on I/O failure."""
    from repro.netlist.ingest import IngestError, ingest_file
    from repro.runner.tasks import _library_variant

    try:
        return ingest_file(
            path,
            fmt=None if fmt == "auto" else fmt,
            cells=_library_variant(variant),
        )
    except (OSError, IngestError) as exc:
        print(f"FAIL: {path}: {exc}")
        return None


def _cmd_ingest(args) -> int:
    """Parse + lint + map netlist files; report per-file summaries."""
    failed = False
    summaries = []
    for path in args.files:
        design = _ingest_one(path, args.format, args.variant)
        if design is None:
            failed = True
            continue
        circuit = design.circuit
        summary = {
            "path": path,
            "format": design.fmt,
            "name": design.source_name,
            "ok": design.ok,
            "gates": len(circuit.gates) if circuit else 0,
            "inputs": len(circuit.inputs) if circuit else 0,
            "outputs": len(circuit.outputs) if circuit else 0,
            "scan_cells": design.scan_cells,
            "renamed_signals": len(design.renames),
            "errors": len(design.report.errors),
            "warnings": len(design.report.warnings),
        }
        summaries.append(summary)
        if not design.ok:
            failed = True
        if not args.json:
            status = "OK" if design.ok else "FAIL"
            print(
                f"{status}: {path} [{design.fmt}] {design.source_name}: "
                f"{summary['gates']} gates, {summary['inputs']} PI, "
                f"{summary['outputs']} PO, {design.scan_cells} scan cell(s)"
            )
            if design.report.diagnostics:
                print(design.report.render())
        if design.ok and args.save:
            from repro.netlist.io import write_netlist

            os.makedirs(args.save, exist_ok=True)
            base = os.path.splitext(os.path.basename(path))[0] + ".nl"
            out_path = os.path.join(args.save, base)
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(write_netlist(circuit))
            if not args.json:
                print(f"  wrote {out_path}")
    if args.json:
        print(json.dumps(summaries, indent=2, sort_keys=True))
    return 1 if failed else 0


def _cmd_diff(args) -> int:
    reports = []
    for run_id in (args.run_a, args.run_b):
        report = load_report(os.path.join(args.out, run_id))
        if report is None:
            print(f"error: no report for run {run_id!r}", file=sys.stderr)
            return 2
        reports.append(normalize_report(report))
    text_a = json.dumps(reports[0], indent=2, sort_keys=True)
    text_b = json.dumps(reports[1], indent=2, sort_keys=True)
    if text_a == text_b:
        print(
            f"OK: normalized reports of {args.run_a} and {args.run_b} "
            "are identical"
        )
        return 0
    import difflib

    for line in difflib.unified_diff(
        text_a.splitlines(), text_b.splitlines(),
        fromfile=args.run_a, tofile=args.run_b, lineterm="",
    ):
        print(line)
    return 1


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {
        "run": _cmd_run,
        "resume": _cmd_resume,
        "report": _cmd_report,
        "check": _cmd_check,
        "ingest": _cmd_ingest,
        "diff": _cmd_diff,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
