"""Subprocess entry point for process-isolated task execution.

Invoked as ``python -m repro.runner._worker <spec.json> <out.json>``.
Reads the task spec, executes the registered task kind, and atomically
writes ``{"status": "ok", "payload": ...}`` or ``{"status": "error",
"error": ...}`` to *out.json*.  The orchestrator treats a missing
output file (crash, kill, OOM) as a failed attempt.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(
            "usage: python -m repro.runner._worker <spec.json> <out.json>",
            file=sys.stderr,
        )
        return 2
    in_path, out_path = argv
    with open(in_path) as fh:
        spec = json.load(fh)

    from repro.runner.registry import TaskContext, get_task

    ctx = TaskContext(
        run_dir=spec["run_dir"],
        task_id=spec["task_id"],
        attempt=int(spec.get("attempt", 1)),
        store=None,
    )
    try:
        payload = get_task(spec["kind"])(spec.get("params") or {}, ctx)
        result = {"status": "ok", "payload": payload}
    except Exception as exc:
        result = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}

    tmp = out_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh, default=str)
    os.replace(tmp, out_path)
    return 0 if result["status"] == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
