"""Long-lived worker interpreter for process-isolated task execution.

Invoked as ``python -m repro.runner._worker <done-fd>`` by the runner,
one worker per pool lane.  Each stdin line is one request, a JSON list
``[spec.json, out.json]``: the worker reads the task spec, executes the
registered task kind, atomically writes ``{"status": "ok", "payload":
...}`` or ``{"status": "error", "error": ...}`` to *out.json*, then
writes one byte to the inherited pipe *done-fd*, so the task's own
stdout and stderr stay untouched.  On stdin EOF it exits 0.

The orchestrator treats EOF on the completion pipe (crash, kill, OOM)
as a failed attempt and starts a fresh worker for the lane's next one.
Tasks run one after another in the same interpreter and share only its
imports and pure memo tables; none of them reaches a payload.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.runner._worker <done-fd>",
              file=sys.stderr)
        return 2
    done = int(argv[0])

    from repro.runner.registry import TaskContext, get_task

    for line in sys.stdin:
        in_path, out_path = json.loads(line)
        with open(in_path) as fh:
            spec = json.load(fh)
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
            result = {"status": "error",
                      "error": f"{type(exc).__name__}: {exc}"}

        tmp = out_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(result, fh, default=str)
        os.replace(tmp, out_path)
        try:
            os.write(done, b".")
        except BrokenPipeError:  # the orchestrator is gone
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
