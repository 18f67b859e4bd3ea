"""Long-lived worker interpreter for process-isolated task execution.

Invoked as ``python -m repro.runner._worker <result-fd>`` by the runner,
one worker per pool lane.  Each stdin line is one request, the task as
a JSON object (``kind``, ``params``, ``task_id``, ``run_dir``): the
worker executes the registered task kind and writes one JSON line,
``{"status": "ok", "payload": ...}`` or ``{"status": "error", "error":
...}``, to the inherited pipe *result-fd*, so the task's own stdout and
stderr stay untouched.  On stdin EOF it exits 0.

The orchestrator treats EOF on the result pipe before a full line
(crash, kill, OOM) as a failed attempt and starts a fresh worker for
the lane's next one.  Tasks run one after another in the same
interpreter and share only its imports and pure memo tables; none of
them reaches a payload.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.runner._worker <result-fd>",
              file=sys.stderr)
        return 2
    out = int(argv[0])

    from repro.runner.registry import TaskContext, get_task

    for line in sys.stdin:
        spec = json.loads(line)
        ctx = TaskContext(run_dir=spec["run_dir"], task_id=spec["task_id"])
        try:
            payload = get_task(spec["kind"])(spec.get("params") or {}, ctx)
            result = {"status": "ok", "payload": payload}
        except Exception as exc:
            result = {"status": "error",
                      "error": f"{type(exc).__name__}: {exc}"}

        data = (json.dumps(result, default=str) + "\n").encode()
        try:
            while data:
                data = data[os.write(out, data):]
        except BrokenPipeError:  # the orchestrator is gone
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
