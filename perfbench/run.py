"""Flow-level benchmark of the DFM resynthesis reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every operation runs in a fresh
interpreter, so each one pays the cold caches a user pays on every
invocation.  Operations repeat until the next one would end past
``--seconds`` (but at least two untraced ones are made); the metrics
are medians over the operations of the run.

Every time is corrected for the host's speed: every interpreter an
operation starts samples it with a fixed kernel, and each time is scaled to the reference speed over its own window (see
hostspeed.py); a traced operation's layer times are scaled by the speed
over its timed section.  On a shared host whose speed swings by up to
1.8x for minutes at a time, that is what keeps runs of the same code
within their bounds.

``--trace 0`` prints the end-to-end metrics (BENCHMARK.json
``end_to_end``).  ``--trace 1`` alternates untraced and traced
operations and prints the per-layer metrics; the traced ones wrap each
layer's public functions from outside (see spans.py).  A traced
campaign's task interpreters trace themselves through ``startup/``;
its runner figures come from its journal and report.

Workloads (see workloads.py):

* ``flow`` — Table I flow iteration on aes_core and sparc_ffu;
* ``resynth_place`` — placement-bound resynthesis of sparc_lsu;
* ``resynth_sat`` — incremental-ATPG resynthesis of sparc_ifu;
* ``campaign`` — ``python -m repro.runner run --tables 1 --isolation
  process --jobs 2`` over six small circuits, with a fresh run id under
  a temporary ``--out`` that is removed afterwards.

Every output is compared with ``expected.json``; a mismatch, an aborted
fault, a raised error or a failed task counts as a failed operation.
The last stdout line is the JSON result; the line before it stamps the
host context (git sha, cpus, Python/numpy versions, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans as spans_mod  # noqa: E402
import workloads as wl  # noqa: E402

OP_TIMEOUT_S = 150.0
# An untraced run makes at least this many operations, even past
# --seconds, so that its medians never rest on one operation.
MIN_OPERATIONS = 2
WORK_DIR = ".perfbench_work"  # scratch under the repository root


def child_env(speed_dir: str, span_dir=None) -> dict:
    """Environment of every operation: the checkout's ``src`` on the
    path and no ``REPRO_*`` knob, so the program runs its defaults.

    ``startup/`` goes first on the path, so every interpreter the
    operation starts samples the host's speed into *speed_dir* and, for
    a traced campaign, traces itself into *span_dir*.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and not k.startswith("PERFBENCH_")}
    paths = [os.path.join(HERE, "startup"), os.path.abspath("src"),
             env.get("PYTHONPATH")]
    env[hostspeed.SPEED_DIR_ENV] = speed_dir
    if span_dir is not None:
        env[spans_mod.SPAN_DIR_ENV] = span_dir
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, timeout: float, speed_dir: str, span_dir=None):
    """Run *argv*; return (exit code, rusage of it and its children,
    monotonic spawn time, monotonic exit time, stderr text).

    The child leads its own process group, so a timeout, or a worker a
    crashed child left behind, is killed with the whole group.
    """
    err = tempfile.TemporaryFile(dir=WORK_DIR)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, env=child_env(speed_dir, span_dir),
                            stdout=subprocess.DEVNULL,
                            stderr=err, start_new_session=True)
    killer = threading.Timer(timeout, _kill_group, (proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    t_exit = time.monotonic()
    _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    err.seek(0)
    text = err.read().decode(errors="replace")
    err.close()
    return proc.returncode, usage, t_spawn, t_exit, text


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class Speed:
    """Host-speed correction of one operation's times: each time is
    scaled by the host's mean speed over its own window (see
    hostspeed.py), or over the whole operation when the window holds no
    sample."""

    def __init__(self, speed_dir: str) -> None:
        self.samples = hostspeed.load_samples(speed_dir)
        if not self.samples:
            raise RuntimeError("no host-speed samples were written")

    def scale(self, seconds: float, t0: float = float("-inf"),
              t1: float = float("inf")) -> float:
        factor = (hostspeed.speed(self.samples, t0, t1)
                  or hostspeed.speed(self.samples))
        return seconds * factor


def _speed_dir() -> str:
    return tempfile.mkdtemp(prefix="speed-", dir=WORK_DIR)


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter that stops after set-up."""
    fd, out_path = tempfile.mkstemp(suffix=".json", dir=WORK_DIR)
    os.close(fd)
    speed_dir = _speed_dir()
    argv = [sys.executable, os.path.join(HERE, "ops.py"), workload,
            str(wl.input_seed(workload, seed)), out_path, "--setup-only"]
    try:
        code, _, t_spawn, _, err = spawn(argv, OP_TIMEOUT_S,
                                         speed_dir=speed_dir)
        if code != 0:
            raise RuntimeError(f"{workload} set-up failed (exit {code}):\n"
                               f"{err[-2000:]}")
        with open(out_path) as fh:
            t_start = json.load(fh)["t_start"]
        return Speed(speed_dir).scale(t_start - t_spawn, t_spawn, t_start)
    finally:
        os.remove(out_path)
        shutil.rmtree(speed_dir, ignore_errors=True)


def run_inprocess_op(workload: str, seed: int, trace: bool) -> dict:
    """One flow or resynthesis operation in a fresh interpreter."""
    fd, out_path = tempfile.mkstemp(suffix=".json", dir=WORK_DIR)
    os.close(fd)
    speed_dir = _speed_dir()
    argv = [sys.executable, os.path.join(HERE, "ops.py"), workload,
            str(wl.input_seed(workload, seed)), out_path]
    if trace:
        argv.append("--trace")
    try:
        code, usage, t_spawn, t_exit, err = spawn(argv, OP_TIMEOUT_S,
                                                  speed_dir=speed_dir)
        record = speed = None
        if code == 0 and os.path.getsize(out_path):
            with open(out_path) as fh:
                record = json.load(fh)
            speed = Speed(speed_dir)
    finally:
        os.remove(out_path)
        shutil.rmtree(speed_dir, ignore_errors=True)
    op = {"ok": record is not None, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if record is None:
        sys.stderr.write(f"{workload} operation failed (exit {code}):\n"
                         f"{err[-2000:]}\n")
        return op
    t_start, wall = record["t_start"], record["wall_s"]
    rtime = None
    if record["rtime"] is not None:
        runtime, baseline = record["rtime"]
        rtime = (speed.scale(runtime, t_start, t_start + runtime)
                 / speed.scale(baseline, t_start, t_start + baseline))
    op.update(
        cpu_s=speed.scale(_cpu(usage)),
        setup_s=speed.scale(t_start - t_spawn, t_spawn, t_start),
        wall_s=speed.scale(wall, t_start, t_start + wall),
        raw_wall_s=wall,
        rtime=rtime,
        outputs=record["outputs"],
        counts=record.get("counts"),
        layers=record.get("layers"),
    )
    return op


def _journal(path: str):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def child_spans(span_dir: str):
    """Summed span totals and tracer counts of the task interpreters of
    a traced campaign (the runner's own interpreter calls no layer)."""
    totals: dict = {}
    counts: dict = {}
    for name in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, name)) as fh:
            record = json.load(fh)
        if record["argv0"] == "_worker.py":
            spans_mod.add_totals(totals, record["totals"])
            spans_mod.add_totals(counts, record["counts"])
    return totals, counts


def campaign_layers(report: dict, events: list, span_dir: str) -> dict:
    """Per-layer metrics of a traced campaign: layer spans from its task
    interpreters, runner figures from its report and journal.

    ``trace.unattributed_s`` is the task interpreters' time outside
    every span (start-up, payload writing), summed over tasks.
    """
    tasks = report.get("tasks", {})
    results = report.get("results", {})
    sched = report.get("scheduler", {})
    task_spans = sched.get("spans", {})
    makespan = float(sched.get("makespan", 0.0))
    busy = sum(s["run"] for s in task_spans.values())
    in_task = sum(sec for payload in results.values()
                  for sec in payload.get("timings", {}).values())
    duration = sum(t.get("duration", 0.0) for t in tasks.values())
    overhead = duration - in_task
    totals, counts = child_spans(span_dir)
    engine = spans_mod.sum_engine(p.get("engine", {}) for p in results.values())
    engine.update(counts)
    m = spans_mod.layer_metrics(totals, engine, None,
                                totals.get("span.build_benchmark.s", 0.0))
    m.update(spans_mod.runner_metrics({
        "makespan_s": makespan,
        "busy_s": busy,
        "queue_wait_s": sum(s["queued"] for s in task_spans.values()),
        "overhead_s": overhead,
        # From the per-task run spans, not peak_in_flight (which counts
        # submitted futures, not running tasks).
        "concurrency": busy / makespan if makespan else 0.0,
        "tasks_failed": sum(1 for t in tasks.values() if t["status"] != "ok"),
        "retries": sum(1 for e in events if e.get("event") == "task_retry"),
        "calls": sum(1 for e in events if e.get("event") == "task_start"),
    }))
    return m


def run_campaign_op(seed: int, trace: bool) -> dict:
    """One Table I campaign through the runner CLI, in a fresh run dir."""
    out = tempfile.mkdtemp(prefix="runs-", dir=WORK_DIR)
    span_dir = tempfile.mkdtemp(prefix="spans-", dir=WORK_DIR) if trace else None
    speed_dir = _speed_dir()
    run_id = f"bench-{uuid.uuid4().hex[:12]}"
    argv = [sys.executable, "-m", "repro.runner", "run",
            "--tables", "1", "--isolation", "process",
            "--jobs", str(wl.CAMPAIGN_JOBS),
            "--circuits", ",".join(wl.CAMPAIGN_CIRCUITS),
            "--seed", str(wl.input_seed("campaign", seed)),
            "--run-id", run_id, "--out", out]
    events = report = layers = speed = None
    try:
        t_wall0 = time.time()
        code, usage, t_spawn, t_exit, err = spawn(argv, OP_TIMEOUT_S,
                                                  speed_dir, span_dir)
        run_dir = os.path.join(out, run_id)
        try:
            events = _journal(os.path.join(run_dir, "journal.jsonl"))
            with open(os.path.join(run_dir, "report.json")) as fh:
                report = json.load(fh)
            if trace:
                layers = campaign_layers(report, events, span_dir)
            speed = Speed(speed_dir)
        except (OSError, ValueError, KeyError) as exc:
            err += f"\ncannot read run output: {exc}"
            report = None
    finally:
        for path in (out, span_dir, speed_dir):
            if path is not None:
                shutil.rmtree(path, ignore_errors=True)
    op = {"ok": False, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    starts = [e["ts"] for e in events or [] if e.get("event") == "task_start"]
    if report is None or not starts:
        sys.stderr.write(f"campaign failed (exit {code}):\n{err[-2000:]}\n")
        return op
    # Setup: CLI start to the first task_start.  The journal stamps
    # time.time(); the spawn time and the samples are monotonic.
    first = t_spawn + (min(starts) - t_wall0)
    op.update(
        ok=True,
        cpu_s=speed.scale(_cpu(usage)),
        setup_s=speed.scale(first - t_spawn, t_spawn, first),
        wall_s=speed.scale(t_exit - first, first, t_exit),
        raw_wall_s=t_exit - first,
        rtime=None,
        outputs={"table1": report.get("table1", [])},
        counts=spans_mod.exact_counts(layers) if layers else None,
        layers=layers,
    )
    return op


def run_op(workload: str, seed: int, trace: bool) -> dict:
    if workload == "campaign":
        return run_campaign_op(seed, trace)
    return run_inprocess_op(workload, seed, trace)


def failures(workload: str, seed: int, op: dict, expected: dict) -> int:
    """Failed operations among those one invocation attempted."""
    n = wl.operations(workload)
    if not op["ok"]:
        return n
    bad = wl.check_outputs(workload, seed, op["outputs"], expected)
    for name in bad:
        sys.stderr.write(f"{workload}: output mismatch on {name}\n")
    return min(n, len(bad))


def host_context(workload: str, seed: int) -> dict:
    sha = "unknown"
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"git_sha": sha, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "seed": seed, "input_seed": wl.input_seed(workload, seed)}


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        sys.stderr.write("error: run from the repository root "
                         "(src/repro not found)\n")
        return 2
    expected = wl.load_expected()
    os.makedirs(WORK_DIR, exist_ok=True)
    # Trace runs alternate untraced and traced operations, so the
    # tracing overhead is measured under the same host conditions.
    # Untraced in-process runs add a set-up-only interpreter to every
    # round, so setup_s is a median over twice as many set-ups.
    modes = [False, True] if args.trace else [False]
    sample_setup = not args.trace and args.workload != "campaign"
    ops = {False: [], True: []}
    setups = []
    start = time.monotonic()
    try:
        while True:
            for mode in modes:
                ops[mode].append(run_op(args.workload, args.seed, mode))
            if sample_setup:
                setups.append(setup_sample(args.workload, args.seed))
            rounds = len(ops[False])
            per_round = (time.monotonic() - start) / rounds
            if (rounds >= (1 if args.trace else MIN_OPERATIONS)
                    and time.monotonic() - start + per_round > args.seconds):
                break
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    all_ops = ops[False] + ops[True]
    attempted = wl.operations(args.workload) * len(all_ops)
    failed = sum(failures(args.workload, args.seed, op, expected)
                 for op in all_ops)
    good = [op for op in ops[False] if op["ok"]]
    context = host_context(args.workload, args.seed)
    context["operations"] = len(all_ops)
    if args.trace:
        traced = [op for op in ops[True] if op["ok"]]
        layers = [corrected_layers(op) for op in traced]
        metrics = {}
        for key in sorted(layers[0]) if layers else []:
            value = median([m[key] for m in layers])
            metrics[key] = {"value": value, "unit": unit_of(key)}
        traced_wall = median([op["wall_s"] for op in traced])
        overhead = traced_wall - median([op["wall_s"] for op in good])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        context["tracing_overhead_s"] = overhead
    else:
        metrics = {
            "wall_s": {"value": median([o["wall_s"] for o in good]),
                       "unit": "s"},
            "cpu_s": {"value": median([o["cpu_s"] for o in good]),
                      "unit": "s"},
            "setup_s": {"value": median([o["setup_s"] for o in good]
                                        + setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": median([o["peak_rss_mb"] for o in good]),
                            "unit": "MB"},
            "rtime": {"value": (median([o["rtime"] for o in good])
                                if args.workload in wl.RTIME_WORKLOADS
                                else 1.0),
                      "unit": "ratio"},
            "ok_rate": {"value": (attempted - failed) / attempted,
                        "unit": "share"},
        }
        context["tracing_overhead_s"] = None
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def corrected_layers(op: dict) -> dict:
    """Per-layer metrics of a traced operation, its times scaled by the
    host's speed over its timed section."""
    factor = op["wall_s"] / op["raw_wall_s"]
    return {key: value * factor if unit_of(key) == "s" else value
            for key, value in op["layers"].items()}


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio") or key == "runner.concurrency":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
