"""Host-speed sampling, to take the host's speed out of the timings.

On a shared host the speed of a CPU changes with what the neighbours
run: a fixed pure-Python loop takes up to 1.8x longer for stretches of
tens of seconds, and the operations slow down by the same factor.  A
run's median cannot average that away when a slow stretch outlasts the
run.

Every interpreter an operation starts therefore runs a tiny
fixed kernel (:func:`kernel`, about 0.3 ms) on a ``SIGPROF`` timer, once
per :data:`INTERVAL_S` of its CPU time, and records when it ran and how
long it took.  The kernel runs in the measured process itself, between
its bytecodes, so it sees the speed of the CPU the process runs on at
that moment.  :func:`speed` turns the samples of a time window into the
window's mean speed relative to :data:`REFERENCE_S`, and run.py
multiplies the window's time by it: the result is the time the window
would have taken at the reference speed.  The kernel is the benchmark's own code,
so a change to the program moves the operation's time but not the
kernel's.  The sampling costs about 1% of the CPU time.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import sys
import time
from typing import List, Optional, Tuple

# Environment variable naming the directory where sampled interpreters
# write their samples at exit (see startup/).
SPEED_DIR_ENV = "PERFBENCH_SPEED_DIR"

# CPU time between two samples.
INTERVAL_S = 0.025

# Kernel time at the reference speed: the fast state of the 2-CPU host
# the benchmark was tuned on (Intel Xeon, Python 3).  It only scales the
# corrected times; comparisons between commits do not depend on it.
REFERENCE_S = 0.000280

_TABLE: dict = {}


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    s = 0
    table = _TABLE
    for i in range(3000):
        s += i * i % 7
        table[i & 255] = s
    return s


def sample_process(out_dir: str) -> None:
    """Sample this interpreter's speed until it exits, then write
    ``{"argv0": ..., "samples": [[monotonic end, seconds], ...]}`` to
    ``<out_dir>/<pid>.json``.

    ``setitimer`` timers are not inherited across ``fork``, so pool
    workers the program forks are not sampled.
    """
    samples: List[Tuple[float, float]] = []

    def on_tick(signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        samples.append((time.monotonic(), t1 - t0))

    def dump() -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        record = {"argv0": os.path.basename(sys.argv[0]), "samples": samples}
        with open(os.path.join(out_dir, f"{os.getpid()}.json"), "w") as fh:
            json.dump(record, fh)

    signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    atexit.register(dump)


def load_samples(out_dir: str) -> List[Tuple[float, float]]:
    """Every sample the interpreters of one operation wrote."""
    samples: List[Tuple[float, float]] = []
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name)) as fh:
            samples.extend(tuple(s) for s in json.load(fh)["samples"])
    return samples


def speed(samples, t0: float = float("-inf"),
          t1: float = float("inf")) -> Optional[float]:
    """Mean speed, relative to the reference, of the samples taken in
    [*t0*, *t1*]; ``None`` when there are none.

    The samples are evenly spaced in CPU time, and work proceeds at a
    rate proportional to the speed, so the window's time at the
    reference speed is its time multiplied by the mean of
    ``REFERENCE_S / duration``.
    """
    rates = [REFERENCE_S / d for t, d in samples if t0 <= t <= t1]
    return sum(rates) / len(rates) if rates else None
