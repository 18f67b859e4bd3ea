"""Span tracing from outside the program.

:func:`install` wraps the public functions of each layer where their
callers bind them, so every call records one span (name, layer, start,
end, parent).  Spans are kept in memory and summarized once at the end
of the operation; nothing inside ``src/`` is edited.

The program runs single-threaded under the benchmark (one fault-sim
worker, no speculation), so one parent stack suffices.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

# Environment variable naming the directory where traced campaign
# interpreters write their span totals (see startup/).
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"

# run_atpg assigns, rather than adds, its deterministic phase's SAT
# effort into the caller's EngineStats, so a stats object shared over
# several calls holds only the last call's effort.  The tracer sums the
# value each call leaves, which is the run's total.
SAT_EFFORT = ("sat_calls", "sat_conflicts", "sat_propagations")

LAYERS = (
    "netlist", "synthesis", "physical", "dfm", "faults", "atpg", "core",
    "runner",
)

# (module, attribute, layer).  ``repro.physical.pdesign`` is both a
# module and, as a package attribute, the re-exported function, so
# modules are reached through importlib.
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.flow", "pdesign", "physical"),
    ("repro.core.flow", "build_fault_set", "dfm"),
    ("repro.core.flow", "run_atpg", "atpg"),
    ("repro.core.flow", "cluster_undetectable", "core"),
    ("repro.core.flow", "cluster_undetectable_incremental", "core"),
    ("repro.core.resynthesis", "pdesign", "physical"),
    ("repro.core.resynthesis", "synthesize", "synthesis"),
    ("repro.core.resynthesis", "extract_subcircuit", "netlist"),
    ("repro.core.resynthesis", "replace_subcircuit", "netlist"),
    ("repro.core.resynthesis", "classify_internal", "atpg"),
    ("repro.physical.pdesign", "place", "physical"),
    ("repro.physical.pdesign", "route", "physical"),
    ("repro.physical.pdesign", "static_timing", "physical"),
    ("repro.physical.pdesign", "power_analysis", "physical"),
    ("repro.dfm.translate", "check_layout", "dfm"),
    ("repro.atpg.engine", "fault_simulate", "faults"),
    ("repro.atpg.compaction", "fault_simulate", "faults"),
    # Campaign tasks build their circuit inside the task.
    ("repro.bench", "build_benchmark", "netlist"),
)


class Tracer:
    """In-memory span recorder; spans are ``[name, layer, t0, t1, parent]``.

    ``counts`` sums :data:`SAT_EFFORT` over the ``run_atpg`` calls and,
    as ``faults_built``, the sizes of the fault sets ``build_fault_set``
    returns.  The program counts extracted faults only when the caller
    hands ``build_fault_set`` its stats, which a from-scratch analysis
    does not.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = dict.fromkeys(
            SAT_EFFORT + ("faults_built",), 0)
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if name == "run_atpg":
                for key in SAT_EFFORT:
                    counts[key] += getattr(result.stats, key)
            elif name == "build_fault_set":
                counts["faults_built"] += len(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, layer in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, attr, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def trace_process(span_dir: str) -> None:
    """Trace this interpreter until it exits, then write
    ``{"argv0": ..., "totals": ..., "counts": ...}`` to
    ``<span_dir>/<pid>.json`` (totals as :func:`summarize` gives them
    over the interpreter's life from this call to its exit).

    The fault-simulation pool workers the program forks end with
    ``os._exit`` and write nothing; the span around the call that used
    them covers their time.
    """
    t0 = time.perf_counter()
    tracer = Tracer()
    tracer.install()

    def dump() -> None:
        life = time.perf_counter() - t0
        record = {"argv0": os.path.basename(sys.argv[0]),
                  "totals": summarize(tracer.spans, life),
                  "counts": tracer.counts}
        with open(os.path.join(span_dir, f"{os.getpid()}.json"), "w") as fh:
            json.dump(record, fh)

    atexit.register(dump)


def summarize(spans: List[list], wall: float) -> Dict[str, float]:
    """Per-name and per-layer totals of *spans* over a *wall*-second
    timed section.

    A layer's busy time counts its outermost spans only (a span nested in
    a span of the same layer adds nothing); its self time sums each of
    its spans' duration minus that span's children, which equals busy
    time minus the time spent in other layers' spans below it.  The
    unattributed remainder is the timed wall time outside every span.
    """
    child_time = [0.0] * len(spans)
    for name, layer, t0, t1, parent in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    top = 0.0
    for i, (name, layer, t0, t1, parent) in enumerate(spans):
        dur = t1 - t0
        add(f"span.{name}.s", dur)
        add(f"span.{name}.calls", 1)
        add(f"{layer}.calls", 1)
        add(f"{layer}.self_s", dur - child_time[i])
        if parent is None:
            top += dur
        if parent is None or spans[parent][1] != layer:
            add(f"{layer}.busy_s", dur)
    out["trace.unattributed_s"] = max(0.0, wall - top)
    return out


def layer_metrics(span_totals: Dict[str, float], engine: Dict[str, object],
                  resynth: Optional[Dict[str, object]],
                  build_s: float) -> Dict[str, float]:
    """The benchmark's per-layer metrics of one in-process operation.

    *engine* is ``EngineStats.as_dict()`` (summed over analyses),
    *resynth* the ``ResynthesisStats`` fields plus ``iterations`` and
    ``accepted`` for a resynthesis run.
    """
    s = span_totals.get
    m: Dict[str, float] = {}
    for layer in LAYERS:
        if layer == "runner":
            continue
        m[f"{layer}.busy_s"] = s(f"{layer}.busy_s", 0.0)
        m[f"{layer}.self_s"] = s(f"{layer}.self_s", 0.0)
        m[f"{layer}.calls"] = s(f"{layer}.calls", 0)
    m.update({
        "physical.place_s": s("span.place.s", 0.0),
        "physical.place_calls": s("span.place.calls", 0),
        "physical.route_s": s("span.route.s", 0.0),
        "physical.sta_s": s("span.static_timing.s", 0.0),
        "physical.power_s": s("span.power_analysis.s", 0.0),
        "synthesis.synthesize_s": s("span.synthesize.s", 0.0),
        "synthesis.synthesize_calls": s("span.synthesize.calls", 0),
        "netlist.build_s": build_s,
        "netlist.replace_s": s("span.replace_subcircuit.s", 0.0),
        "netlist.extract_s": s("span.extract_subcircuit.s", 0.0),
        "dfm.check_s": s("span.check_layout.s", 0.0),
        "dfm.fault_set_s": s("span.build_fault_set.s", 0.0),
        "atpg.run_s": s("span.run_atpg.s", 0.0),
        "atpg.classify_internal_s": s("span.classify_internal.s", 0.0),
        "faults.fsim_s": s("span.fault_simulate.s", 0.0),
        "faults.fsim_calls": s("span.fault_simulate.calls", 0),
        "core.cluster_s": (
            s("span.cluster_undetectable.s", 0.0)
            + s("span.cluster_undetectable_incremental.s", 0.0)
        ),
        "trace.unattributed_s": s("trace.unattributed_s", 0.0),
    })
    m.update(engine_metrics(engine))
    m.update(core_metrics(resynth))
    m.update(runner_metrics(None))
    return m


def exact_counts(m: Dict[str, float]) -> Dict[str, int]:
    """The exact counters (``workloads.EXACT_COUNTERS``) of one traced
    operation, from its per-layer metrics *m*."""
    return {
        "sat_conflicts": m["atpg.sat_conflicts"],
        "sat_propagations": m["atpg.sat_propagations"],
        "events_propagated": m["faults.events_propagated"],
        "place_calls": int(m["physical.place_calls"]),
        "candidates_evaluated": m["core.candidates_evaluated"],
        "iterations": m["core.iterations"],
    }


def add_totals(totals: Dict[str, float], more: Dict[str, float]) -> None:
    """Add the span totals *more* into *totals*."""
    for key, value in more.items():
        totals[key] = totals.get(key, 0) + value


def sum_engine(dicts) -> Dict[str, object]:
    """Sum numeric ``EngineStats.as_dict()`` fields, phase times included."""
    total: Dict[str, object] = {"phase_seconds": {}}
    phases = total["phase_seconds"]
    for d in dicts:
        for key, value in d.items():
            if key == "phase_seconds":
                for phase, sec in value.items():
                    phases[phase] = phases.get(phase, 0.0) + sec
            elif isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def engine_metrics(engine: Dict[str, object]) -> Dict[str, float]:
    """Counters and phase times read from ``EngineStats.as_dict()``."""
    phase = engine.get("phase_seconds", {})
    proved = engine.get("verdicts_proved", 0)
    inherited = engine.get("verdicts_inherited", 0)
    carried = engine.get("faults_carried", 0)
    return {
        # Every fault of a built set is either carried over from the
        # previous design or extracted afresh.
        "dfm.faults_extracted": engine.get("faults_built", 0) - carried,
        "dfm.faults_carried": carried,
        "atpg.sat_s": phase.get("atpg.sat", 0.0),
        "atpg.random_s": phase.get("atpg.random", 0.0),
        "atpg.compaction_s": phase.get("atpg.compaction", 0.0),
        "atpg.initial_tests_s": phase.get("atpg.initial_tests", 0.0),
        "atpg.sat_calls": engine.get("sat_calls", 0),
        "atpg.sat_conflicts": engine.get("sat_conflicts", 0),
        "atpg.sat_propagations": engine.get("sat_propagations", 0),
        "atpg.verdicts_proved": proved,
        "atpg.verdicts_inherited": inherited,
        "atpg.inherit_ratio": (
            inherited / (inherited + proved) if inherited + proved else 0.0
        ),
        "faults.faults_simulated": engine.get("faults_simulated", 0),
        "faults.events_propagated": engine.get("events_propagated", 0),
    }


def core_metrics(resynth: Optional[Dict[str, object]]) -> Dict[str, float]:
    """Resynthesis-procedure counters (zero for a plain analysis)."""
    r = resynth or {}
    iterations = r.get("iterations", 0)
    hits = r.get("candidate_cache_hits", 0)
    lookups = hits + r.get("candidate_cache_misses", 0)
    return {
        "core.iterations": iterations,
        "core.accept_ratio": (
            r.get("accepted", 0) / iterations if iterations else 0.0
        ),
        "core.candidates_evaluated": r.get("candidates_evaluated", 0),
        "core.candidate_hit_ratio": hits / lookups if lookups else 0.0,
        "core.backtrack_attempts": r.get("backtrack_attempts", 0),
    }


def runner_metrics(r: Optional[Dict[str, float]]) -> Dict[str, float]:
    """Campaign-runner metrics (zero for in-process workloads)."""
    r = r or {}
    keys = ("makespan_s", "busy_s", "queue_wait_s", "overhead_s",
            "concurrency", "tasks_failed", "retries", "calls")
    return {f"runner.{k}": r.get(k, 0) for k in keys}
