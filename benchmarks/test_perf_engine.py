"""Performance harness for the fault-analysis engine.

Benchmarks ``fault_simulate`` on the largest bench circuit against a
faithful copy of the pre-optimization serial engine (string-keyed nets,
per-event evaluator lookups, no compiled plan), checks the optimized
results are bit-identical to the baseline *and* to the naive
one-pattern-at-a-time oracle in ``tests/fsim_reference.py``, and appends
a trajectory point to ``benchmarks/results/BENCH_engine.json`` so
speedups and engine counters can be tracked across revisions.  The
baseline's good-value simulation, evaluator compiler and cell-aware
faulty word are the frozen copies in ``tests/fsim_event_reference.py``,
so no change to the live engine moves the baseline.

Run with: ``PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py -s``

Knobs: ``REPRO_PERF_FAULTS`` (fault-sample cap, default 600),
``REPRO_PERF_BATCHES`` (64-pattern batches, default 3).
"""

from __future__ import annotations

import heapq
import json
import os
import random
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import pytest

from benchmarks.conftest import emit_report, get_library
from repro.bench import build_benchmark
from repro.faults.fsim import PatternBatch, fault_simulate
from repro.faults.model import (
    FALL,
    RISE,
    BridgingFault,
    CellAwareFault,
    Fault,
    StuckAtFault,
    TransitionFault,
)
from repro.faults.sites import enumerate_internal_faults
from repro.netlist.circuit import Circuit
from repro.utils.observability import EngineStats
from tests.fsim_event_reference import (
    _cell_faulty_word,
    compile_cell_eval,
    simulate,
)
from tests.fsim_reference import reference_fault_simulate

pytestmark = [pytest.mark.perf, pytest.mark.slow]

CIRCUIT = "aes_core"  # largest gate count in repro.bench.BENCHMARKS
N_FAULTS = int(os.environ.get("REPRO_PERF_FAULTS", "600"))
N_BATCHES = int(os.environ.get("REPRO_PERF_BATCHES", "3"))
MIN_SPEEDUP = 2.0


# ----------------------------------------------------------------------
# Baseline: the seed engine's serial path, copied verbatim (modulo
# renames).  String-keyed value dicts, loads/topo lookups through the
# Circuit API, and an evaluator lookup per popped event — everything the
# compiled plan eliminates.  Kept here so the benchmark always compares
# against the same fixed starting point.
# ----------------------------------------------------------------------
class _BaselineContext:
    def __init__(self, circuit, cells, batch):
        self.circuit = circuit
        self.cells = cells
        self.mask = batch.mask
        self.good1 = simulate(circuit, cells, batch.frame1, self.mask)
        self.good2 = simulate(circuit, cells, batch.frame2, self.mask)
        self.topo_index = {g: i for i, g in enumerate(circuit.topo_order())}
        self.po_set = set(circuit.outputs)

    def propagate(self, overrides: Dict[str, int], activation: int) -> int:
        if not activation:
            return 0
        circuit, good = self.circuit, self.good2
        fv: Dict[str, int] = {}
        detect = 0
        heap: List[Tuple[int, str]] = []
        queued = set()

        def schedule_loads(net: str) -> None:
            for gname, _pin in circuit.loads(net):
                if gname not in queued:
                    queued.add(gname)
                    heapq.heappush(heap, (self.topo_index[gname], gname))

        for net, value in overrides.items():
            value &= self.mask
            if value != (good[net] & self.mask):
                fv[net] = value
                if net in self.po_set:
                    detect |= (value ^ good[net])
                schedule_loads(net)
        while heap:
            _, gname = heapq.heappop(heap)
            gate = circuit.gates[gname]
            if gate.output in overrides:
                continue
            cell = self.cells[gate.cell]
            fn = compile_cell_eval(len(cell.input_pins), cell.tt)
            ins = [
                fv.get(gate.pins[p], good[gate.pins[p]])
                for p in cell.input_pins
            ]
            new = fn(*ins, self.mask)
            old = fv.get(gate.output, good[gate.output])
            if new == old:
                continue
            fv[gate.output] = new
            if gate.output in self.po_set:
                detect |= (new ^ good[gate.output])
            queued.discard(gname)
            schedule_loads(gate.output)
        return detect & activation


def _baseline_branch_overrides(ctx, net, branch, forced):
    if branch is None:
        return {net: forced}, True
    gname, pin = branch
    gate = ctx.circuit.gates.get(gname)
    if gate is None or gate.pins.get(pin) != net:
        return {}, False
    cell = ctx.cells[gate.cell]
    fn = compile_cell_eval(len(cell.input_pins), cell.tt)
    ins = []
    for p in cell.input_pins:
        if p == pin:
            ins.append(forced & ctx.mask)
        else:
            ins.append(ctx.good2[gate.pins[p]])
    return {gate.output: fn(*ins, ctx.mask)}, True


def _baseline_simulate_one(ctx, fault: Fault) -> int:
    mask = ctx.mask
    circuit = ctx.circuit
    if isinstance(fault, StuckAtFault):
        if fault.net not in ctx.good2:
            return 0
        forced = mask if fault.value else 0
        overrides, ok = _baseline_branch_overrides(
            ctx, fault.net, fault.branch, forced)
        if not ok:
            return 0
        activation = (ctx.good2[fault.net] ^ forced) & mask
        return ctx.propagate(overrides, activation)
    if isinstance(fault, TransitionFault):
        if fault.net not in ctx.good2:
            return 0
        init = mask if fault.initial_value else 0
        initialized = ~(ctx.good1[fault.net] ^ init) & mask
        if not initialized:
            return 0
        forced = mask if fault.stuck_value else 0
        overrides, ok = _baseline_branch_overrides(
            ctx, fault.net, fault.branch, forced)
        if not ok:
            return 0
        activation = (ctx.good2[fault.net] ^ forced) & initialized
        return ctx.propagate(overrides, activation)
    if isinstance(fault, BridgingFault):
        if fault.victim not in ctx.good2 or fault.aggressor not in ctx.good2:
            return 0
        aggr = ctx.good2[fault.aggressor]
        activation = (ctx.good2[fault.victim] ^ aggr) & mask
        return ctx.propagate({fault.victim: aggr}, activation)
    if isinstance(fault, CellAwareFault):
        gate = circuit.gates.get(fault.gate)
        if gate is None:
            return 0
        cell = ctx.cells[gate.cell]
        in2 = [ctx.good2[gate.pins[p]] for p in cell.input_pins]
        good_out = ctx.good2[gate.output]
        frame1 = None
        if fault.defect.floating:
            frame1 = [ctx.good1[gate.pins[p]] for p in cell.input_pins]
        faulty = _cell_faulty_word(
            fault.defect, in2, good_out, mask, frame1_words=frame1)
        activation = (faulty ^ good_out) & mask
        return ctx.propagate({gate.output: faulty}, activation)
    raise TypeError(type(fault).__name__)


def baseline_fault_simulate(circuit, cells, faults, batch) -> List[int]:
    ctx = _BaselineContext(circuit, cells, batch)
    return [_baseline_simulate_one(ctx, f) for f in faults]


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def _workload() -> Tuple[Circuit, Dict, List[Fault], List[PatternBatch]]:
    library = get_library()
    cells = {c.name: c for c in library}
    circuit = build_benchmark(CIRCUIT, library)
    rng = random.Random(2019)
    faults: List[Fault] = list(enumerate_internal_faults(circuit, library))
    nets = list(circuit.inputs) + [
        g.output for g in circuit.gates.values()]
    for net in rng.sample(nets, min(120, len(nets))):
        faults.append(StuckAtFault(f"sa0:{net}", "g", net=net, value=0))
        faults.append(StuckAtFault(f"sa1:{net}", "g", net=net, value=1))
        faults.append(
            TransitionFault(f"tr:{net}", "g", net=net, slow_to=RISE))
        faults.append(
            TransitionFault(f"tf:{net}", "g", net=net, slow_to=FALL))
    for k in range(60):
        victim, aggressor = rng.sample(nets, 2)
        faults.append(BridgingFault(
            f"br{k}", "g", victim=victim, aggressor=aggressor))
    if len(faults) > N_FAULTS:
        faults = rng.sample(faults, N_FAULTS)
    batches = [
        PatternBatch.random(circuit, 64, seed=s) for s in range(N_BATCHES)]
    return circuit, cells, faults, batches


def _plan_compiles(circuit, cells) -> int:
    from repro.netlist.simulator import CompiledCircuit

    return CompiledCircuit.get(circuit, cells).eval_compiles


def _time_engine(fn, batches, repeats: int = 2) -> Tuple[float, List[List[int]]]:
    """Best-of-*repeats* wall time to simulate all *batches*."""
    best = float("inf")
    words: List[List[int]] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        words = [fn(b) for b in batches]
        best = min(best, time.perf_counter() - t0)
    return best, words


def test_engine_speedup_and_equivalence():
    circuit, cells, faults, batches = _workload()
    stats = EngineStats()

    t_base, base_words = _time_engine(
        lambda b: baseline_fault_simulate(circuit, cells, faults, b),
        batches)
    t_serial, serial_words = _time_engine(
        lambda b: fault_simulate(circuit, cells, faults, b, stats=stats),
        batches)

    # Correctness first: optimized engine bit-identical to the seed
    # baseline.
    assert serial_words == base_words

    # Differential spot check against the naive oracle on a subset
    # (the oracle is O(faults x patterns x gates) — keep it small).
    sub_faults = faults[:: max(1, len(faults) // 30)]
    sub_batch = PatternBatch.random(circuit, 12, seed=99)
    got = fault_simulate(circuit, cells, sub_faults, sub_batch)
    want = reference_fault_simulate(circuit, cells, sub_faults, sub_batch)
    assert got == want

    speedup_serial = t_base / t_serial if t_serial else float("inf")

    point = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "circuit": CIRCUIT,
        "gates": len(circuit),
        "faults": len(faults),
        "batches": len(batches),
        "patterns_per_batch": 64,
        "baseline_seconds": round(t_base, 4),
        "engine_seconds": round(t_serial, 4),
        "speedup_serial": round(speedup_serial, 2),
        "eval_compiles": _plan_compiles(circuit, cells),
        "stats": stats.as_dict(),
    }
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "BENCH_engine.json")
    trajectory: List[dict] = []
    if os.path.exists(path):
        with open(path) as fh:
            trajectory = json.load(fh)
    trajectory.append(point)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")

    lines = [
        f"engine perf on {CIRCUIT} "
        f"({len(circuit)} gates, {len(faults)} faults, "
        f"{len(batches)}x64 patterns)",
        f"  baseline (seed serial): {t_base:.3f}s",
        f"  optimized:              {t_serial:.3f}s "
        f"({speedup_serial:.2f}x)",
        f"  events propagated: {stats.events_propagated}, "
        f"eval compiles: {_plan_compiles(circuit, cells)}",
    ]
    emit_report("BENCH_engine", "\n".join(lines))

    assert speedup_serial >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x over the seed serial engine, "
        f"got {speedup_serial:.2f}x"
    )
