"""Engine throughput on an ingested ≥5k-gate foreign benchmark.

The bundled ``mul32`` array multiplier (ISCAS ``.bench``, ~6k mapped
gates) is ingested end to end — parse, link-check, technology-map,
lint — and then pushed through the two heavy engines:

* fault simulation of one large pattern batch (4096 pairs by default)
  in a single pass, recording its fault-pattern throughput;
* ``run_atpg`` on a fault sample.

A trajectory point lands in ``benchmarks/results/BENCH_ingest.json``.

Run with:
``PYTHONPATH=src python -m pytest benchmarks/test_perf_ingest.py -s``

Knobs: ``REPRO_PERF_INGEST_CIRCUIT`` (default ``mul32``),
``REPRO_PERF_INGEST_PATTERNS`` (default 4096),
``REPRO_PERF_INGEST_FAULTS`` (fault-sim sample, default 300),
``REPRO_PERF_INGEST_ATPG_FAULTS`` (ATPG sample, default 48).
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import List

import pytest

from benchmarks.conftest import emit_report, get_library
from repro.atpg.budget import AtpgBudget
from repro.atpg.engine import run_atpg
from repro.faults.fsim import PatternBatch, fault_simulate
from repro.faults.model import FALL, RISE, StuckAtFault, TransitionFault
from repro.faults.sites import enumerate_internal_faults
from repro.netlist.ingest import bundled_path, ingest_file
from repro.netlist.simulator import CompiledCircuit

pytestmark = [pytest.mark.perf, pytest.mark.slow]

CIRCUIT = os.environ.get("REPRO_PERF_INGEST_CIRCUIT", "mul32")
N_PATTERNS = int(os.environ.get("REPRO_PERF_INGEST_PATTERNS", "4096"))
N_FAULTS = int(os.environ.get("REPRO_PERF_INGEST_FAULTS", "300"))
N_ATPG_FAULTS = int(os.environ.get("REPRO_PERF_INGEST_ATPG_FAULTS", "48"))


def _fault_sample(circuit, library, n: int, seed: int = 2026) -> List:
    rng = random.Random(seed)
    faults = list(enumerate_internal_faults(circuit, library))
    nets = list(circuit.inputs) + [g.output for g in circuit.gates.values()]
    for net in rng.sample(nets, min(150, len(nets))):
        faults.append(StuckAtFault(f"sa0:{net}", "g", net=net, value=0))
        faults.append(StuckAtFault(f"sa1:{net}", "g", net=net, value=1))
        faults.append(TransitionFault(f"tr:{net}", "g", net=net, slow_to=RISE))
        faults.append(TransitionFault(f"tf:{net}", "g", net=net, slow_to=FALL))
    if len(faults) > n:
        faults = rng.sample(faults, n)
    return faults


def test_ingested_benchmark_throughput():
    library = get_library()
    cells = {c.name: c for c in library}

    # --- ingestion itself: parse + link + map + lint ---------------
    path = bundled_path(CIRCUIT)
    t0 = time.perf_counter()
    design = ingest_file(path, cells=cells)
    t_ingest = time.perf_counter() - t0
    assert design.ok, design.report.render()
    circuit = design.circuit
    n_gates = len(circuit.gates)
    assert n_gates >= 5000, (
        f"perf harness needs a >=5k-gate design, {CIRCUIT} mapped to "
        f"{n_gates} gates"
    )

    # --- fault simulation, one pass over the whole batch ------------
    faults = _fault_sample(circuit, library, N_FAULTS)
    batch = PatternBatch.random(circuit, N_PATTERNS, seed=7)

    CompiledCircuit.get(circuit, cells)  # build the plan outside the timing
    t0 = time.perf_counter()
    fault_simulate(circuit, cells, faults, batch)
    t_serial = time.perf_counter() - t0
    fp = len(faults) * batch.n

    # --- ATPG ------------------------------------------------------
    atpg_faults = _fault_sample(circuit, library, N_ATPG_FAULTS, seed=11)
    budget = AtpgBudget(deadline_ms=2000.0)

    t0 = time.perf_counter()
    serial_res = run_atpg(
        circuit, cells, atpg_faults, seed=3, random_rounds=4,
        budget=budget,
    )
    t_atpg = time.perf_counter() - t0

    point = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "circuit": CIRCUIT,
        "source": os.path.basename(path),
        "gates": n_gates,
        "inputs": len(circuit.inputs),
        "outputs": len(circuit.outputs),
        "ingest_seconds": round(t_ingest, 4),
        "ingest_gates_per_second": round(n_gates / t_ingest),
        "fsim": {
            "faults": len(faults),
            "patterns": batch.n,
            "serial_seconds": round(t_serial, 4),
            "serial_fault_patterns_per_second": round(fp / t_serial),
        },
        "atpg": {
            "faults": len(atpg_faults),
            "serial_seconds": round(t_atpg, 4),
            "detected": len(serial_res.detected),
            "undetectable": len(serial_res.undetectable),
            "aborted": len(serial_res.aborted),
            "tests": len(serial_res.tests),
            "sat_calls": serial_res.stats.sat_calls,
        },
    }

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    out = os.path.join(results_dir, "BENCH_ingest.json")
    trajectory: List[dict] = []
    if os.path.exists(out):
        with open(out) as fh:
            trajectory = json.load(fh)
    trajectory.append(point)
    with open(out, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")

    emit_report("BENCH_ingest", "\n".join([
        f"ingest perf on {CIRCUIT} ({n_gates} gates from "
        f"{os.path.basename(path)})",
        f"  ingest (parse+link+map+lint): {t_ingest:.3f}s "
        f"({point['ingest_gates_per_second']} gates/s)",
        f"  fault sim ({len(faults)} faults x {batch.n} patterns): "
        f"{t_serial:.3f}s "
        f"({point['fsim']['serial_fault_patterns_per_second']} "
        f"fault-patterns/s)",
        f"  run_atpg ({len(atpg_faults)} faults): {t_atpg:.3f}s, "
        f"{len(serial_res.detected)} det / "
        f"{len(serial_res.undetectable)} undet / "
        f"{len(serial_res.aborted)} aborted, "
        f"{len(serial_res.tests)} tests",
    ]))
