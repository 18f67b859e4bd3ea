"""Engine observability counters and the compile-count regression.

The original hot path recompiled a cell evaluator for every gate popped
off the propagation queue; ``test_compile_count_stays_bounded`` pins the
fix by asserting the plan compiles one gate-evaluator factory per
distinct (arity, truth table) for the first batch and none afterwards,
no matter how many faults or events a batch propagates.
"""

from __future__ import annotations

from dataclasses import fields

import repro.netlist.simulator as sim
from repro.atpg.engine import run_atpg
from repro.faults.fsim import PatternBatch, fault_simulate
from repro.faults.sites import enumerate_internal_faults
from repro.utils.observability import EngineStats, ResynthesisStats
from tests.conftest import mixed_fault_list, random_mapped_circuit


def test_compile_count_stays_bounded(cells, monkeypatch):
    circuit = random_mapped_circuit(cells, seed=90)
    faults = mixed_fault_list(circuit, seed=9)
    distinct = {
        (len(cells[g.cell].input_pins), cells[g.cell].tt)
        for g in circuit.gates.values()
    }
    sim.clear_compiled_cache()
    calls = []
    real = sim.compile_gate_eval

    def counting(n_inputs, tt):
        calls.append((n_inputs, tt))
        return real(n_inputs, tt)

    monkeypatch.setattr(sim, "compile_gate_eval", counting)
    stats = EngineStats()
    batch = PatternBatch.random(circuit, 32, seed=1)
    fault_simulate(circuit, cells, faults, batch, stats=stats)
    # First batch: one compile per distinct (n_inputs, truth table) —
    # never per gate, per fault, or per propagated event.
    assert 0 < len(calls) <= len(distinct)
    assert stats.events_propagated > len(distinct)  # plenty of pops happened

    first = len(calls)
    for seed in (2, 3, 4):
        batch = PatternBatch.random(circuit, 32, seed=seed)
        fault_simulate(circuit, cells, faults, batch, stats=stats)
    assert len(calls) == first  # later batches reuse the cached plan


def test_run_atpg_populates_stats(adder4, cells, library):
    faults = enumerate_internal_faults(adder4, library)
    # Skip the random phase so the SAT phase has real work left.
    result = run_atpg(adder4, cells, faults, seed=1, random_rounds=0)
    stats = result.stats
    assert stats.faults_simulated > 0
    assert stats.events_propagated > 0
    assert stats.batches > 0
    assert stats.sat_calls == result.sat_calls > 0
    assert stats.sat_propagations >= stats.sat_conflicts >= 0
    assert stats.sat_propagations > 0
    for phase in ("atpg.random", "atpg.sat", "atpg.compaction"):
        assert stats.phase_seconds.get(phase, -1.0) >= 0.0
    # Re-running with inherited tests exercises the initial-tests phase.
    again = run_atpg(adder4, cells, faults, seed=1,
                     initial_tests=result.tests)
    assert again.stats.phase_seconds.get("atpg.initial_tests", -1.0) >= 0.0
    assert again.undetectable == result.undetectable


def _populated():
    """An EngineStats with every field set to a distinct value."""
    blank = EngineStats()
    values = {}
    for i, f in enumerate(fields(EngineStats)):
        default = getattr(blank, f.name)
        if isinstance(default, dict):
            values[f.name] = {"key": i + 1}
        elif isinstance(default, list):
            values[f.name] = [f"{f.name}-record"]
        else:
            values[f.name] = i + 1
    return EngineStats(**values)


def test_stats_merge_and_as_dict():
    a = EngineStats(faults_simulated=3, sat_calls=1)
    a.add_phase("x", 0.5)
    a.add_phase("x", 0.25)
    a.add_phase("y", 1.0)
    assert a.phase_seconds == {"x": 0.75, "y": 1.0}
    d = a.as_dict()
    assert d["faults_simulated"] == 3
    assert d["phase_seconds"]["y"] == 1.0

    # as_dict covers every field in declaration order, with containers
    # copied rather than shared.
    full = _populated()
    snap = full.as_dict()
    assert list(snap) == [
        "faults_simulated", "events_propagated",
        "verdicts_inherited", "verdicts_proved",
        "faults_extracted",
        "batches", "sat_calls", "sat_conflicts", "sat_propagations", "sat_learned",
        "sat_restarts", "sat_lemmas_reused", "sat_aborts",
        "sat_abort_reasons", "verdicts_aborted", "degradations",
        "phase_seconds",
    ]
    for f in fields(EngineStats):
        assert snap[f.name] == getattr(full, f.name)
    snap["degradations"].append("mutated")
    snap["phase_seconds"]["mutated"] = 1.0
    assert "mutated" not in full.degradations
    assert "mutated" not in full.phase_seconds

    resyn = ResynthesisStats(candidates_evaluated=2, engine=full)
    resyn_snap = resyn.as_dict()
    assert list(resyn_snap) == [
        "candidates_evaluated", "candidate_cache_hits",
        "candidate_cache_misses", "backtrack_attempts", "engine",
    ]
    assert resyn_snap["candidates_evaluated"] == 2
    assert resyn_snap["engine"] == full.as_dict()


def test_one_plan_per_circuit(library, adder4, monkeypatch):
    """PDesign, the internal classification and the full analysis of one
    circuit share one compiled plan: plans are cached per cell mapping,
    and the library hands every caller the same one."""
    from repro.core.flow import analyze_design, classify_internal

    builds = []
    real_init = sim.CompiledCircuit.__init__

    def counting_init(self, circuit, cells):
        builds.append(circuit)
        real_init(self, circuit, cells)

    monkeypatch.setattr(sim.CompiledCircuit, "__init__", counting_init)
    state = analyze_design(adder4, library)  # PDesign's power analysis
    classify_internal(adder4, library)
    analyze_design(adder4, library, physical=state.physical)
    assert builds == [adder4]
