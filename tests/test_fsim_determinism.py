"""Determinism of the engine under concurrent callers.

The campaign runner's inline ``--jobs`` executes tasks on threads of one
process, so concurrent analyses of one circuit share its compiled plan
(racing workers may each build it; the last store wins) and the
process-wide evaluator cache.  The number of such
workers is a throughput knob, never a semantics knob: detect words, ATPG
classification, generated tests, coverage and every effort counter must
be byte-identical between a lone serial call and each of ``WORKERS``
calls racing on the same circuit.  Also pins the 64-pattern
word-boundary behaviour of ``detected_by_patterns``.
"""

from __future__ import annotations

import random

import pytest

from repro.atpg.engine import run_atpg
from repro.faults.fsim import PatternBatch, detected_by_patterns, fault_simulate
from repro.faults.sites import enumerate_internal_faults
from repro.utils.observability import EngineStats
from tests.conftest import mixed_fault_list, on_workers, random_mapped_circuit
from tests.fsim_reference import reference_detect_words

WORKERS = 4


def _on_workers(fn):
    return on_workers(fn, WORKERS)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fault_simulate_workers_bit_identical(cells, library, seed):
    circuit = random_mapped_circuit(cells, seed=seed + 50)
    faults = mixed_fault_list(circuit, library=library, seed=seed)
    batch = PatternBatch.random(circuit, 48, seed=seed)
    serial = fault_simulate(circuit, cells, faults, batch)
    # A second, cold copy of the circuit: the workers race to build its
    # plan and fill its caches.
    shared = random_mapped_circuit(cells, seed=seed + 50)
    parallel = _on_workers(
        lambda _i: fault_simulate(shared, cells, faults, batch)
    )
    assert all(words == serial for words in parallel)
    assert any(serial)


def test_parallel_events_match_serial(cells, library):
    """Concurrent callers each count exactly their own events."""
    circuit = random_mapped_circuit(cells, seed=60)
    faults = mixed_fault_list(circuit, library=library, seed=6)
    batch = PatternBatch.random(circuit, 32, seed=6)
    s1 = EngineStats()
    fault_simulate(circuit, cells, faults, batch, stats=s1)
    views = [EngineStats() for _ in range(WORKERS)]
    _on_workers(
        lambda i: fault_simulate(circuit, cells, faults, batch,
                                 stats=views[i])
    )
    assert s1.events_propagated > 0
    for view in views:
        assert view.events_propagated == s1.events_propagated
        assert view.faults_simulated == s1.faults_simulated == len(faults)


@pytest.mark.parametrize("n_pairs", [63, 64, 65])
def test_detected_by_patterns_word_boundary(cells, library, n_pairs):
    """Pair counts straddling the 64-bit packing boundary stay exact."""
    circuit = random_mapped_circuit(cells, n_gates=40, seed=70)
    faults = mixed_fault_list(circuit, library=library, seed=7, per_kind=5)
    rng = random.Random(n_pairs)
    pairs = [
        (
            {pi: rng.randint(0, 1) for pi in circuit.inputs},
            {pi: rng.randint(0, 1) for pi in circuit.inputs},
        )
        for _ in range(n_pairs)
    ]
    flags = detected_by_patterns(circuit, cells, faults, pairs)
    words = reference_detect_words(circuit, cells, faults, pairs)
    assert flags == [w != 0 for w in words]
    assert any(flags) and not all(flags)


def test_run_atpg_workers_byte_identical(adder4, cells, library):
    """Full ATPG: tests, classification, coverage identical across workers."""
    faults = enumerate_internal_faults(adder4, library)
    faults += mixed_fault_list(adder4, seed=8, per_kind=4)
    # The workers go first, on the cold circuit; the serial reference
    # then runs against the caches they left behind.
    parallel = _on_workers(
        lambda _i: run_atpg(adder4, cells, faults, seed=3)
    )
    serial = run_atpg(adder4, cells, faults, seed=3)
    for result in parallel:
        assert result.tests == serial.tests
        assert result.detected == serial.detected
        assert result.undetectable == serial.undetectable
        assert result.coverage == serial.coverage
        assert result.sat_calls == serial.sat_calls
    assert serial.detected  # non-degenerate run


def test_all_stats_counters_identical_serial_vs_parallel(cells, library):
    """The worker count must not change any effort counter.

    Each run simulates its own freshly built circuit, and each
    concurrent worker must report exactly the counters a lone serial run
    does.  Excluded by design: wall-clock phases.
    """
    def run(_i=0):
        circuit = random_mapped_circuit(cells, seed=55)
        faults = mixed_fault_list(circuit, library=library, seed=5)
        batch = PatternBatch.random(circuit, 48, seed=5)
        stats = EngineStats()
        out = fault_simulate(circuit, cells, faults, batch, stats=stats)
        return out, stats.as_dict()

    out1, serial = run()
    for out, parallel in _on_workers(run):
        assert out == out1
        for key in serial:
            if key == "phase_seconds":
                continue
            assert parallel[key] == serial[key], key
