"""Differential tests: fault simulation in a fresh process vs in-process.

The project's one parallel layer is the campaign runner's ``--jobs``;
with ``--isolation process`` every task runs in its pool lane's worker
interpreter — one long-lived process per lane, with its own imports and
hash seed, whose memo tables the lane's earlier tasks may have warmed —
and its Table I/II numbers must equal an inline run's bit for bit.
This suite locks that in at the engine level by computing in a child
interpreter
(:func:`tests.conftest.call_in_fresh_process`) and comparing against the
in-process serial path:

* detect-word bit-identity on every bundled benchmark circuit for seeds
  {0, 1, 2};
* end-to-end through ``run_atpg``: identical detected / undetectable /
  aborted partitions, tests and coverage;
* ``EngineStats`` equality, counter by counter (each side simulates a
  freshly built circuit, so per-plan caches start cold on both);
* the ``detected_by_patterns`` wrapper.

Each group of child-side computations runs in one child interpreter per
module run, so the suite pays one interpreter start-up per group.
"""

from __future__ import annotations

import pytest

from repro.atpg.engine import run_atpg
from repro.bench.circuits import BENCHMARKS, build_benchmark
from repro.faults.fsim import (
    PatternBatch,
    fault_simulate,
)
from repro.library import osu018_library
from repro.utils.observability import EngineStats
from tests.conftest import (
    call_in_fresh_process,
    mixed_fault_list,
    random_mapped_circuit,
)
from tests.sim_helpers import detected_by_patterns

SEEDS = [0, 1, 2]

# The fault-simulation engine under test, carried in every test ID.
ENGINES = ["event"]

# Benchmark circuits are expensive to synthesize; build each once for
# the whole module run (on either side of the process boundary).
_BENCH_CACHE = {}


def _bench(name, library):
    circuit = _BENCH_CACHE.get(name)
    if circuit is None:
        circuit = build_benchmark(name, library)
        _BENCH_CACHE[name] = circuit
    return circuit


def _cells(library):
    return {c.name: c for c in library}


def _bench_workload(name, seed, library):
    circuit = _bench(name, library)
    faults = mixed_fault_list(circuit, library, seed=seed, per_kind=6)
    batch = PatternBatch.random(circuit, 200, seed=seed)
    return circuit, faults, batch


def _atpg_partition(cells, library, seed):
    circuit = random_mapped_circuit(cells, seed=seed)
    faults = mixed_fault_list(circuit, library, seed=seed)
    result = run_atpg(circuit, cells, faults, seed=seed)
    return (
        result.detected, result.undetectable, result.aborted,
        result.tests, result.coverage,
    )


def _stats_run(cells, library):
    # A freshly built circuit: per-plan caches start cold on each side.
    circuit = random_mapped_circuit(cells, seed=21)
    faults = mixed_fault_list(circuit, library, seed=21)
    batch = PatternBatch.random(circuit, 128, seed=3)
    stats = EngineStats()
    words = fault_simulate(circuit, cells, faults, batch, stats=stats)
    return words, stats.as_dict()


def _pattern_flags(cells, library):
    circuit = random_mapped_circuit(cells, seed=9)
    faults = mixed_fault_list(circuit, library, seed=9)
    gen = PatternBatch.random(circuit, 150, seed=13)
    pairs = [
        (
            {pi: (gen.frame1[pi] >> i) & 1 for pi in circuit.inputs},
            {pi: (gen.frame2[pi] >> i) & 1 for pi in circuit.inputs},
        )
        for i in range(150)
    ]
    return detected_by_patterns(circuit, cells, faults, pairs)


# ----------------------------------------------------------------------
# Child side: one call per group, run by call_in_fresh_process
# ----------------------------------------------------------------------

def _child_bench_words(jobs):
    library = osu018_library()
    cells = _cells(library)
    out = []
    for name, seed in jobs:
        circuit, faults, batch = _bench_workload(name, seed, library)
        out.append(fault_simulate(circuit, cells, faults, batch))
    return out


def _child_small():
    library = osu018_library()
    cells = _cells(library)
    out = {
        "stats": _stats_run(cells, library),
        "patterns": _pattern_flags(cells, library),
    }
    for seed in (0, 1):
        out["atpg", seed] = _atpg_partition(cells, library, seed)
    return out


@pytest.fixture(scope="module")
def child_bench_words():
    jobs = [(name, seed) for name in sorted(BENCHMARKS) for seed in SEEDS]
    words = call_in_fresh_process(f"{__name__}:_child_bench_words", jobs)
    return dict(zip(jobs, words))


@pytest.fixture(scope="module")
def child_small():
    return call_in_fresh_process(f"{__name__}:_child_small")


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_process_matches_serial_on_benchmarks(
    cells, library, child_bench_words, name, seed, engine
):
    circuit, faults, batch = _bench_workload(name, seed, library)
    serial = fault_simulate(circuit, cells, faults, batch)
    assert len(serial) == len(faults)
    assert child_bench_words[name, seed] == serial


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", [0, 1])
def test_run_atpg_process_bit_identity(
    cells, library, child_small, seed, engine
):
    """Same seed ⇒ the whole ATPG result matches across the boundary."""
    serial = _atpg_partition(cells, library, seed)
    proc = child_small["atpg", seed]
    detected, undetectable, aborted, tests, coverage = serial
    assert proc[0] == detected
    assert proc[1] == undetectable
    assert proc[2] == aborted
    assert proc[3] == tests
    assert proc[4] == coverage
    assert detected  # non-degenerate run


@pytest.mark.parametrize("engine", ENGINES)
def test_all_stats_counters_identical_serial_vs_process(
    cells, library, child_small, engine
):
    """A run in a fresh interpreter reports the test process's counters,
    counter by counter, apart from wall clock."""
    serial_words, serial_stats = _stats_run(cells, library)
    proc_words, proc_stats = child_small["stats"]
    assert serial_words == proc_words
    assert list(serial_stats) == list(proc_stats)
    for key in serial_stats:
        if key == "phase_seconds":
            continue
        assert serial_stats[key] == proc_stats[key], (
            f"{key}: serial={serial_stats[key]} process={proc_stats[key]}"
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_detected_by_patterns_process(cells, library, child_small, engine):
    serial = _pattern_flags(cells, library)
    assert child_small["patterns"] == serial
    assert any(serial)
