"""Differential suite: the fault-simulation event loop against its reference.

``tests/fsim_event_reference.py`` holds the engine as it stood before
the bit queue: a heap of gate indices with in-queue flags and load
lists, two-level per-gate closures, an overrides dict and the
cell-aware minterm loop.  Both engines must pop gates in ascending
topological index and stop each fault at the same point, so every
:func:`fault_simulate` call must return the reference's detect words
*and* add the same ``events_propagated`` (and batch/fault counts) to its
stats — the counter perfbench pins and the early exit decides.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import BENCHMARKS, build_benchmark
from repro.dfm.translate import build_fault_set
from repro.faults.fsim import PatternBatch, fault_simulate
from repro.faults.model import CellAwareFault
from repro.library.defects import DYNAMIC, STATIC, CellDefect
from repro.netlist.ingest import bundled_path, ingest_file
from repro.physical.pdesign import pdesign
from repro.utils.observability import EngineStats
from tests.conftest import mixed_fault_list, random_mapped_circuit
from tests.fsim_event_reference import event_fault_simulate

_FAULT_SETS = {}


def _assert_same(circuit, cells, faults, batch):
    """One call of each engine: equal words and equal counters."""
    got_stats = EngineStats()
    want_stats = EngineStats()
    got = fault_simulate(circuit, cells, faults, batch, stats=got_stats)
    want = event_fault_simulate(
        circuit, cells, faults, batch, stats=want_stats)
    assert got == want
    assert got_stats.as_dict() == want_stats.as_dict()
    return got, got_stats.events_propagated


def _analysis_fault_set(name, library):
    """The circuit and the fault set ``analyze_design`` grades on it."""
    if name not in _FAULT_SETS:
        circuit = build_benchmark(name, library)
        layout = pdesign(circuit, library.cells, seed=0).layout
        _FAULT_SETS[name] = (
            circuit, build_fault_set(circuit, library, layout).faults)
    return _FAULT_SETS[name]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_bench_fault_sets_identical(library, name):
    circuit, faults = _analysis_fault_set(name, library)
    assert {f.origin for f in faults} == {"internal", "external"}
    for n_pairs in (1, 16, 64):
        batch = PatternBatch.random(circuit, n_pairs, seed=n_pairs)
        words, _ = _assert_same(circuit, library.cells, faults, batch)
        assert any(words)


def test_mul32_identical(library):
    design = ingest_file(bundled_path("mul32"), cells=library.cells)
    circuit = design.circuit
    faults = mixed_fault_list(circuit, library, seed=32, per_kind=40)
    batch = PatternBatch.random(circuit, 64, seed=32)
    words, events = _assert_same(circuit, library.cells, faults, batch)
    assert any(words) and events > len(faults)


def _random_defect(rng, cell, k):
    """A cell-aware defect with random strong, unknown and floating
    minterms; dynamic when any minterm floats."""
    size = 1 << len(cell.input_pins)
    faulty = []
    floating = set()
    for m in range(size):
        r = rng.random()
        if r < 0.3:
            faulty.append(None)
            floating.add(m)
        elif r < 0.45:
            faulty.append(None)
        else:
            faulty.append(rng.randint(0, 1))
    return CellDefect(
        cell=cell.name, defect_id=f"rand{k}", mechanism="contact-open",
        kind=DYNAMIC if floating else STATIC, faulty=tuple(faulty),
        floating=frozenset(floating), guideline="VIA-01",
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_circuits_identical(library, cells, data):
    seed = data.draw(st.integers(0, 10_000), label="seed")
    n_gates = data.draw(st.integers(5, 80), label="n_gates")
    n_pairs = data.draw(st.sampled_from([1, 3, 16, 64, 100]), label="pairs")
    circuit = random_mapped_circuit(
        cells, n_pi=data.draw(st.integers(1, 10), label="n_pi"),
        n_gates=n_gates, n_po=data.draw(st.integers(1, 10), label="n_po"),
        seed=seed,
    )
    rng = random.Random(seed)
    faults = mixed_fault_list(circuit, library, seed=seed, per_kind=6)
    gnames = rng.sample(sorted(circuit.gates), min(6, len(circuit.gates)))
    for k, gname in enumerate(gnames):
        cell = cells[circuit.gates[gname].cell]
        faults.append(CellAwareFault(
            f"ca:{gname}:rand{k}", "VIA-01", gate=gname,
            defect=_random_defect(rng, cell, k)))
    batch = PatternBatch.random(circuit, n_pairs, seed=seed + 1)
    _assert_same(circuit, cells, faults, batch)
    # Fault by fault too, so that no two faults' event counts can
    # offset each other within one call.
    for fault in faults:
        _assert_same(circuit, cells, [fault], batch)
