"""Differential tests: bit-parallel fault simulation vs the naive oracle.

``tests/fsim_reference.py`` re-simulates the whole circuit per fault and
per pattern with scalar values and direct truth-table lookups, sharing no
code with the optimized engine.  Every test here packs random pattern
pairs into a :class:`PatternBatch`, runs both simulators, and requires
the detect words to be *bit-identical* — not just detected/undetected
flags, but which pattern detects which fault.
"""

from __future__ import annotations

import random

import pytest

from repro.faults.fsim import PatternBatch, fault_simulate
from repro.faults.model import (
    FALL,
    RISE,
    BridgingFault,
    CellAwareFault,
    StuckAtFault,
    TransitionFault,
)
from repro.faults.sites import enumerate_internal_faults
from repro.library.defects import DYNAMIC, STATIC, CellDefect
from tests.conftest import mixed_fault_list, random_mapped_circuit
from tests.fsim_reference import reference_fault_simulate

N_PAIRS = 24


def _check(circuit, cells, faults, seed=0, n=N_PAIRS):
    batch = PatternBatch.random(circuit, n, seed=seed + 1000)
    got = fault_simulate(circuit, cells, faults, batch)
    want = reference_fault_simulate(circuit, cells, faults, batch)
    assert got == want
    return got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stuck_at_matches_reference(cells, seed):
    circuit = random_mapped_circuit(cells, seed=seed)
    rng = random.Random(seed)
    nets = list(circuit.inputs) + [g.output for g in circuit.gates.values()]
    faults = []
    for net in rng.sample(nets, 12):
        faults.append(StuckAtFault(f"sa0:{net}", "g", net=net, value=0))
        faults.append(StuckAtFault(f"sa1:{net}", "g", net=net, value=1))
    for gname in rng.sample(sorted(circuit.gates), 12):
        gate = circuit.gates[gname]
        pin = rng.choice(sorted(gate.pins))
        faults.append(StuckAtFault(
            f"sab:{gname}.{pin}", "g", net=gate.pins[pin],
            value=rng.randint(0, 1), branch=(gname, pin),
        ))
    words = _check(circuit, cells, faults, seed=seed)
    assert any(words)  # the suite must exercise real detections


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transition_matches_reference(cells, seed):
    circuit = random_mapped_circuit(cells, seed=seed + 10)
    rng = random.Random(seed)
    nets = list(circuit.inputs) + [g.output for g in circuit.gates.values()]
    faults = []
    for net in rng.sample(nets, 12):
        faults.append(TransitionFault(f"r:{net}", "g", net=net, slow_to=RISE))
        faults.append(TransitionFault(f"f:{net}", "g", net=net, slow_to=FALL))
    for gname in rng.sample(sorted(circuit.gates), 8):
        gate = circuit.gates[gname]
        pin = rng.choice(sorted(gate.pins))
        faults.append(TransitionFault(
            f"tb:{gname}.{pin}", "g", net=gate.pins[pin],
            slow_to=rng.choice([RISE, FALL]), branch=(gname, pin),
        ))
    words = _check(circuit, cells, faults, seed=seed)
    assert any(words)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bridge_matches_reference(cells, seed):
    circuit = random_mapped_circuit(cells, seed=seed + 20)
    rng = random.Random(seed)
    nets = list(circuit.inputs) + [g.output for g in circuit.gates.values()]
    faults = []
    for k in range(20):
        victim, aggressor = rng.sample(nets, 2)
        faults.append(BridgingFault(
            f"br{k}", "g", victim=victim, aggressor=aggressor))
    words = _check(circuit, cells, faults, seed=seed)
    assert any(words)


@pytest.mark.parametrize("seed", [0, 1])
def test_cell_aware_matches_reference(cells, library, seed):
    circuit = random_mapped_circuit(cells, n_gates=40, seed=seed + 30)
    rng = random.Random(seed)
    internal = enumerate_internal_faults(circuit, library)
    faults = rng.sample(internal, min(60, len(internal)))
    kinds = {f.defect.kind for f in faults}
    assert kinds == {STATIC, DYNAMIC}  # both semantics exercised
    words = _check(circuit, cells, faults, seed=seed)
    assert any(words)


def test_cell_aware_dynamic_retention(tiny_circuit, cells):
    """Handcrafted dynamic defect: frame-2 floats, frame-1 sets the value.

    The NAND2 output floats at minterm 1 (A=1, B=0) and is driven to the
    faulty value 0 at minterm 0.  A pair initializing at minterm 0 then
    testing at minterm 1 must detect (retained 0 vs good 1); a pair whose
    frame 1 lands on the floating minterm itself leaves the output
    undriven and must give no credit.
    """
    defect = CellDefect(
        cell="NAND2X1", defect_id="crafted", mechanism="contact-open",
        kind=DYNAMIC, faulty=(0, None, None, None),
        floating=frozenset({1}), guideline="VIA-01",
    )
    fault = CellAwareFault("ca:u1:crafted", "VIA-01", gate="u1", defect=defect)
    pairs = [
        ({"a": 0, "b": 0}, {"a": 1, "b": 0}),  # driven init -> detect
        ({"a": 1, "b": 0}, {"a": 1, "b": 0}),  # floating init -> no credit
        ({"a": 1, "b": 1}, {"a": 1, "b": 0}),  # init minterm 3: faulty None
        ({"a": 0, "b": 0}, {"a": 0, "b": 1}),  # frame 2 driven to good
    ]
    batch = PatternBatch.from_pairs(tiny_circuit, pairs)
    got = fault_simulate(tiny_circuit, cells, [fault], batch)
    want = reference_fault_simulate(tiny_circuit, cells, [fault], batch)
    assert got == want == [0b0001]


def test_cell_aware_static_no_credit_for_unknown(tiny_circuit, cells):
    """Static defect minterms with unknown (None) response never detect."""
    defect = CellDefect(
        cell="NAND2X1", defect_id="unknown", mechanism="bridge",
        kind=STATIC, faulty=(None, None, None, None),
        floating=frozenset(), guideline="MET-01",
    )
    fault = CellAwareFault("ca:u1:unknown", "MET-01", gate="u1", defect=defect)
    batch = PatternBatch.random(tiny_circuit, 16, seed=3)
    got = fault_simulate(tiny_circuit, cells, [fault], batch)
    want = reference_fault_simulate(tiny_circuit, cells, [fault], batch)
    assert got == want == [0]


def test_stale_branch_never_detects(cells):
    """Branch faults whose (gate, pin) no longer matches give 0.

    Resynthesis rewires gates while inherited fault lists survive, so the
    engine must treat a branch pointing at a deleted gate — or at a pin
    now connected to a different net — as undetectable by simulation
    (the ``ok=False`` path of ``_branch_overrides``).
    """
    circuit = random_mapped_circuit(cells, seed=5)
    gname = next(iter(circuit.gates))
    gate = circuit.gates[gname]
    pin = sorted(gate.pins)[0]
    other_net = next(n for n in circuit.inputs if n != gate.pins[pin])
    faults = [
        # gate does not exist
        StuckAtFault("stale1", "g", net=gate.pins[pin], value=0,
                     branch=("no_such_gate", pin)),
        # pin exists but is connected to a different net than the fault's
        StuckAtFault("stale2", "g", net=other_net, value=1,
                     branch=(gname, pin)),
        TransitionFault("stale3", "g", net=other_net, slow_to=RISE,
                        branch=(gname, pin)),
    ]
    words = _check(circuit, cells, faults, seed=5)
    assert words == [0, 0, 0]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_all_models_mixed_matches_reference(cells, library, seed):
    """One batch, every fault model at once."""
    circuit = random_mapped_circuit(cells, n_gates=50, seed=seed + 40)
    faults = mixed_fault_list(circuit, library=library, seed=seed)
    words = _check(circuit, cells, faults, seed=seed)
    assert any(words)


def test_from_pairs_matches_naive_packing(cells):
    """The one-pass packing equals bit-by-bit dict accumulation."""
    circuit = random_mapped_circuit(cells, seed=12)
    gen = PatternBatch.random(circuit, 150, seed=13)
    pairs = [
        (
            {pi: (gen.frame1[pi] >> i) & 1 for pi in circuit.inputs},
            {pi: (gen.frame2[pi] >> i) & 1 for pi in circuit.inputs},
        )
        for i in range(150)
    ]
    batch = PatternBatch.from_pairs(circuit, pairs)
    naive1 = {pi: 0 for pi in circuit.inputs}
    naive2 = {pi: 0 for pi in circuit.inputs}
    for i, (v1, v2) in enumerate(pairs):
        for pi in circuit.inputs:
            naive1[pi] |= v1[pi] << i
            naive2[pi] |= v2[pi] << i
    assert batch.n == 150
    assert batch.frame1 == naive1 == gen.frame1
    assert batch.frame2 == naive2 == gen.frame2
