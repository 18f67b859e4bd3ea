"""Naive one-pattern-at-a-time reference fault simulator.

This is the *specification* of the detection semantics implemented by the
optimized engine in :mod:`repro.faults.fsim`: scalar values, full-circuit
re-simulation per fault and pattern, truth tables consulted bit-by-bit —
no bit-parallel words, no event-driven propagation, no compiled
evaluators, no caching.  It shares nothing with the production path (it
does not even use :func:`repro.netlist.simulator.compile_cell_eval`), so
the differential suite in ``tests/test_fsim_reference.py`` can use it as
an independent oracle: for every fault model the optimized detect words
must be bit-identical to what this simulator produces.

It is deliberately O(faults x patterns x gates) and only suitable for
test-sized circuits.  Do not use it outside tests.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.fsim import PatternBatch
from repro.faults.model import (
    BridgingFault,
    CellAwareFault,
    Fault,
    StuckAtFault,
    TransitionFault,
)
from repro.library.cell import StandardCell
from repro.netlist.circuit import CONST0, CONST1, Circuit

_Pattern = Mapping[str, int]


def _good_values(
    circuit: Circuit, cells: Mapping[str, StandardCell], pattern: _Pattern
) -> Dict[str, int]:
    """Scalar fault-free simulation via direct truth-table lookup."""
    values: Dict[str, int] = {CONST0: 0, CONST1: 1}
    for pi in circuit.inputs:
        values[pi] = 1 if pattern[pi] else 0
    for gname in circuit.topo_order():
        gate = circuit.gates[gname]
        cell = cells[gate.cell]
        minterm = 0
        for i, p in enumerate(cell.input_pins):
            if values[gate.pins[p]]:
                minterm |= 1 << i
        values[gate.output] = (cell.tt >> minterm) & 1
    return values


def _faulty_values(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    pattern: _Pattern,
    clamps: Mapping[str, int],
    forced_pins: Mapping[Tuple[str, str], int] = {},
) -> Dict[str, int]:
    """Scalar faulty simulation.

    *clamps* pins net values for the whole evaluation (the fault site
    stays forced); *forced_pins* overrides the value seen by one specific
    (gate, pin) input — the branch-fault case, where only one sink of a
    stem observes the faulty value.
    """
    values: Dict[str, int] = {CONST0: 0, CONST1: 1}
    for pi in circuit.inputs:
        values[pi] = clamps.get(pi, 1 if pattern[pi] else 0)
    for gname in circuit.topo_order():
        gate = circuit.gates[gname]
        out = gate.output
        if out in clamps:
            values[out] = clamps[out]
            continue
        cell = cells[gate.cell]
        minterm = 0
        for i, p in enumerate(cell.input_pins):
            bit = forced_pins.get((gname, p))
            if bit is None:
                bit = values[gate.pins[p]]
            if bit:
                minterm |= 1 << i
        values[out] = (cell.tt >> minterm) & 1
    return values


def _cell_minterm(
    gate_pins: Sequence[str], values: Mapping[str, int]
) -> int:
    minterm = 0
    for i, net in enumerate(gate_pins):
        if values[net]:
            minterm |= 1 << i
    return minterm


def _detects(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    fault: Fault,
    pattern2: _Pattern,
    good1: Dict[str, int],
    good2: Dict[str, int],
) -> bool:
    """Does the pair behind (*good1*, *good2*) detect *fault*?"""
    clamps: Dict[str, int] = {}
    forced_pins: Dict[Tuple[str, str], int] = {}

    if isinstance(fault, (StuckAtFault, TransitionFault)):
        if fault.net not in good2:
            return False
        if isinstance(fault, TransitionFault):
            if good1[fault.net] != fault.initial_value:
                return False  # launch transition never initialized
            forced = fault.stuck_value
        else:
            forced = fault.value
        if fault.branch is not None:
            gname, pin = fault.branch
            gate = circuit.gates.get(gname)
            if gate is None or gate.pins.get(pin) != fault.net:
                return False  # stale branch: fault site no longer exists
            forced_pins[(gname, pin)] = forced
        else:
            clamps[fault.net] = forced
        if good2[fault.net] == forced:
            return False  # not activated at the site
    elif isinstance(fault, BridgingFault):
        if fault.victim not in good2 or fault.aggressor not in good2:
            return False
        if good2[fault.victim] == good2[fault.aggressor]:
            return False
        clamps[fault.victim] = good2[fault.aggressor]
    elif isinstance(fault, CellAwareFault):
        gate = circuit.gates.get(fault.gate)
        if gate is None:
            return False
        cell = cells[gate.cell]
        defect = fault.defect
        pin_nets = [gate.pins[p] for p in cell.input_pins]
        good_out = good2[gate.output]
        m2 = _cell_minterm(pin_nets, good2)
        fval2 = defect.faulty[m2]
        if fval2 is not None:
            faulty_out = fval2
        elif m2 in defect.floating:
            # Dynamic retention: the floating output keeps the frame-1
            # driven faulty value; an undriven frame 1 gives no credit.
            m1 = _cell_minterm(pin_nets, good1)
            fval1 = defect.faulty[m1]
            faulty_out = fval1 if fval1 is not None else good_out
        else:
            faulty_out = good_out  # unknown response: no credit
        if faulty_out == good_out:
            return False
        clamps[gate.output] = faulty_out
    else:
        raise TypeError(type(fault).__name__)

    faulty = _faulty_values(circuit, cells, pattern2, clamps, forced_pins)
    return any(faulty[po] != good2[po] for po in circuit.outputs)


def reference_detect_words(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    pairs: Sequence[Tuple[_Pattern, _Pattern]],
) -> List[int]:
    """Per-fault detect words, one pattern pair at a time.

    Same contract as :func:`repro.faults.fsim.fault_simulate` over
    ``PatternBatch.from_pairs(circuit, pairs)``: bit *i* of word *f* is
    set iff pair *i* detects fault *f*.
    """
    words = [0] * len(faults)
    for bit, (v1, v2) in enumerate(pairs):
        good1 = _good_values(circuit, cells, v1)
        good2 = _good_values(circuit, cells, v2)
        for fi, fault in enumerate(faults):
            if _detects(circuit, cells, fault, v2, good1, good2):
                words[fi] |= 1 << bit
    return words


def reference_fault_simulate(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    batch: PatternBatch,
) -> List[int]:
    """Reference counterpart of ``fault_simulate`` on a packed batch."""
    pairs = []
    for bit in range(batch.n):
        v1 = {pi: (batch.frame1[pi] >> bit) & 1 for pi in circuit.inputs}
        v2 = {pi: (batch.frame2[pi] >> bit) & 1 for pi in circuit.inputs}
        pairs.append((v1, v2))
    return reference_detect_words(circuit, cells, faults, pairs)
