"""Tests for fault models, collapsing and fault simulation."""

from __future__ import annotations

import pytest

from repro.faults import (
    BridgingFault,
    CellAwareFault,
    StuckAtFault,
    TransitionFault,
    collapse_faults,
    corresponding_gates,
    enumerate_internal_faults,
)
from repro.faults.model import RISE
from repro.netlist import Circuit
from tests.sim_helpers import detected_by_patterns


@pytest.fixture()
def and_chain(cells):
    """y = AND(AND(a, b), c): every stuck-at fault is detectable."""
    c = Circuit("chain")
    for pi in ("a", "b", "c"):
        c.add_input(pi)
    c.add_gate("g1", "AND2X1", {"A": "a", "B": "b"}, "w")
    c.add_gate("g2", "AND2X1", {"A": "w", "B": "c"}, "y")
    c.set_outputs(["y"])
    return c


def _pair(circuit, **bits):
    v = {pi: bits.get(pi, 0) for pi in circuit.inputs}
    return (v, v)


class TestCorrespondingGates:
    def test_internal_single_gate(self, and_chain, library):
        faults = enumerate_internal_faults(and_chain, library)
        for f in faults:
            assert corresponding_gates(f, and_chain) == {f.gate}

    def test_stem_fault_covers_driver_and_loads(self, and_chain):
        f = StuckAtFault("sa0:w", "VIA-01", net="w", value=0)
        assert corresponding_gates(f, and_chain) == {"g1", "g2"}

    def test_branch_fault_covers_driver_and_branch(self, and_chain):
        f = StuckAtFault(
            "sa0:w:br", "VIA-01", net="w", value=0, branch=("g2", "A")
        )
        assert corresponding_gates(f, and_chain) == {"g1", "g2"}

    def test_pi_stem_fault(self, and_chain):
        f = StuckAtFault("sa1:a", "VIA-02", net="a", value=1)
        assert corresponding_gates(f, and_chain) == {"g1"}

    def test_bridge_covers_both_nets(self, and_chain):
        f = BridgingFault(
            "br", "MET-01", victim="w", aggressor="c"
        )
        assert corresponding_gates(f, and_chain) == {"g1", "g2"}

    def test_stale_gate_dropped(self, and_chain, library):
        fault = CellAwareFault(
            "ca:ghost:x", "VIA-01", gate="ghost",
            defect=library["AND2X1"].internal_defects()[0],
        )
        assert corresponding_gates(fault, and_chain) == frozenset()


class TestCollapse:
    def test_same_site_same_value_merge(self):
        f1 = StuckAtFault("sa0:w:g1", "VIA-01", net="w", value=0)
        f2 = StuckAtFault("sa0:w:g2", "VIA-05", net="w", value=0)
        f3 = StuckAtFault("sa1:w:g3", "VIA-01", net="w", value=1)
        classes = collapse_faults([f1, f2, f3])
        sizes = sorted(len(v) for v in classes.values())
        assert sizes == [1, 2]

    def test_cellaware_collapse_by_signature(self, library):
        cell = library["INVX8"]
        defects = cell.internal_defects()
        faults = [
            CellAwareFault(f"ca:g:{d.defect_id}", d.guideline, gate="g",
                           defect=d)
            for d in defects
        ]
        classes = collapse_faults(faults)
        assert len(classes) <= len(faults)
        assert sum(len(v) for v in classes.values()) == len(faults)

    def test_representative_is_member(self):
        f1 = StuckAtFault("a", "VIA-01", net="w", value=0)
        classes = collapse_faults([f1])
        (rep, members), = classes.items()
        assert rep is f1 and members == [f1]


class TestFaultSimulation:
    def test_stuckat_detection(self, and_chain, cells):
        f = StuckAtFault("sa0:y", "VIA-01", net="y", value=0)
        # a=b=c=1 makes y=1, so SA0 at y is detected.
        assert detected_by_patterns(
            and_chain, cells, [f], [_pair(and_chain, a=1, b=1, c=1)]
        ) == [True]
        assert detected_by_patterns(
            and_chain, cells, [f], [_pair(and_chain, a=0, b=1, c=1)]
        ) == [False]

    def test_branch_fault_semantics(self, and_chain, cells):
        # SA1 on g2.B (branch of c): detected when c=0 but a=b=1.
        f = StuckAtFault(
            "sa1:c:br", "VIA-01", net="c", value=1, branch=("g2", "B")
        )
        assert detected_by_patterns(
            and_chain, cells, [f], [_pair(and_chain, a=1, b=1, c=0)]
        ) == [True]
        # Stem SA1 on c is the same here (c only feeds g2).
        stem = StuckAtFault("sa1:c", "VIA-01", net="c", value=1)
        assert detected_by_patterns(
            and_chain, cells, [stem], [_pair(and_chain, a=1, b=1, c=0)]
        ) == [True]

    def test_transition_needs_initialization(self, and_chain, cells):
        f = TransitionFault(
            "tr:y", "VIA-01", net="y", slow_to=RISE
        )
        # Frame 1 must set y=0, frame 2 must set y=1 and observe.
        v_off = {pi: 0 for pi in and_chain.inputs}
        v_on = {pi: 1 for pi in and_chain.inputs}
        assert detected_by_patterns(
            and_chain, cells, [f], [(v_off, v_on)]
        ) == [True]
        assert detected_by_patterns(
            and_chain, cells, [f], [(v_on, v_on)]
        ) == [False]

    def test_bridge_detection(self, and_chain, cells):
        # Victim y takes aggressor a's value.
        f = BridgingFault("br", "MET-01", victim="y", aggressor="a")
        # a=1, b=0 -> good y=0, bridged y=1: detected.
        assert detected_by_patterns(
            and_chain, cells, [f], [_pair(and_chain, a=1, b=0, c=1)]
        ) == [True]
        # a=1,b=1,c=1 -> y=1=a: not detected.
        assert detected_by_patterns(
            and_chain, cells, [f], [_pair(and_chain, a=1, b=1, c=1)]
        ) == [False]

    def test_cellaware_static(self, and_chain, cells, library):
        # Find a static defect of AND2X1 and check its UDFM pattern works.
        from repro.library import extract_udfm

        cell = library["AND2X1"]
        entry = next(
            e for e in extract_udfm(cell) if e.kind == "static"
        )
        defect = next(
            d for d in cell.internal_defects()
            if d.defect_id == entry.defect_id
        )
        fault = CellAwareFault(
            "ca:g2:x", defect.guideline, gate="g2", defect=defect
        )
        # Build the pattern that applies entry.test_pattern at g2 inputs:
        # g2.A = w = a AND b, g2.B = c.
        want_w, want_c = entry.test_pattern
        pat = _pair(and_chain, a=want_w, b=want_w, c=want_c)
        det = detected_by_patterns(and_chain, cells, [fault], [pat])
        assert det == [True]

    def test_missing_net_returns_undetected(self, and_chain, cells):
        f = StuckAtFault("sa0:gone", "VIA-01", net="gone", value=0)
        assert detected_by_patterns(
            and_chain, cells, [f], [_pair(and_chain, a=1)]
        ) == [False]

    def test_batch_matches_scalar(self, and_chain, cells, library):
        import random

        rng = random.Random(3)
        faults = enumerate_internal_faults(and_chain, library)
        pairs = []
        for _ in range(40):
            v1 = {pi: rng.getrandbits(1) for pi in and_chain.inputs}
            v2 = {pi: rng.getrandbits(1) for pi in and_chain.inputs}
            pairs.append((v1, v2))
        batched = detected_by_patterns(and_chain, cells, faults, pairs)
        single = [False] * len(faults)
        for pair in pairs:
            for i, d in enumerate(
                detected_by_patterns(and_chain, cells, faults, [pair])
            ):
                single[i] = single[i] or d
        assert batched == single
