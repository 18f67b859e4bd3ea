"""Unit tests for the netlist substrate (circuit model, surgery, I/O)."""

from __future__ import annotations

import pytest

from repro.netlist import (
    CONST0,
    CONST1,
    Circuit,
    NetlistError,
    extract_subcircuit,
    parse_netlist,
    replace_subcircuit,
    write_netlist,
)


class TestCircuitConstruction:
    def test_add_input_and_gate(self, tiny_circuit):
        assert len(tiny_circuit) == 2
        assert tiny_circuit.driver("y") == "u1"
        assert tiny_circuit.loads("y") == {("u2", "A")}

    def test_duplicate_gate_rejected(self, tiny_circuit):
        with pytest.raises(NetlistError):
            tiny_circuit.add_gate("u1", "INVX1", {"A": "a"}, "q")

    def test_double_driver_rejected(self, tiny_circuit):
        with pytest.raises(NetlistError):
            tiny_circuit.add_gate("u3", "INVX1", {"A": "a"}, "y")

    def test_driving_input_rejected(self, tiny_circuit):
        with pytest.raises(NetlistError):
            tiny_circuit.add_gate("u3", "INVX1", {"A": "b"}, "a")

    def test_driving_constant_rejected(self, tiny_circuit):
        with pytest.raises(NetlistError):
            tiny_circuit.add_gate("u3", "INVX1", {"A": "a"}, CONST0)

    def test_reserved_input_name_rejected(self):
        c = Circuit("x")
        with pytest.raises(NetlistError):
            c.add_input(CONST1)

    def test_remove_gate_clears_tracking(self, tiny_circuit):
        tiny_circuit.remove_gate("u2")
        assert tiny_circuit.loads("y") == set()
        assert tiny_circuit.driver("z") is None

    def test_cycle_detected(self):
        c = Circuit("cyc")
        c.add_input("a")
        c.add_gate("g1", "NAND2X1", {"A": "a", "B": "w2"}, "w1")
        c.add_gate("g2", "INVX1", {"A": "w1"}, "w2")
        c.set_outputs(["w2"])
        with pytest.raises(NetlistError):
            c.validate()

    def test_undriven_input_detected(self):
        c = Circuit("u")
        c.add_input("a")
        c.add_gate("g1", "NAND2X1", {"A": "a", "B": "ghost"}, "w")
        c.set_outputs(["w"])
        with pytest.raises(NetlistError):
            c.validate()

    def test_fresh_names_unique(self, tiny_circuit):
        names = {tiny_circuit.fresh_net() for _ in range(50)}
        assert len(names) == 50
        assert not names & tiny_circuit.nets()


class TestTopology:
    def test_topo_order_respects_edges(self, adder4):
        order = adder4.topo_order()
        pos = {g: i for i, g in enumerate(order)}
        for gname in order:
            for pred in adder4.gate_fanin_gates(gname):
                assert pos[pred] < pos[gname]

    def test_levelize_monotone(self, adder4):
        levels = adder4.levelize()
        for gname in adder4.gates:
            for pred in adder4.gate_fanin_gates(gname):
                assert levels[pred] < levels[gname]

    def test_fanout_cone_contains_loads(self, tiny_circuit):
        cone = tiny_circuit.fanout_cone("y")
        assert cone == {"u2"}
        assert tiny_circuit.fanout_cone("a") == {"u1", "u2"}

    def test_fanin_cone(self, tiny_circuit):
        assert tiny_circuit.fanin_cone("z") == {"u1", "u2"}

    def test_cell_histogram(self, tiny_circuit):
        assert tiny_circuit.cell_histogram() == {"NAND2X1": 1, "INVX1": 1}

    def test_clone_is_deep(self, tiny_circuit):
        copy = tiny_circuit.clone()
        copy.remove_gate("u2")
        assert "u2" in tiny_circuit.gates


class TestSurgery:
    def test_extract_boundary(self, adder4):
        gates = list(adder4.topo_order())[:6]
        sub = extract_subcircuit(adder4, gates)
        sub.validate()
        # Every subcircuit PO is driven by a selected gate.
        for po in sub.outputs:
            assert sub.driver(po) in gates

    def test_extract_unknown_gate_raises(self, adder4):
        with pytest.raises(NetlistError):
            extract_subcircuit(adder4, ["nope"])

    def test_replace_identity_roundtrip(self, adder4, cells):
        """Extract a region and stitch it back unchanged: equivalent."""
        from tests.sim_helpers import simulate_patterns
        import random

        gates = list(adder4.topo_order())[2:9]
        sub = extract_subcircuit(adder4, gates)
        merged = replace_subcircuit(adder4, gates, sub)
        merged.validate()
        rng = random.Random(5)
        pats = [
            {pi: rng.getrandbits(1) for pi in adder4.inputs}
            for _ in range(64)
        ]
        r0 = simulate_patterns(adder4, cells, pats)
        r1 = simulate_patterns(merged, cells, pats)
        for x, y in zip(r0, r1):
            for po in adder4.outputs:
                assert x[po] == y[po]

    def test_replace_missing_boundary_rejected(self, adder4):
        gates = list(adder4.topo_order())[:4]
        sub = extract_subcircuit(adder4, gates)
        # Drop one required output from the replacement.
        bad = Circuit("bad")
        for pi in sub.inputs:
            bad.add_input(pi)
        bad.set_outputs([])
        with pytest.raises(NetlistError):
            replace_subcircuit(adder4, gates, bad)


class TestIO:
    def test_roundtrip(self, adder4):
        text = write_netlist(adder4)
        back = parse_netlist(text)
        assert back.inputs == adder4.inputs
        assert back.outputs == adder4.outputs
        assert set(back.gates) == set(adder4.gates)
        for name, gate in adder4.gates.items():
            assert back.gates[name].cell == gate.cell
            assert back.gates[name].pins == gate.pins

    def test_comments_and_blank_lines(self):
        text = """
# a comment
circuit demo
input a b
output y
gate g1 NAND2X1 A=a B=b > y  # trailing comment
"""
        c = parse_netlist(text)
        assert c.name == "demo"
        assert len(c) == 1

    def test_malformed_line_raises(self):
        with pytest.raises(NetlistError):
            parse_netlist("circuit x\ngate g1 NAND2X1 A=a\n")

    def test_statement_before_header_raises(self):
        with pytest.raises(NetlistError):
            parse_netlist("input a\n")
