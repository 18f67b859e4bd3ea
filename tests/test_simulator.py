"""Tests for the bit-parallel logic simulator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import CONST0, CONST1, Circuit, simulate
from repro.netlist.simulator import compile_cell_eval, compile_gate_eval
from tests.sim_helpers import simulate_patterns


class TestCompileCellEval:
    def test_inverter(self):
        fn = compile_cell_eval(1, 0b01)
        assert fn(0b1010, 0b1111) == 0b0101

    def test_nand2(self):
        fn = compile_cell_eval(2, 0b0111)
        a, b, mask = 0b1100, 0b1010, 0b1111
        assert fn(a, b, mask) == (~(a & b)) & mask

    def test_constant_cells(self):
        assert compile_cell_eval(0, 0b1)(0b111) == 0b111
        assert compile_cell_eval(0, 0b0)(0b111) == 0

    def test_out_of_range_tt_raises(self):
        with pytest.raises(ValueError):
            compile_cell_eval(1, 0b10000)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60)
    def test_matches_truth_table(self, n, data):
        tt = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        fn = compile_cell_eval(n, tt)
        # Evaluate all minterms at once: input i gets its standard pattern.
        size = 1 << n
        mask = (1 << size) - 1
        ins = []
        for i in range(n):
            word = 0
            for m in range(size):
                if (m >> i) & 1:
                    word |= 1 << m
            ins.append(word)
        assert fn(*ins, mask) == tt

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=60)
    def test_gate_eval_reads_its_nets(self, n, data):
        """A bound gate evaluator equals the cell evaluator applied to
        the words at its input indices, repeated indices included."""
        tt = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        values = data.draw(st.lists(st.integers(0, 255), min_size=6,
                                    max_size=6))
        idx = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        evaluate = compile_gate_eval(n, tt)(*idx)
        want = compile_cell_eval(n, tt)(*[values[i] for i in idx], 255)
        assert evaluate(values, 255) == want


class TestSimulate:
    def test_adder_matches_arithmetic(self, adder4, cells):
        rng = random.Random(1)
        for _ in range(40):
            a, b = rng.randrange(16), rng.randrange(16)
            pat = {}
            for i in range(4):
                pat[f"a{i}"] = (a >> i) & 1
                pat[f"b{i}"] = (b >> i) & 1
            (res,) = simulate_patterns(adder4, cells, [pat])
            got = sum(res[f"s{i}"] << i for i in range(4))
            got += res["cout"] << 4
            assert got == a + b

    def test_constants_available(self, cells):
        c = Circuit("k")
        c.add_input("a")
        c.add_gate("g", "AND2X1", {"A": "a", "B": CONST1}, "y")
        c.add_gate("h", "OR2X1", {"A": "a", "B": CONST0}, "z")
        c.set_outputs(["y", "z"])
        vals = simulate(c, cells, {"a": 0b10}, 0b11)
        assert vals["y"] == 0b10
        assert vals["z"] == 0b10

    def test_missing_pi_raises(self, tiny_circuit, cells):
        from repro.netlist import NetlistError

        with pytest.raises(NetlistError):
            simulate(tiny_circuit, cells, {"a": 1}, 1)

    def test_plan_follows_port_changes(self, tiny_circuit, cells):
        """A cached plan is not served after the PIs or POs change."""
        from repro.netlist import NetlistError
        from repro.netlist.simulator import CompiledCircuit

        CompiledCircuit.get(tiny_circuit, cells)  # cache a plan
        tiny_circuit.set_outputs(["z"])
        plan = CompiledCircuit.get(tiny_circuit, cells)
        assert plan.po_index == [plan.net_index["z"]]
        tiny_circuit.add_input("c")
        with pytest.raises(NetlistError, match="primary input c"):
            simulate(tiny_circuit, cells, {"a": 1, "b": 1}, 1)

    def test_parallel_equals_scalar(self, adder4, cells):
        rng = random.Random(7)
        pats = [
            {pi: rng.getrandbits(1) for pi in adder4.inputs}
            for _ in range(63)
        ]
        batch = simulate_patterns(adder4, cells, pats)
        for pat, res in zip(pats, batch):
            (single,) = simulate_patterns(adder4, cells, [pat])
            for po in adder4.outputs:
                assert single[po] == res[po]

    def test_empty_pattern_list(self, adder4, cells):
        assert simulate_patterns(adder4, cells, []) == []
