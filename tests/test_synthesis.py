"""Tests for the synthesis subsystem: AIG, rewriting, technology mapping."""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.library import osu018_library
from repro.netlist import Circuit
from repro.synthesis import techmap
from repro.synthesis import (
    Aig,
    TechmapError,
    aig_from_circuit,
    balance,
    is_complete_subset,
    rewrite,
    synthesize,
)
from repro.synthesis.aig import FALSE, TRUE
from repro.synthesis.rewrite import (
    _shrink,
    _support,
    cut_tt,
    enumerate_cuts,
    shrink_tt,
    tt_support,
)
from tests.conftest import random_mapped_circuit
from tests.sim_helpers import simulate_patterns


class TestAig:
    def test_constant_folding(self):
        aig = Aig(2)
        a, b = aig.pi_lit(0), aig.pi_lit(1)
        assert aig.and_(a, FALSE) == FALSE
        assert aig.and_(a, TRUE) == a
        assert aig.and_(a, a) == a
        assert aig.and_(a, a ^ 1) == FALSE

    def test_strashing_dedups(self):
        aig = Aig(2)
        a, b = aig.pi_lit(0), aig.pi_lit(1)
        assert aig.and_(a, b) == aig.and_(b, a)
        assert aig.num_ands() == 1

    def test_xor_truth(self):
        aig = Aig(2)
        lit = aig.xor_(aig.pi_lit(0), aig.pi_lit(1))
        aig.add_output(lit, "y")
        assert aig.output_values([0b0101, 0b0011], 0b1111)[0] == 0b0110

    def test_mux_truth(self):
        aig = Aig(3)
        s, t, e = aig.pi_lit(0), aig.pi_lit(1), aig.pi_lit(2)
        aig.add_output(aig.mux_(s, t, e), "y")
        # s=1 selects t, s=0 selects e.
        out = aig.output_values([0b1100, 0b1010, 0b0110], 0b1111)[0]
        assert out == 0b1010 & 0b1100 | 0b0110 & ~0b1100 & 0b1111

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=40)
    def test_from_tt_correct(self, n, data):
        tt = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        aig = Aig(n)
        lit = aig.from_tt(tt, [aig.pi_lit(i) for i in range(n)])
        aig.add_output(lit, "y")
        patterns = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00][:n]
        mask = (1 << (1 << n)) - 1
        got = aig.output_values(patterns, 0xFFFF)[0] & mask
        assert got == tt

    def test_cleanup_removes_dangling(self):
        aig = Aig(2)
        a, b = aig.pi_lit(0), aig.pi_lit(1)
        aig.and_(a, b)  # dangling
        keep = aig.and_(a, b ^ 1)
        aig.add_output(keep, "y")
        cleaned = aig.cleanup()
        assert cleaned.num_ands() == 1

    def test_depth(self):
        aig = Aig(4)
        lits = [aig.pi_lit(i) for i in range(4)]
        chain = lits[0]
        for lit in lits[1:]:
            chain = aig.and_(chain, lit)
        aig.add_output(chain, "y")
        assert aig.depth() == 3


class TestRewrite:
    def _equiv(self, a: Aig, b: Aig, rng) -> bool:
        n = a.num_pis
        mask = (1 << 64) - 1
        vals = [rng.getrandbits(64) for _ in range(n)]
        return a.output_values(vals, mask) == b.output_values(vals, mask)

    def test_balance_preserves_function(self, cells):
        rng = random.Random(11)
        circuit = random_mapped_circuit(cells, seed=11)
        aig = aig_from_circuit(circuit, cells)
        bal = balance(aig)
        assert self._equiv(aig, bal, rng)

    def test_balance_reduces_chain_depth(self):
        aig = Aig(8)
        chain = aig.pi_lit(0)
        for i in range(1, 8):
            chain = aig.and_(chain, aig.pi_lit(i))
        aig.add_output(chain, "y")
        assert balance(aig).depth() == 3

    def test_rewrite_preserves_function(self, cells):
        rng = random.Random(13)
        circuit = random_mapped_circuit(cells, seed=13)
        aig = aig_from_circuit(circuit, cells)
        rw = rewrite(aig)
        assert self._equiv(aig, rw, rng)
        assert rw.num_ands() <= aig.cleanup().num_ands()

    def test_cut_tt_support_shrink(self):
        aig = Aig(3)
        a, b, c = (aig.pi_lit(i) for i in range(3))
        node = aig.and_(aig.and_(a, b), aig.and_(a, b ^ 1))  # constant 0
        # A redundant node: function over its cut is constant.
        lit = aig.and_(a, b)
        cuts = enumerate_cuts(aig)
        tt = cut_tt(aig, lit >> 1, (1, 2))
        sup = tt_support(tt, 2)
        assert sup == [0, 1]
        assert shrink_tt(tt, 2, sup) == 0b1000

    def test_memoized_helpers_serve_tuples(self):
        # y = b over (a, b): the support is (1,), the shrunk table 0b10.
        assert _support(0b1100, 2) == (1,)
        assert _shrink(0b1100, 2, (1,)) == 0b10
        served = _support(0b1100, 2)
        assert _support(0b1100, 2) is served
        with pytest.raises(TypeError):
            served[0] = 0
        # The public helper hands each caller a fresh list.
        mine = tt_support(0b1100, 2)
        mine.append(0)
        assert tt_support(0b1100, 2) == [1]
        assert shrink_tt(0b1100, 2, [1]) == 0b10


class TestTechmap:
    @pytest.mark.parametrize("allowed", [
        None,
        ["INVX1", "NAND2X1"],
        ["NAND2X1"],
        ["NOR2X1"],
        ["INVX1", "NOR2X1", "AOI22X1", "XOR2X1"],
    ])
    def test_equivalence_under_subsets(self, library, cells, allowed):
        rng = random.Random(3)
        circuit = random_mapped_circuit(cells, seed=3)
        mapped = synthesize(circuit, library, allowed_cells=allowed)
        mapped.validate()
        used = {g.cell for g in mapped}
        if allowed is not None:
            assert used <= set(allowed)
        pats = [
            {pi: rng.getrandbits(1) for pi in circuit.inputs}
            for _ in range(128)
        ]
        r0 = simulate_patterns(circuit, cells, pats)
        r1 = simulate_patterns(mapped, cells, pats)
        for x, y in zip(r0, r1):
            for po in circuit.outputs:
                assert x[po] == y[po]

    def test_po_names_preserved(self, library, cells):
        circuit = random_mapped_circuit(cells, seed=9)
        mapped = synthesize(circuit, library)
        assert mapped.inputs == circuit.inputs
        assert mapped.outputs == circuit.outputs

    def test_constant_output(self, library, cells):
        c = Circuit("k")
        c.add_input("a")
        # y = AND(a, NOT a) = 0.
        c.add_gate("i", "INVX1", {"A": "a"}, "na")
        c.add_gate("g", "AND2X1", {"A": "a", "B": "na"}, "y")
        c.set_outputs(["y"])
        mapped = synthesize(c, library)
        (res,) = simulate_patterns(mapped, cells, [{"a": 1}])
        assert res["y"] == 0

    def test_passthrough_output(self, library, cells):
        c = Circuit("w")
        c.add_input("a")
        c.add_gate("b1", "BUFX2", {"A": "a"}, "y")
        c.set_outputs(["y"])
        mapped = synthesize(c, library, allowed_cells=["INVX1", "NAND2X1"])
        (res,) = simulate_patterns(mapped, cells, [{"a": 1}])
        assert res["y"] == 1
        (res,) = simulate_patterns(mapped, cells, [{"a": 0}])
        assert res["y"] == 0

    def test_empty_subset_raises(self, library, cells):
        circuit = random_mapped_circuit(cells, seed=4)
        with pytest.raises((TechmapError, ValueError)):
            synthesize(circuit, library, allowed_cells=[])

    def test_insufficient_subset_raises(self, library, cells):
        circuit = random_mapped_circuit(cells, seed=4)
        with pytest.raises(TechmapError):
            synthesize(circuit, library, allowed_cells=["BUFX2"])

    def test_delay_objective_not_worse_depth(self, library, cells):
        circuit = random_mapped_circuit(cells, n_gates=80, seed=21)
        area_mapped = synthesize(circuit, library, objective="area")
        delay_mapped = synthesize(circuit, library, objective="delay")
        from repro.physical import static_timing
        from repro.physical.layout import Layout

        # Gate delays only: a layout without segments has no wire load.
        unrouted = Layout(die_width=1, die_rows=1)
        t_area = static_timing(area_mapped, cells, unrouted)
        t_delay = static_timing(delay_mapped, cells, unrouted)
        # Delay mapping shouldn't be much worse.
        assert (t_delay.critical_path_delay
                <= t_area.critical_path_delay * 1.25)


class TestMatchTableMemo:
    def test_one_table_per_cell_tuple(self, library):
        table = techmap._match_table(list(library))
        assert techmap._match_table(list(library)) is table
        assert techmap._match_table(list(library)[1:]) is not table
        # Same names, other cell objects: a table of its own.
        other = techmap._match_table(list(osu018_library()))
        assert other is not table
        assert not any(a is b for a, b in zip(other.cells, table.cells))

    def test_served_buckets_are_read_only(self, library):
        table = techmap._match_table(list(library))
        bucket = table.lookup(2, 0b0111)  # NAND2 over two positive leaves
        assert bucket and isinstance(bucket, tuple)
        with pytest.raises(TypeError):
            bucket[0] = bucket[-1]
        with pytest.raises(AttributeError):
            bucket.append(bucket[0])
        assert techmap._match_table(list(library)).lookup(2, 0b0111) \
            == bucket
        assert table.lookup(4, 0) == ()
        assert isinstance(table.cells, tuple)

    def test_threads_share_one_table_per_tuple(self, library):
        order = library.order_by_internal_faults()
        subsets = [order[i:] for i in (2, 5, 8, 11)]
        techmap._tables.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(techmap._match_table, subsets[k % 4])
                           for k in range(64)]
                tables = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, table in enumerate(tables):
            assert table is tables[k % 4]
        assert len({id(t) for t in tables}) == 4

    def test_memo_is_bounded(self, library):
        small = [c for c in library if c.n_inputs <= 2]
        pairs = [(a, b) for a in small for b in small if a is not b]
        assert len(pairs) > techmap._TABLE_MEMO_SIZE
        for pair in pairs:
            techmap._match_table(pair)
            assert len(techmap._tables) <= techmap._TABLE_MEMO_SIZE


class TestCompleteness:
    def test_complete_subsets(self, library):
        cells = {c.name: c for c in library}
        assert is_complete_subset([cells["INVX1"], cells["NAND2X1"]])
        assert is_complete_subset([cells["NAND2X1"]])
        assert is_complete_subset([cells["NOR2X1"]])
        assert not is_complete_subset([cells["BUFX2"]])
        assert not is_complete_subset([cells["INVX1"]])
        assert not is_complete_subset([])


class TestBoundaryNameCollision:
    def test_po_names_colliding_with_fresh_names(self, library, cells):
        """Regression: a PO named like the mapper's fresh nets (m_<k>)
        must not collide with internally generated names during cover
        extraction (bug found during the resynthesis benchmarks)."""
        import random

        from tests.sim_helpers import simulate_patterns
        from tests.conftest import random_mapped_circuit

        base = random_mapped_circuit(cells, n_pi=6, n_gates=40, seed=77)
        # Rename the POs to the mapper's own fresh-name pattern.
        from repro.netlist import Circuit

        c = Circuit("collide")
        for pi in base.inputs:
            c.add_input(pi)
        rename = {po: f"m_{i + 1}" for i, po in enumerate(base.outputs)}
        for gname in base.topo_order():
            g = base.gates[gname]
            out = rename.get(g.output, g.output)
            pins = {p: rename.get(n, n) for p, n in g.pins.items()}
            c.add_gate(gname, g.cell, pins, out)
        c.set_outputs([rename[po] for po in base.outputs])
        c.validate()
        mapped = synthesize(c, library, objective="faults")
        mapped.validate()
        rng = random.Random(5)
        pats = [
            {pi: rng.getrandbits(1) for pi in c.inputs} for _ in range(64)
        ]
        r0 = simulate_patterns(c, cells, pats)
        r1 = simulate_patterns(mapped, cells, pats)
        for x, y in zip(r0, r1):
            for po in c.outputs:
                assert x[po] == y[po]
