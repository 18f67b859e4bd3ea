"""Tests for the bit-parallel logic simulator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import CONST0, CONST1, Circuit, simulate, simulate_patterns
from repro.netlist.simulator import compile_cell_eval


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


class TestGoodCacheEntries:
    def test_served_entries_are_immutable(self, adder4, cells):
        """A consumer cannot corrupt a cached entry for later hits."""
        from repro.netlist.simulator import CompiledCircuit
        from repro.utils.observability import EngineStats

        plan = CompiledCircuit.get(adder4, cells)
        plan.good_cache.clear()
        rng = random.Random(5)
        mask = (1 << 16) - 1
        frames = [
            {pi: rng.getrandbits(16) for pi in adder4.inputs}
            for _ in range(2)
        ]
        expected = tuple(
            tuple(plan.simulate_values(f, mask)) for f in frames
        )
        stats = EngineStats()
        served = plan.good_values(("frozen",), frames, mask, stats)
        assert isinstance(served, tuple)
        assert all(isinstance(vec, tuple) for vec in served)
        with pytest.raises(TypeError):
            served[1][2] ^= 1
        again = plan.good_values(("frozen",), frames, mask, stats)
        assert stats.good_cache_hits == len(frames)
        assert again == served == expected


class TestGoodCacheThreadSafety:
    """The per-plan good-value LRU is shared by concurrent inline tasks."""

    def test_concurrent_good_values(self, adder4, cells):
        import threading

        from repro.netlist.simulator import CompiledCircuit

        plan = CompiledCircuit.get(adder4, cells)
        rng = random.Random(11)
        mask = (1 << 32) - 1
        # More distinct keys than the cache holds, so the threads race
        # lookups, inserts, recency updates, and evictions against each
        # other.
        n_keys = plan.GOOD_CACHE_SIZE * 2
        frames_by_key = {
            ("k", i): [
                {pi: rng.getrandbits(32) for pi in adder4.inputs}
                for _ in range(2)
            ]
            for i in range(n_keys)
        }
        expected = {
            key: tuple(tuple(plan.simulate_values(f, mask)) for f in frames)
            for key, frames in frames_by_key.items()
        }
        plan.good_cache.clear()
        errors = []

        def hammer(seed):
            local = random.Random(seed)
            keys = list(frames_by_key)
            for _ in range(200):
                key = keys[local.randrange(n_keys)]
                try:
                    got = plan.good_values(key, frames_by_key[key], mask)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                if got != expected[key]:
                    errors.append((key, got))
                    return

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(plan.good_cache) <= plan.GOOD_CACHE_SIZE
        # Cached entries still hold correct vectors after the storm.
        for key, cached in plan.good_cache.items():
            assert cached == expected[key]
