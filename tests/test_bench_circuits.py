"""Tests for the benchmark circuit generators."""

from __future__ import annotations

import random

import pytest

from repro.bench import BENCHMARKS, NetBuilder, build_benchmark
from repro.bench.circuits import DES_S1, DES_S2, PRESENT_SBOX
from tests.sim_helpers import simulate_patterns


class TestBuilderPrimitives:
    def test_adder_semantics(self, cells):
        nb = NetBuilder("t")
        a = nb.inputs("a", 5)
        b = nb.inputs("b", 5)
        total, cout = nb.adder(a, b)
        nb.outputs(total, "s")
        nb.output(cout, "c")
        c = nb.build()
        rng = random.Random(0)
        for _ in range(30):
            x, y = rng.randrange(32), rng.randrange(32)
            pat = {f"a{i}": (x >> i) & 1 for i in range(5)}
            pat.update({f"b{i}": (y >> i) & 1 for i in range(5)})
            (res,) = simulate_patterns(c, cells, [pat])
            got = sum(res[f"s{i}"] << i for i in range(5)) + (res["c"] << 5)
            assert got == x + y

    def test_subtractor(self, cells):
        nb = NetBuilder("t")
        a = nb.inputs("a", 4)
        b = nb.inputs("b", 4)
        diff, _ = nb.subtractor(a, b)
        nb.outputs(diff, "d")
        c = nb.build()
        for x, y in [(9, 3), (3, 9), (15, 15), (0, 1)]:
            pat = {f"a{i}": (x >> i) & 1 for i in range(4)}
            pat.update({f"b{i}": (y >> i) & 1 for i in range(4)})
            (res,) = simulate_patterns(c, cells, [pat])
            got = sum(res[f"d{i}"] << i for i in range(4))
            assert got == (x - y) % 16

    def test_decoder_onehot(self, cells):
        nb = NetBuilder("t")
        sel = nb.inputs("s", 3)
        lines = nb.decoder(sel)
        nb.outputs(lines, "d")
        c = nb.build()
        for v in range(8):
            pat = {f"s{i}": (v >> i) & 1 for i in range(3)}
            (res,) = simulate_patterns(c, cells, [pat])
            assert [res[f"d{i}"] for i in range(8)] == [
                1 if i == v else 0 for i in range(8)
            ]

    def test_priority_encoder(self, cells):
        nb = NetBuilder("t")
        reqs = nb.inputs("r", 4)
        grants = nb.priority_encoder(reqs)
        nb.outputs(grants, "g")
        c = nb.build()
        for v in range(16):
            pat = {f"r{i}": (v >> i) & 1 for i in range(4)}
            (res,) = simulate_patterns(c, cells, [pat])
            got = [res[f"g{i}"] for i in range(4)]
            expect = [0, 0, 0, 0]
            for i in range(4):
                if (v >> i) & 1:
                    expect[i] = 1
                    break
            assert got == expect

    def test_lookup_matches_table(self, cells):
        nb = NetBuilder("t")
        addr = nb.inputs("a", 4)
        out = nb.lookup(addr, PRESENT_SBOX, 4)
        nb.outputs(out, "y")
        c = nb.build()
        for v in range(16):
            pat = {f"a{i}": (v >> i) & 1 for i in range(4)}
            (res,) = simulate_patterns(c, cells, [pat])
            got = sum(res[f"y{i}"] << i for i in range(4))
            assert got == PRESENT_SBOX[v]

    def test_lookup_size_mismatch(self):
        nb = NetBuilder("t")
        addr = nb.inputs("a", 3)
        with pytest.raises(ValueError):
            nb.lookup(addr, PRESENT_SBOX, 4)  # 16 entries for 3 bits

    def test_shifters(self, cells):
        nb = NetBuilder("t")
        w = nb.inputs("w", 8)
        amt = nb.inputs("k", 3)
        left = nb.shift_left(w, amt)
        right = nb.shift_right(w, amt)
        nb.outputs(left, "l")
        nb.outputs(right, "r")
        c = nb.build()
        rng = random.Random(2)
        for _ in range(25):
            x, k = rng.randrange(256), rng.randrange(8)
            pat = {f"w{i}": (x >> i) & 1 for i in range(8)}
            pat.update({f"k{i}": (k >> i) & 1 for i in range(3)})
            (res,) = simulate_patterns(c, cells, [pat])
            l = sum(res[f"l{i}"] << i for i in range(8))
            r = sum(res[f"r{i}"] << i for i in range(8))
            assert l == (x << k) & 0xFF
            assert r == x >> k

    def test_checker_signals_are_silent(self, cells):
        """Every checker err signal must be 0 in fault-free operation."""
        nb = NetBuilder("t")
        a = nb.inputs("a", 6)
        b = nb.inputs("b", 6)
        total, carries = nb.adder_with_carries(a, b)
        err = nb.adder_parity_check(a, b, total, carries)
        nb.output(err, "err")
        c = nb.build()
        rng = random.Random(3)
        pats = [
            {pi: rng.getrandbits(1) for pi in c.inputs} for _ in range(200)
        ]
        for res in simulate_patterns(c, cells, pats):
            assert res["err"] == 0

    def test_guard_word_transparent_when_quiet(self, cells):
        from repro.netlist.circuit import CONST0

        nb = NetBuilder("t")
        w = nb.inputs("w", 6)
        out = nb.guard_word(CONST0, w)
        nb.outputs(out, "y")
        c = nb.build()
        rng = random.Random(4)
        pats = [
            {pi: rng.getrandbits(1) for pi in c.inputs} for _ in range(50)
        ]
        for pat, res in zip(pats, simulate_patterns(c, cells, pats)):
            for i in range(6):
                assert res[f"y{i}"] == pat[f"w{i}"]


class TestDesTables:
    def test_des_sbox_known_values(self):
        # S1(000000) = 14, S1(111111): row=3, col=15 -> 13.
        assert DES_S1[0] == 14
        assert DES_S1[0b111111] == 13
        assert DES_S2[0] == 15

    def test_des_tables_are_permutation_rows(self):
        for table in (DES_S1, DES_S2):
            assert len(table) == 64
            assert all(0 <= v < 16 for v in table)


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_builds_and_validates(self, name, library):
        raw = build_benchmark(name, library, optimize=False)
        raw.validate()
        assert len(raw) > 20
        assert raw.inputs and raw.outputs

    @pytest.mark.parametrize("name", ["sparc_tlu", "sparc_lsu", "wb_conmax"])
    def test_mapping_preserves_function(self, name, library, cells):
        raw = build_benchmark(name, library, optimize=False)
        mapped = build_benchmark(name, library)
        rng = random.Random(8)
        pats = [
            {pi: rng.getrandbits(1) for pi in raw.inputs}
            for _ in range(128)
        ]
        r0 = simulate_patterns(raw, cells, pats)
        r1 = simulate_patterns(mapped, cells, pats)
        for x, y in zip(r0, r1):
            for po in raw.outputs:
                assert x[po] == y[po]

    def test_scale_grows_circuit(self, library):
        s1 = build_benchmark("sparc_exu", library, scale=1, optimize=False)
        s2 = build_benchmark("sparc_exu", library, scale=2, optimize=False)
        assert len(s2) > len(s1) * 1.5

    def test_deterministic(self, library):
        a = build_benchmark("tv80", library)
        b = build_benchmark("tv80", library)
        from repro.netlist import write_netlist

        assert write_netlist(a) == write_netlist(b)

    def test_unknown_name_raises(self, library):
        with pytest.raises(KeyError):
            build_benchmark("nonesuch", library)
