"""Unit tests for repro.utils (union-find, rng, tables)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.utils import UnionFind, format_table, make_rng


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(["a", "b", "c"])
        assert len(uf) == 3
        assert not uf.connected("a", "b")
        assert uf.set_size("a") == 1

    def test_union_merges(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert uf.connected("a", "b")
        assert uf.set_size("a") == 2

    def test_lazy_add_on_find(self):
        uf = UnionFind()
        assert uf.find("x") == "x"
        assert "x" in uf

    def test_transitivity(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        uf.union(4, 5)
        assert uf.connected(1, 3)
        assert not uf.connected(1, 4)

    def test_groups_sorted_largest_first(self):
        uf = UnionFind(range(6))
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        groups = uf.groups()
        assert sorted(len(g) for g in groups) == [1, 2, 3]
        assert len(groups[0]) == 3

    def test_union_returns_root(self):
        uf = UnionFind()
        root = uf.union("a", "b")
        assert root in ("a", "b")
        assert uf.find("a") == root

    def test_idempotent_union(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("a", "b")
        assert uf.set_size("b") == 2

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30))))
    def test_matches_naive_partition(self, pairs):
        uf = UnionFind(range(31))
        naive = {i: {i} for i in range(31)}
        for a, b in pairs:
            uf.union(a, b)
            merged = naive[a] | naive[b]
            for item in merged:
                naive[item] = merged
        for a in range(31):
            for b in range(0, 31, 7):
                assert uf.connected(a, b) == (b in naive[a])


class TestRng:
    def test_deterministic_int_seed(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_deterministic_str_seed(self):
        assert make_rng("hello").random() == make_rng("hello").random()

    def test_different_seeds_differ(self):
        assert make_rng("a").random() != make_rng("b").random()

    def test_independent_streams(self):
        a = make_rng(1)
        b = make_rng(1)
        a.random()  # advancing one stream must not affect the other
        assert b.random() == make_rng(1).random()


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["x", "yy"], [[1, 2], [10, 20]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("yy")

    def test_title(self):
        out = format_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_float_formatting(self):
        out = format_table(["v"], [[3.14159]])
        assert "3.14" in out
        assert "3.1416" not in out

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
