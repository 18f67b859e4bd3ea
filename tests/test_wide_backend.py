"""Unit tests for the wide backend's building blocks.

Covers the pieces the differential suite exercises only indirectly:
cone precomputation on the compiled plan, pattern packing between
Python-int bit vectors and uint64 word arrays, the width-agnostic
:class:`PatternBatch`, and — the load-bearing part — the shared
good-value LRU under mixed event/wide use: backend-tagged keys keep the
two representations from colliding, and each representation's checksum
catches (and repairs) corruption of its own entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.fsim import PatternBatch, fault_simulate
from repro.netlist.simulator import CompiledCircuit, set_cache_integrity
from repro.netlist.vsim import (
    batch_capacity,
    pack_word,
    resolve_backend,
    resolve_words,
    unpack_word,
    wide_checksum,
    wide_mask,
    words_for,
)
from repro.testing import ChaosConfig, chaos
from repro.utils.observability import EngineStats
from tests.conftest import mixed_fault_list, random_mapped_circuit


# ----------------------------------------------------------------------
# Cone precomputation on the compiled plan
# ----------------------------------------------------------------------
class TestCones:
    def test_cone_gates_tiny(self, tiny_circuit, cells):
        """y = NAND(a, b), z = NOT(y): cones are exact and memoized."""
        plan = CompiledCircuit.get(tiny_circuit, cells)
        a = plan.net_index["a"]
        y = plan.net_index["y"]
        z = plan.net_index["z"]
        u1 = plan.gate_index["u1"]
        u2 = plan.gate_index["u2"]
        # From input a: both gates are affected, both POs observable.
        gates, pos = plan.cone_gates(a)
        assert gates == tuple(sorted([u1, u2]))
        assert set(pos) == {y, z}
        # From y (itself a PO): only the inverter downstream, y observable
        # directly at the root.
        gates, pos = plan.cone_gates(y)
        assert gates == (u2,)
        assert set(pos) == {y, z}
        # From z: no downstream gates, z observable at the root.
        assert plan.cone_gates(z) == ((), (z,))
        # Memoized: same tuple object on re-query.
        assert plan.cone_gates(a) is plan.cone_gates(a)

    def test_cone_gates_topological_and_consistent(self, cells):
        """Cone gates come sorted (= topo order) with reachable POs only."""
        circuit = random_mapped_circuit(cells, seed=9)
        plan = CompiledCircuit.get(circuit, cells)
        for net in list(circuit.inputs)[:4]:
            idx = plan.net_index[net]
            gates, pos = plan.cone_gates(idx)
            assert list(gates) == sorted(gates)
            outputs = {plan.gate_out[gi] for gi in gates}
            for po in pos:
                assert po == idx or po in outputs
                assert plan.is_po[po]


# ----------------------------------------------------------------------
# Packing and batch geometry
# ----------------------------------------------------------------------
class TestPacking:
    @pytest.mark.parametrize("words", [1, 2, 5])
    def test_pack_unpack_roundtrip(self, words):
        rng = np.random.default_rng(3)
        for _ in range(20):
            bits = int(rng.integers(1, 64 * words, endpoint=True))
            value = int.from_bytes(rng.bytes(8 * words), "little")
            value &= (1 << bits) - 1
            arr = pack_word(value, words)
            assert arr.shape == (words,) and arr.dtype == np.uint64
            assert unpack_word(arr) == value

    def test_wide_mask_matches_int_mask(self):
        for n in (1, 63, 64, 65, 200):
            words = words_for(n)
            assert unpack_word(wide_mask(n, words)) == (1 << n) - 1

    def test_words_for(self):
        assert words_for(0) == 1
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2
        assert words_for(4096) == 64

    def test_batch_words_property(self, cells):
        circuit = random_mapped_circuit(cells, seed=11)
        assert PatternBatch.random(circuit, 64, seed=0).words == 1
        assert PatternBatch.random(circuit, 65, seed=0).words == 2

    def test_capacity_and_resolution(self, monkeypatch):
        assert batch_capacity("event") == 64
        assert batch_capacity("wide") == 64 * resolve_words()
        monkeypatch.setenv("REPRO_SIM_WORDS", "3")
        assert batch_capacity("wide") == 192
        monkeypatch.setenv("REPRO_SIM_BACKEND", "wide")
        assert resolve_backend() == "wide"
        assert resolve_backend("event") == "event"
        with pytest.raises(ValueError):
            resolve_words(0)

    def test_from_pairs_matches_naive_packing(self, cells):
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


# ----------------------------------------------------------------------
# Shared good-value LRU under mixed backends
# ----------------------------------------------------------------------
class TestSharedGoodCache:
    def _run_both(self, circuit, cells, faults, batch, stats=None):
        event = fault_simulate(
            circuit, cells, faults, batch, backend="event", stats=stats
        )
        wide = fault_simulate(
            circuit, cells, faults, batch, backend="wide", stats=stats
        )
        assert event == wide
        return event

    def test_backend_tagged_keys_coexist(self, cells, library):
        """Same frames under both backends: two entries, zero collisions."""
        circuit = random_mapped_circuit(cells, seed=14)
        faults = mixed_fault_list(circuit, library, seed=14)
        batch = PatternBatch.random(circuit, 64, seed=14)
        plan = CompiledCircuit.get(circuit, cells)
        plan.good_cache.clear()
        plan.good_sums.clear()
        self._run_both(circuit, cells, faults, batch)
        tags = sorted(key[0] for key in plan.good_cache)
        assert tags == ["event", "wide"]
        # The second run of each backend hits its own entry.
        stats = EngineStats()
        self._run_both(circuit, cells, faults, batch, stats=stats)
        assert stats.good_cache_hits == 4  # 2 frames x 2 backends
        assert stats.good_simulations == 0

    def test_wide_checksum_catches_corruption(self, cells, library):
        """A flipped bit in a cached wide entry is repaired bit-exactly."""
        circuit = random_mapped_circuit(cells, seed=15)
        faults = mixed_fault_list(circuit, library, seed=15)
        batch = PatternBatch.random(circuit, 130, seed=15)
        clean = fault_simulate(circuit, cells, faults, batch, backend="wide")
        plan = CompiledCircuit.get(circuit, cells)
        wide_keys = [k for k in plan.good_cache if k[0] == "wide"]
        assert wide_keys
        key = wide_keys[0]
        entry = tuple(frame.copy() for frame in plan.good_cache[key])
        entry[0][3, 1] ^= np.uint64(1)
        plan.good_cache[key] = entry
        assert wide_checksum(entry) != plan.good_sums[key]
        prev = set_cache_integrity(True)
        try:
            stats = EngineStats()
            repaired = fault_simulate(
                circuit, cells, faults, batch, backend="wide", stats=stats
            )
        finally:
            set_cache_integrity(prev)
        assert repaired == clean
        assert stats.cache_integrity_failures == 1

    def test_chaos_corrupts_and_repairs_wide_entries(self, cells, library):
        """The chaos injector's corruption path handles array entries."""
        circuit = random_mapped_circuit(cells, seed=16)
        faults = mixed_fault_list(circuit, library, seed=16)
        batch = PatternBatch.random(circuit, 100, seed=16)
        clean = fault_simulate(circuit, cells, faults, batch, backend="wide")
        with chaos(ChaosConfig(corrupt_good_cache_every=1)) as injector:
            stats = EngineStats()
            under_chaos = fault_simulate(
                circuit, cells, faults, batch, backend="wide", stats=stats
            )
        assert under_chaos == clean
        assert injector.counters.corruptions_injected >= 1
        assert stats.cache_integrity_failures >= 1

    def test_chaos_still_corrupts_event_entries(self, cells, library):
        """The list path of the injector survives the wide-entry support."""
        circuit = random_mapped_circuit(cells, seed=17)
        faults = mixed_fault_list(circuit, library, seed=17)
        batch = PatternBatch.random(circuit, 48, seed=17)
        clean = fault_simulate(circuit, cells, faults, batch, backend="event")
        with chaos(ChaosConfig(corrupt_good_cache_every=1)) as injector:
            stats = EngineStats()
            under_chaos = fault_simulate(
                circuit, cells, faults, batch, backend="event", stats=stats
            )
        assert under_chaos == clean
        assert injector.counters.corruptions_injected >= 1
        assert stats.cache_integrity_failures >= 1
