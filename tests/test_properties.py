"""Property-based tests (hypothesis) on core data structures/invariants."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.atpg.cnf import _gate_clauses, _prime_implicants
from repro.faults.fsim import PatternBatch, fault_simulate
from repro.synthesis.aig import Aig
from repro.synthesis.rewrite import shrink_tt, tt_support
from repro.synthesis.techmap import _transform_tt


class TestPrimeImplicantEncoding:
    @given(st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_clauses_characterize_function(self, n, data):
        """The clause set of (n, tt) must be satisfied exactly by the
        assignments where out == tt(inputs)."""
        tt = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        clauses = _gate_clauses(n, tt)
        for m in range(1 << n):
            want = (tt >> m) & 1
            for out in (0, 1):
                bits = [(m >> i) & 1 for i in range(n)] + [out]
                ok = all(
                    any(bits[slot] == int(pol) for slot, pol in clause)
                    for clause in clauses
                )
                assert ok == (out == want), (tt, m, out)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_primes_cover_onset_exactly(self, n, data):
        minterms = data.draw(
            st.lists(st.integers(0, (1 << n) - 1), unique=True)
        )
        primes = _prime_implicants(minterms, n)
        covered = set()
        for care, val in primes:
            free = [i for i in range(n) if not (care >> i) & 1]
            for combo in itertools.product([0, 1], repeat=len(free)):
                m = val
                for bit, i in zip(combo, free):
                    if bit:
                        m |= 1 << i
                covered.add(m)
        assert covered == set(minterms)


class TestTruthTableOps:
    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shrink_preserves_function(self, n, data):
        tt = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        sup = tt_support(tt, n)
        stt = shrink_tt(tt, n, sup)
        # Evaluate both on every full minterm.
        for m in range(1 << n):
            packed = 0
            for j, var in enumerate(sup):
                if (m >> var) & 1:
                    packed |= 1 << j
            assert ((tt >> m) & 1) == ((stt >> packed) & 1)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_transform_tt_roundtrip(self, n, data):
        """Applying a permutation+negation twice with its inverse is id."""
        tt = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        perm = data.draw(st.permutations(range(n)))
        neg = data.draw(st.integers(0, (1 << n) - 1))
        once = _transform_tt(tt, n, perm, neg)
        # Inverse permutation; negation mask mapped through perm.
        inv = [0] * n
        for j, p in enumerate(perm):
            inv[p] = j
        inv_neg = 0
        for j in range(n):
            if (neg >> j) & 1:
                inv_neg |= 1 << perm[j]
        assert _transform_tt(once, n, inv, inv_neg) == tt


class TestAigInvariants:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_strash_no_duplicate_ands(self, data):
        n = data.draw(st.integers(2, 5))
        aig = Aig(n)
        lits = [aig.pi_lit(i) for i in range(n)]
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        for _ in range(40):
            a, b = rng.choice(lits), rng.choice(lits) ^ rng.getrandbits(1)
            lits.append(aig.and_(a, b))
        seen = set()
        for node in aig.and_nodes():
            key = aig.fanins[node]
            assert key not in seen
            seen.add(key)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_cleanup_preserves_outputs(self, data):
        n = data.draw(st.integers(2, 5))
        aig = Aig(n)
        lits = [aig.pi_lit(i) for i in range(n)]
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        for _ in range(30):
            a, b = rng.choice(lits), rng.choice(lits) ^ rng.getrandbits(1)
            lits.append(aig.and_(a, b))
        for k in range(3):
            aig.add_output(rng.choice(lits), f"o{k}")
        clean = aig.cleanup()
        vals = [rng.getrandbits(32) for _ in range(n)]
        assert aig.output_values(vals, (1 << 32) - 1) == \
            clean.output_values(vals, (1 << 32) - 1)
        assert clean.num_ands() <= aig.num_ands()


class TestSimulatorVsAig:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_netlist_sim_matches_aig_sim(self, data):
        """Random mapped netlist: gate-level simulation must agree with
        the AIG derived from it."""
        from repro.library import osu018_library
        from repro.netlist import simulate
        from repro.synthesis import aig_from_circuit
        from tests.conftest import random_mapped_circuit

        cells = {c.name: c for c in osu018_library()}
        seed = data.draw(st.integers(0, 10 ** 6))
        circuit = random_mapped_circuit(cells, n_pi=6, n_gates=30, seed=seed)
        aig = aig_from_circuit(circuit, cells)
        rng = random.Random(seed + 1)
        mask = (1 << 64) - 1
        pi_vals = {pi: rng.getrandbits(64) for pi in circuit.inputs}
        net_vals = simulate(circuit, cells, pi_vals, mask)
        aig_out = aig.output_values(
            [pi_vals[pi] for pi in circuit.inputs], mask
        )
        for po, val in zip(circuit.outputs, aig_out):
            assert net_vals[po] == val


class TestMulticoreInvariance:
    @given(st.data())
    @settings(max_examples=8, deadline=None)
    def test_detects_invariant_to_workers_and_shard_order(
        self, cells, library, data
    ):
        """The detect word of each fault is a pure function of (circuit,
        fault, batch): invariant to the order the faults are handed in,
        to how the list is cut into shards, and to how many workers
        simulate those shards concurrently on one shared circuit (the
        inline ``--jobs`` situation)."""
        from tests.conftest import (
            mixed_fault_list,
            on_workers,
            random_mapped_circuit,
        )

        seed = data.draw(st.integers(0, 2 ** 16), label="circuit seed")
        workers = data.draw(st.integers(1, 4), label="workers")
        circuit = random_mapped_circuit(cells, n_gates=30, seed=seed)
        pool = mixed_fault_list(circuit, library, seed=seed, per_kind=4)
        faults = data.draw(
            st.lists(st.sampled_from(pool), min_size=8, max_size=24,
                     unique_by=lambda f: f.fault_id),
            label="fault subset",
        )
        batch = PatternBatch.random(circuit, 96, seed=seed ^ 0x5A5A)

        words = fault_simulate(circuit, cells, faults, batch)
        baseline = {f.fault_id: w for f, w in zip(faults, words)}

        shuffled = list(faults)
        random.Random(data.draw(
            st.integers(0, 2 ** 16), label="shuffle seed"
        )).shuffle(shuffled)
        cuts = sorted(data.draw(
            st.lists(st.integers(1, len(shuffled) - 1),
                     min_size=workers - 1, max_size=workers - 1),
            label="shard cuts",
        ))
        bounds = [0] + cuts + [len(shuffled)]
        shards = [shuffled[a:b] for a, b in zip(bounds, bounds[1:])]
        shard_words = on_workers(
            lambda i: fault_simulate(circuit, cells, shards[i], batch),
            workers,
        )
        merged = {}
        for shard, words in zip(shards, shard_words):
            merged.update((f.fault_id, w) for f, w in zip(shard, words))
        assert merged == baseline


class TestParallelAtpgInvariance:
    @given(st.data())
    @settings(max_examples=6, deadline=None)
    def test_undetectable_invariant_to_atpg_workers_and_scan_order(
        self, cells, library, data
    ):
        """The UNDETECTABLE set of run_atpg is a pure function of
        (circuit, fault set): invariant to the order representatives are
        handed in and to how many ATPG runs (1/2/4) race on the shared
        circuit, each with its own order.  Exact SAT decisions are
        schedule-independent, so this holds bit-exactly — not just
        statistically."""
        from repro.atpg.engine import run_atpg
        from tests.conftest import (
            mixed_fault_list,
            on_workers,
            random_mapped_circuit,
        )

        seed = data.draw(st.integers(0, 2 ** 16), label="circuit seed")
        workers = data.draw(st.sampled_from([1, 2, 4]), label="workers")
        circuit = random_mapped_circuit(cells, n_gates=30, seed=seed)
        pool = mixed_fault_list(circuit, library, seed=seed, per_kind=4)
        faults = data.draw(
            st.lists(st.sampled_from(pool), min_size=10, max_size=24,
                     unique_by=lambda f: f.fault_id),
            label="fault subset",
        )
        baseline = run_atpg(circuit, cells, faults, seed=0, random_rounds=0)

        orders = []
        for _ in range(workers):
            shuffled = list(faults)
            random.Random(data.draw(
                st.integers(0, 2 ** 16), label="shuffle seed"
            )).shuffle(shuffled)
            orders.append(shuffled)
        results = on_workers(
            lambda i: run_atpg(
                circuit, cells, orders[i], seed=0, random_rounds=0
            ),
            workers,
        )
        for result in results:
            assert result.undetectable == baseline.undetectable
            assert result.detected == baseline.detected
            assert result.aborted == baseline.aborted == set()
