"""Tests for the CNF encodings and the ATPG engine.

The key invariants: (1) every test the engine returns really detects the
fault it was generated for (checked by independent fault simulation);
(2) every undetectable verdict is consistent with exhaustive search on
small circuits; (3) redundant logic yields undetectable faults.
"""

from __future__ import annotations

import itertools

import pytest

from repro.atpg import DetectionEncoder, run_atpg
from repro.atpg.compaction import compact_tests
from repro.faults import (
    BridgingFault,
    StuckAtFault,
    TransitionFault,
    enumerate_internal_faults,
)
from repro.faults.model import RISE, FALL
from repro.netlist import Circuit
from tests.conftest import mixed_fault_list, random_mapped_circuit
from tests.sim_helpers import detected_by_patterns


@pytest.fixture()
def redundant_circuit():
    """y = (a AND b) OR (a AND NOT b) OR ... with a blocked cone.

    g_blocked computes a function that is masked downstream: z = w OR
    (a OR NOT a) is constant 1, so faults needing z=0 are undetectable.
    """
    c = Circuit("red")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("i1", "INVX1", {"A": "a"}, "na")
    c.add_gate("o1", "OR2X1", {"A": "a", "B": "na"}, "always1")
    c.add_gate("a1", "AND2X1", {"A": "a", "B": "b"}, "w")
    c.add_gate("o2", "OR2X1", {"A": "w", "B": "always1"}, "z")
    c.add_gate("a2", "AND2X1", {"A": "z", "B": "b"}, "y")
    c.set_outputs(["y"])
    c.validate()
    return c


def _exhaustive_detect(circuit, cells, fault):
    """Ground truth by trying every pattern pair exhaustively."""
    pis = circuit.inputs
    assignments = list(itertools.product([0, 1], repeat=len(pis)))
    pairs = []
    for v1 in assignments:
        for v2 in assignments:
            pairs.append(
                (dict(zip(pis, v1)), dict(zip(pis, v2)))
            )
    return any(detected_by_patterns(circuit, cells, [fault], pairs))


class TestEncoderAgainstExhaustive:
    def test_stuck_at_faults(self, tiny_circuit, cells):
        enc = DetectionEncoder(tiny_circuit, cells)
        for net in ("a", "b", "y", "z"):
            for value in (0, 1):
                fault = StuckAtFault(
                    f"sa{value}:{net}", "VIA-01", net=net, value=value
                )
                got = enc.encode(fault).solve()
                want = _exhaustive_detect(tiny_circuit, cells, fault)
                assert got == want, fault.fault_id

    def test_transition_faults(self, tiny_circuit, cells):
        enc = DetectionEncoder(tiny_circuit, cells)
        for net in ("a", "y", "z"):
            for slow_to in (RISE, FALL):
                fault = TransitionFault(
                    f"tr:{net}:{slow_to}", "VIA-01", net=net, slow_to=slow_to
                )
                got = enc.encode(fault).solve()
                want = _exhaustive_detect(tiny_circuit, cells, fault)
                assert got == want, fault.fault_id

    def test_bridging_faults(self, tiny_circuit, cells):
        enc = DetectionEncoder(tiny_circuit, cells)
        for victim, aggressor in (("y", "a"), ("a", "y"), ("y", "b")):
            fault = BridgingFault(
                f"br:{victim}<{aggressor}", "MET-01",
                victim=victim, aggressor=aggressor,
            )
            got = enc.encode(fault).solve()
            want = _exhaustive_detect(tiny_circuit, cells, fault)
            assert got == want, fault.fault_id

    def test_cell_aware_faults(self, tiny_circuit, cells, library):
        enc = DetectionEncoder(tiny_circuit, cells)
        faults = enumerate_internal_faults(tiny_circuit, library)
        assert faults
        for fault in faults:
            got = enc.encode(fault).solve()
            want = _exhaustive_detect(tiny_circuit, cells, fault)
            assert got == want, fault.fault_id

    def test_redundant_fault_undetectable(self, redundant_circuit, cells):
        enc = DetectionEncoder(redundant_circuit, cells)
        # z is constant 1 (w OR always1): SA1 at z is undetectable.
        fault = StuckAtFault("sa1:z", "VIA-01", net="z", value=1)
        assert enc.encode(fault).solve() is False
        # SA0 at z flips y whenever b=1: detectable.
        fault0 = StuckAtFault("sa0:z", "VIA-01", net="z", value=0)
        assert enc.encode(fault0).solve() is True

    def test_generated_test_verified_by_fsim(self, adder4, cells):
        enc = DetectionEncoder(adder4, cells)
        for net in list(adder4.internal_nets())[:8]:
            fault = StuckAtFault(f"sa0:{net}", "VIA-01", net=net, value=0)
            problem = enc.encode(fault)
            if problem.solve():
                pair = problem.extract_test(adder4)
                assert detected_by_patterns(
                    adder4, cells, [fault], [pair]
                ) == [True], net


class TestEngine:
    def test_full_classification(self, redundant_circuit, cells, library):
        faults = enumerate_internal_faults(redundant_circuit, library)
        faults.append(
            StuckAtFault("sa1:z", "VIA-01", net="z", value=1)
        )
        faults.append(
            StuckAtFault("sa0:y", "VIA-01", net="y", value=0)
        )
        result = run_atpg(redundant_circuit, cells, faults, seed=1)
        assert result.detected | result.undetectable == {
            f.fault_id for f in faults
        }
        assert "sa1:z" in result.undetectable
        assert "sa0:y" in result.detected
        # Every reported test detects at least one target fault.
        for pair in result.tests:
            flags = detected_by_patterns(
                redundant_circuit, cells, faults, [pair]
            )
            assert any(flags)

    def test_coverage_definition(self, redundant_circuit, cells, library):
        faults = enumerate_internal_faults(redundant_circuit, library)
        result = run_atpg(redundant_circuit, cells, faults, seed=1)
        assert result.coverage == pytest.approx(
            1 - len(result.undetectable) / len(faults)
        )

    def test_deterministic(self, adder4, cells, library):
        faults = enumerate_internal_faults(adder4, library)
        r1 = run_atpg(adder4, cells, faults, seed=9)
        r2 = run_atpg(adder4, cells, faults, seed=9)
        assert r1.undetectable == r2.undetectable
        assert len(r1.tests) == len(r2.tests)

    def test_initial_tests_speed_path(self, adder4, cells, library):
        faults = enumerate_internal_faults(adder4, library)
        first = run_atpg(adder4, cells, faults, seed=2)
        second = run_atpg(
            adder4, cells, faults, seed=2, initial_tests=first.tests
        )
        assert second.undetectable == first.undetectable
        assert second.sat_calls <= first.sat_calls

    def test_all_faults_classified_exactly_once(self, adder4, cells, library):
        faults = enumerate_internal_faults(adder4, library)
        result = run_atpg(adder4, cells, faults, seed=0)
        ids = {f.fault_id for f in faults}
        assert result.detected | result.undetectable == ids
        assert not result.detected & result.undetectable

    @pytest.mark.parametrize("batch_size", [0, -3, 65])
    def test_run_atpg_rejects_bad_batch_size(self, cells, library,
                                             batch_size):
        """A batch outside 1..BATCH_PAIRS pairs is an error, not
        silently clipped."""
        circuit = random_mapped_circuit(cells, seed=7)
        faults = mixed_fault_list(circuit, library, seed=7, per_kind=2)
        with pytest.raises(ValueError, match="batch_size"):
            run_atpg(circuit, cells, faults, batch_size=batch_size)


class TestCompaction:
    def test_compacted_keeps_coverage(self, adder4, cells, library):
        faults = enumerate_internal_faults(adder4, library)
        result = run_atpg(adder4, cells, faults, seed=3, compaction=False)
        detected_faults = [
            f for f in faults if f.fault_id in result.detected
        ]
        compacted = compact_tests(adder4, cells, detected_faults, result.tests)
        assert len(compacted) <= len(result.tests)
        before = detected_by_patterns(
            adder4, cells, detected_faults, result.tests
        )
        after = detected_by_patterns(
            adder4, cells, detected_faults, compacted
        )
        assert after == before

    def test_empty_tests(self, adder4, cells):
        assert compact_tests(adder4, cells, [], []) == []


class TestEmptyFaultSet:
    """Regression: coverage of an empty fault universe is 1.0, not a
    ZeroDivisionError (a fully-guarded subcircuit can have no faults)."""

    def test_result_coverage_with_zero_faults(self):
        from repro.atpg.engine import AtpgResult

        assert AtpgResult(n_faults=0).coverage == 1.0

    def test_run_atpg_with_no_faults(self, adder4, cells):
        result = run_atpg(adder4, cells, [])
        assert result.n_faults == 0
        assert result.coverage == 1.0
        assert result.detected == set()
        assert result.undetectable == set()
