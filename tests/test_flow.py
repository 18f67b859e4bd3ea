"""Integration tests: the analyze_design flow and the resynthesis
procedure on small real benchmark circuits."""

from __future__ import annotations

import pytest

from repro.bench import build_benchmark
from repro.core import (
    ResynthesisConfig,
    analyze_design,
    classify_internal,
    resynthesize_for_coverage,
    table1_row,
    table2_row,
)
from repro.core.metrics import average_rows
from tests.sim_helpers import detected_by_patterns
from repro.physical.pdesign import pdesign


@pytest.fixture(scope="module")
def tlu_state(library):
    circuit = build_benchmark("sparc_tlu", library)
    return circuit, analyze_design(circuit, library)


class TestAnalyzeDesign:
    def test_state_consistency(self, tlu_state):
        _circuit, state = tlu_state
        assert state.n_faults == len(state.fault_set)
        assert state.u_total == state.u_internal + state.u_external
        assert 0.0 <= state.coverage <= 1.0
        assert state.clusters.n_undetectable == state.u_total

    def test_undetectable_faults_exist(self, tlu_state):
        """The checker structures must produce undetectable faults."""
        _circuit, state = tlu_state
        assert state.u_total > 0
        assert state.u_internal > 0

    def test_clustering_phenomenon(self, tlu_state):
        """Section II: undetectable faults cluster (S_max holds a large
        share of U)."""
        _circuit, state = tlu_state
        assert state.smax_size / state.u_total > 0.2

    def test_tests_detect_only_real_faults(self, tlu_state, cells):
        circuit, state = tlu_state
        undetectable = state.undetectable_faults
        if not undetectable:
            pytest.skip("no undetectable faults")
        flags = detected_by_patterns(
            circuit, cells, undetectable, state.tests
        )
        assert not any(flags), "a test claims to detect an undetectable fault"

    def test_internal_count_matches_quick_path(self, tlu_state, library):
        circuit, state = tlu_state
        quick = classify_internal(circuit, library)
        assert len(quick.undetectable) == state.u_internal

    def test_fixed_floorplan_respected(self, tlu_state, library):
        circuit, state = tlu_state
        physical = pdesign(
            circuit, library.cells, floorplan=state.physical.floorplan,
            seed=1,
        )
        again = analyze_design(circuit, library, seed=1, physical=physical)
        assert again.physical.floorplan == state.physical.floorplan


class TestMetricsRows:
    def test_table1_row_fields(self, tlu_state):
        _circuit, state = tlu_state
        row = table1_row("sparc_tlu", state)
        assert row["F_In"] + row["F_Ex"] == state.n_faults
        assert row["U_In"] + row["U_Ex"] == state.u_total
        assert row["Smax"] <= row["U_In"] + row["U_Ex"]
        assert 0 <= row["%Smax_U"] <= 100

    def test_average_rows(self):
        rows = [
            {"Circuit": "a", "F": 10, "U": 2},
            {"Circuit": "b", "F": 20, "U": 4},
        ]
        avg = average_rows(rows)
        assert avg["F"] == 15
        assert avg["U"] == 3
        assert avg["Circuit"] == "average"


class TestResynthesisProcedure:
    @pytest.fixture(scope="class")
    def result(self, library):
        circuit = build_benchmark("sparc_tlu", library)
        cfg = ResynthesisConfig(q_max=2, max_iterations_per_phase=6)
        return resynthesize_for_coverage(circuit, library, cfg)

    def test_u_monotone_nonincreasing(self, result):
        """Accepted iterations never increase the undetectable count."""
        assert result.final.u_total <= result.original.u_total

    def test_coverage_improves_or_equal(self, result):
        assert result.final.coverage >= result.original.coverage

    def test_constraints_respected(self, result):
        orig = result.original.physical
        final = result.final.physical
        limit = 1.0 + result.q_used / 100.0 + 1e-9
        assert final.delay <= orig.delay * limit
        assert final.total_power <= orig.total_power * limit
        assert final.floorplan == orig.floorplan

    def test_functional_equivalence_preserved(self, result, cells):
        import random

        from tests.sim_helpers import simulate_patterns

        a, b = result.original.circuit, result.final.circuit
        assert a.inputs == b.inputs
        assert a.outputs == b.outputs
        rng = random.Random(17)
        pats = [
            {pi: rng.getrandbits(1) for pi in a.inputs}
            for _ in range(192)
        ]
        r0 = simulate_patterns(a, cells, pats)
        r1 = simulate_patterns(b, cells, pats)
        for x, y in zip(r0, r1):
            for po in a.outputs:
                assert x[po] == y[po]

    def test_per_q_states_recorded(self, result):
        assert set(result.per_q) == {0, 1, 2}
        assert 0 <= result.q_used <= 2

    def test_table2_rows(self, result):
        rows = table2_row("sparc_tlu", result)
        assert rows[0]["MaxInc"] == "orig"
        assert rows[0]["Rtime"] == 1.0
        assert rows[1]["MaxInc"].endswith("%")
        assert rows[1]["U"] <= rows[0]["U"]

    def test_history_recorded(self, result):
        assert result.history, "iteration trace must not be empty"
        for record in result.history:
            assert record.phase in (1, 2)
            assert record.status in (
                "accepted", "constraints", "rejected", "synthfail",
                "backtrack-accepted",
            )
