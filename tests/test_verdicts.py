"""Three-valued ATPG verdicts under resource budgets.

The contracts locked in here:

* with the default unlimited budget, the governed engine is bit-identical
  to the ungoverned one (same verdicts, same tests, empty abort bucket);
* under any budget — or any injected abort pattern — the three buckets
  partition the fault set, the undetectable set is a subset of the clean
  run's (an abort never turns into an undetectability claim), and the
  abort shows up in the stats/degradation records instead of silently
  skewing U;
* exceeding the global abort tolerance flags the run approximate.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.atpg import AtpgBudget, run_atpg
from repro.atpg.budget import DEFAULT_ABORT_FRACTION
from repro.library import osu018_library
from tests.conftest import (
    injected_sat_aborts,
    mixed_fault_list,
    random_mapped_circuit,
)


@lru_cache(maxsize=None)
def _scenario():
    """A dead-logic-rich circuit, its faults, and the clean ATPG run."""
    library = osu018_library()
    cells = {c.name: c for c in library}
    circuit = random_mapped_circuit(cells, n_pi=6, n_gates=24, n_po=6, seed=3)
    faults = tuple(mixed_fault_list(circuit, library, seed=3, per_kind=6))
    clean = run_atpg(circuit, cells, list(faults), seed=5, random_rounds=2)
    return circuit, cells, faults, clean


def _assert_partition(result, faults):
    all_ids = {f.fault_id for f in faults}
    assert result.detected | result.undetectable | result.aborted == all_ids
    assert not result.detected & result.undetectable
    assert not result.detected & result.aborted
    assert not result.undetectable & result.aborted


class TestBudget:
    def test_default_is_unlimited(self):
        budget = AtpgBudget()
        assert (
            budget.deadline_ms, budget.conflict_budget,
            budget.decision_budget,
        ) == (None, None, None)
        assert budget.abort_fraction == DEFAULT_ABORT_FRACTION

    def test_from_env_unset_is_unlimited(self):
        assert AtpgBudget.from_env({}) == AtpgBudget()

    def test_from_env_reads_all_knobs(self):
        budget = AtpgBudget.from_env({
            "REPRO_ATPG_DEADLINE_MS": "250",
            "REPRO_ATPG_CONFLICT_BUDGET": "1000",
            "REPRO_ATPG_DECISION_BUDGET": "5000",
            "REPRO_ATPG_ABORT_FRACTION": "0.25",
        })
        assert budget.deadline_ms == 250.0
        assert budget.conflict_budget == 1000
        assert budget.decision_budget == 5000
        assert budget.abort_fraction == 0.25
        assert budget != AtpgBudget()

    @pytest.mark.parametrize("name", [
        "REPRO_ATPG_DEADLINE_MS", "REPRO_ATPG_ABORT_FRACTION",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "many"])
    def test_from_env_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            AtpgBudget.from_env({name: value})

    @pytest.mark.parametrize("name", [
        "REPRO_ATPG_DEADLINE_MS", "REPRO_ATPG_CONFLICT_BUDGET",
        "REPRO_ATPG_DECISION_BUDGET",
    ])
    def test_from_env_rejects_negative_limits(self, name):
        with pytest.raises(ValueError, match=name):
            AtpgBudget.from_env({name: "-1"})

    @pytest.mark.parametrize("value", ["7", "-0.5", "1.01"])
    def test_from_env_rejects_fraction_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match="REPRO_ATPG_ABORT_FRACTION"):
            AtpgBudget.from_env({"REPRO_ATPG_ABORT_FRACTION": value})

    def test_from_env_accepts_zero_and_unit_bounds(self):
        budget = AtpgBudget.from_env({
            "REPRO_ATPG_DEADLINE_MS": "0.0",
            "REPRO_ATPG_CONFLICT_BUDGET": "0",
            "REPRO_ATPG_DECISION_BUDGET": "0",
            "REPRO_ATPG_ABORT_FRACTION": "0",
        })
        assert budget.deadline_ms == 0.0
        assert budget.conflict_budget == budget.decision_budget == 0
        assert budget.abort_fraction == 0.0
        assert AtpgBudget.from_env(
            {"REPRO_ATPG_ABORT_FRACTION": "1"}).abort_fraction == 1.0


class TestUnlimitedIdentity:
    def test_huge_budget_bit_identical_to_unlimited(self):
        """Acceptance: with budgets effectively disabled, nothing changes."""
        circuit, cells, faults, clean = _scenario()
        roomy = AtpgBudget(
            deadline_ms=1e9, conflict_budget=10**9, decision_budget=10**9,
        )
        governed = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=roomy,
        )
        assert governed.detected == clean.detected
        assert governed.undetectable == clean.undetectable
        assert governed.aborted == set() == clean.aborted
        assert governed.tests == clean.tests
        assert not governed.approximate
        assert governed.stats.sat_aborts == 0
        assert governed.stats.degradations == []

    def test_clean_run_has_no_abort_artifacts(self):
        _circuit, _cells, faults, clean = _scenario()
        _assert_partition(clean, faults)
        assert clean.aborted == set()
        # The pessimistic coverage (every abort undetectable) is exact.
        pessimistic = len(clean.undetectable) + len(clean.aborted)
        assert clean.coverage == 1.0 - pessimistic / clean.n_faults


class TestBudgetedRun:
    def test_zero_decision_budget_aborts_conservatively(self):
        circuit, cells, faults, clean = _scenario()
        starved = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=AtpgBudget(decision_budget=0),
        )
        _assert_partition(starved, faults)
        # Aborts are never laundered into undetectability proofs.
        assert starved.undetectable <= clean.undetectable
        pessimistic = len(starved.undetectable) + len(starved.aborted)
        assert 1.0 - pessimistic / starved.n_faults <= starved.coverage
        if starved.aborted:
            assert starved.stats.sat_aborts > 0
            assert starved.stats.verdicts_aborted > 0
            assert starved.stats.degradations, (
                "aborts must leave an explicit degradation record"
            )
            assert starved.approximate == (
                len(starved.aborted)
                > DEFAULT_ABORT_FRACTION * starved.n_faults
            )

    def test_approximate_flag_tracks_tolerance(self):
        circuit, cells, faults, _clean = _scenario()
        strict = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=AtpgBudget(decision_budget=0, abort_fraction=0.0),
        )
        lax = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=AtpgBudget(decision_budget=0, abort_fraction=1.0),
        )
        # Same aborts either way; only the tolerance flag differs.
        assert strict.aborted == lax.aborted
        if strict.aborted:
            assert strict.approximate
            assert not lax.approximate

    def test_budget_from_environment_is_honored(self, monkeypatch):
        circuit, cells, faults, _clean = _scenario()
        monkeypatch.setenv("REPRO_ATPG_DECISION_BUDGET", "0")
        via_env = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
        )
        monkeypatch.delenv("REPRO_ATPG_DECISION_BUDGET")
        explicit = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=AtpgBudget(decision_budget=0),
        )
        assert via_env.aborted == explicit.aborted
        assert via_env.undetectable == explicit.undetectable


class TestAbortPatternProperty:
    """Satellite: any injected abort pattern stays conservative."""

    @given(pattern=st.frozensets(
        st.integers(min_value=0, max_value=63), max_size=16,
    ))
    @example(pattern=frozenset(range(64)))
    @settings(max_examples=15, deadline=None)
    def test_any_abort_pattern_is_conservative(self, pattern):
        circuit, cells, faults, clean = _scenario()
        with injected_sat_aborts(calls=pattern) as seen:
            result = run_atpg(
                circuit, cells, list(faults), seed=5, random_rounds=2,
            )
        # detected + undetectable + aborted is always a partition of F.
        _assert_partition(result, faults)
        # |U| under aborts is a lower bound of the clean run's |U| —
        # element-wise, not just by count.
        assert result.undetectable <= clean.undetectable
        assert len(result.undetectable) <= len(clean.undetectable)
        # Every injected abort reached the engine as an abort, none as
        # a proof; each is then either upgraded to detected by a later
        # test or surfaced in the abort bucket.
        assert result.stats.sat_aborts == seen.injected
        if seen.injected == 0:
            assert result.aborted == set()
            assert result.undetectable == clean.undetectable
            assert result.detected == clean.detected
        if result.aborted:
            assert result.stats.degradations


@pytest.mark.parametrize("deadline_ms", [0.0])
def test_zero_deadline_still_partitions(deadline_ms):
    """An instantly-expired deadline must degrade, never crash or lie."""
    circuit, cells, faults, clean = _scenario()
    result = run_atpg(
        circuit, cells, list(faults), seed=5, random_rounds=2,
        budget=AtpgBudget(deadline_ms=deadline_ms),
    )
    _assert_partition(result, faults)
    assert result.undetectable <= clean.undetectable
