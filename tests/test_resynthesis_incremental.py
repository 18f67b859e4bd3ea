"""Differential tests: resynthesis re-analysis vs analysis from scratch.

The driver re-analyzes every candidate one way: it inherits the parent
state's verdicts and tests (``analyze_design(prev=, internal_atpg=)``)
and reuses cached candidate evaluations.  The reference run is the same
procedure with every candidate analyzed from scratch.  The two must
agree on everything the procedure decides with: the iteration history,
the q used, U and S_max, the verdicts and the clusters.  The test set T
is not compared: it is seeded with the inherited tests, so it depends on
the path taken.
"""

from __future__ import annotations

import pytest

from repro.atpg import run_atpg
from repro.bench import build_benchmark
from repro.core import (
    ResynthesisConfig,
    analyze_design,
    classify_internal,
    resynthesis,
    resynthesize_for_coverage,
)
from repro.faults import enumerate_internal_faults
from repro.faults.collapse import behaviour_key
from repro.faults.model import StuckAtFault
from repro.netlist import extract_subcircuit, replace_subcircuit
from repro.synthesis import synthesize
from repro.utils.observability import EngineStats


def _trace(result):
    return [
        (h.phase, h.q, h.csub_size, h.excluded_upto, h.status,
         h.u_total, h.smax)
        for h in result.history
    ]


def _cluster_ids(state):
    return [[f.fault_id for f in c] for c in state.clusters.clusters]


@pytest.fixture(scope="module")
def tlu(library):
    return build_benchmark("sparc_tlu", library)


CFG = dict(q_max=1, max_iterations_per_phase=3)


@pytest.fixture(scope="module")
def incremental_run(tlu, library):
    return resynthesize_for_coverage(tlu, library, ResynthesisConfig(**CFG))


# Arguments through which a candidate analysis inherits from its parent.
_INHERITED = ("prev", "internal_atpg")


def _from_scratch(fn):
    def call(*args, **kwargs):
        for name in _INHERITED:
            kwargs.pop(name, None)
        return fn(*args, **kwargs)

    return call


@pytest.fixture(scope="module")
def scratch_run(tlu, library):
    # The same procedure with every candidate classified and analyzed
    # from scratch: no inherited verdicts, tests or clusters.
    with pytest.MonkeyPatch.context() as mp:
        for name in ("analyze_design", "classify_internal"):
            mp.setattr(resynthesis, name,
                       _from_scratch(getattr(resynthesis, name)))
        result = resynthesize_for_coverage(
            tlu, library, ResynthesisConfig(**CFG))
    assert result.stats.engine.verdicts_inherited == 0
    return result


class TestFullProcedureDifferential:
    def test_iteration_history_identical(self, incremental_run, scratch_run):
        assert _trace(incremental_run) == _trace(scratch_run)

    def test_covers_both_phases_and_backtracking(self, incremental_run):
        statuses = {h.status for h in incremental_run.history}
        phases = {h.phase for h in incremental_run.history}
        # The differential is only meaningful if the workload exercises
        # an accepted episode (here via backtracking) and both phases.
        assert "backtrack-accepted" in statuses or "accepted" in statuses
        assert phases == {1, 2}

    def test_final_metrics_identical(self, incremental_run, scratch_run):
        assert incremental_run.q_used == scratch_run.q_used
        a, b = incremental_run.final, scratch_run.final
        assert a.u_total == b.u_total
        assert a.smax_size == b.smax_size
        assert a.smax_fraction_of_f == b.smax_fraction_of_f

    def test_verdict_sets_identical(self, incremental_run, scratch_run):
        for q in incremental_run.per_q:
            a = incremental_run.per_q[q]
            b = scratch_run.per_q[q]
            assert a.atpg.undetectable == b.atpg.undetectable
            assert a.atpg.detected == b.atpg.detected

    def test_clusters_identical(self, incremental_run, scratch_run):
        assert _cluster_ids(incremental_run.final) == _cluster_ids(
            scratch_run.final
        )

    def test_effort_counters_populated(self, incremental_run):
        stats = incremental_run.stats
        assert stats.candidates_evaluated > 0
        assert stats.candidate_cache_misses >= stats.candidates_evaluated
        assert stats.backtrack_attempts > 0
        assert stats.engine.verdicts_inherited > 0
        assert stats.engine.verdicts_proved > 0
        assert stats.engine.faults_extracted > 0
        as_dict = stats.as_dict()
        assert as_dict["candidates_evaluated"] == stats.candidates_evaluated
        assert as_dict["engine"]["verdicts_inherited"] > 0


class TestIncrementalAnalyze:
    @pytest.fixture(scope="class")
    def replaced(self, tlu, library):
        prev = analyze_design(tlu, library, seed=0, atpg_seed=0)
        region = set(sorted(prev.clusters.gmax)[:4])
        sub = extract_subcircuit(prev.circuit, region, name="csub")
        new_sub = synthesize(sub, library, objective="faults")
        candidate = replace_subcircuit(prev.circuit, region, new_sub)
        return prev, candidate

    def test_matches_full_reanalysis(self, replaced, library):
        prev, candidate = replaced
        stats = EngineStats()
        inc = analyze_design(
            candidate, library, seed=0, atpg_seed=0, prev=prev, stats=stats
        )
        full = analyze_design(candidate, library, seed=0, atpg_seed=0)
        assert inc.atpg.undetectable == full.atpg.undetectable
        assert inc.atpg.detected == full.atpg.detected
        assert [f.fault_id for f in inc.fault_set] == [
            f.fault_id for f in full.fault_set
        ]
        assert _cluster_ids(inc) == _cluster_ids(full)
        assert inc.clusters.fault_gates == full.clusters.fault_gates
        assert stats.verdicts_inherited > 0

    def test_classify_internal_matches_from_scratch(self, replaced, library):
        prev, candidate = replaced
        stats = EngineStats()
        inc = classify_internal(candidate, library, prev=prev, stats=stats)
        full = classify_internal(candidate, library)
        assert inc.undetectable == full.undetectable
        assert inc.detected == full.detected
        assert stats.verdicts_inherited > 0


def test_assume_detected_short_circuits(adder4, cells, library):
    """Detected verdicts inherit exactly like undetectable ones."""
    faults = enumerate_internal_faults(adder4, library)
    faults.append(StuckAtFault("sa0:x", "VIA-01", net="s0", value=0))
    base = run_atpg(adder4, cells, faults, seed=1)
    det_keys = {
        behaviour_key(f) for f in faults if f.fault_id in base.detected
    }
    undet_keys = {
        behaviour_key(f) for f in faults if f.fault_id in base.undetectable
    }
    stats = EngineStats()
    again = run_atpg(
        adder4, cells, faults, seed=1,
        assume_undetectable=undet_keys, assume_detected=det_keys,
        stats=stats,
    )
    assert again.undetectable == base.undetectable
    assert again.detected == base.detected
    assert again.sat_calls == 0  # every class verdict was inherited
    assert stats.verdicts_inherited > 0
    assert stats.verdicts_proved == 0
