"""Memory follows the live design.

A circuit keeps its compiled simulation plan, and the plan holds no
reference back to the circuit, so it dies with the circuit.  The
resynthesis procedure *settles* a candidate whose status can no longer
change: it keeps the status and drops its netlist, layout and internal
ATPG result.  Neither may change what a run computes, so the Table II
rows (without Rtime), iteration traces and effort counters below were
recorded before either change and are pinned exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import build_benchmark
from repro.core import (
    ResynthesisConfig,
    analyze_design,
    resynthesis,
    resynthesize_for_coverage,
    table2_row,
)
from repro.physical.floorplan import Floorplan
from repro.physical.pdesign import PhysicalDesign
from tests.conftest import random_mapped_circuit


def _row(circuit, inc, f, u, smax, smax_i, t, cov, smax_all, smax_i_pct,
         delay=100.0, power=100.0):
    return {
        "%Smax_I": smax_i_pct, "%Smax_all": smax_all, "Aborted": 0,
        "Circuit": circuit, "Cov": cov, "Delay": delay, "F": f,
        "MaxInc": inc, "Power": power, "Smax": smax, "Smax_I": smax_i,
        "T": t, "U": u,
    }


def _stats(evaluated, hits, backtracks, **engine):
    base = dict(
        degradations=[], sat_abort_reasons={},
        sat_aborts=0, sat_restarts=0, verdicts_aborted=0,
    )
    return {
        "candidates_evaluated": evaluated,
        "candidate_cache_hits": hits,
        "candidate_cache_misses": evaluated,
        "backtrack_attempts": backtracks,
        "engine": dict(base, **engine),
    }


_TLU_ORIG = _row("sparc_tlu", "orig", 1546, 263, 154, 114, 39,
                 82.98835705045278, 9.961190168175937, 74.02597402597402)

#: (circuit, q_max, max_iterations_per_phase) -> Table II rows without
#: Rtime, sha256 of the (phase, q, csub_size, excluded_upto, status,
#: u_total, smax) trace, ResynthesisStats.as_dict() without phase times.
GOLDEN = {
    ("sparc_tlu", 0, 2): (
        [_TLU_ORIG, dict(_TLU_ORIG, MaxInc="0%")],
        "44bee0ecc5dc26cafed949c6e745e3cb424e24cacd1c455667d91ee903a50fef",
        _stats(50, 0, 39, batches=96,
               events_propagated=141532, faults_extracted=20271,
               faults_simulated=15486, sat_calls=144, sat_conflicts=383,
               sat_learned=278, sat_lemmas_reused=6993,
               sat_propagations=12538, verdicts_inherited=11784,
               verdicts_proved=6103),
    ),
    ("sparc_tlu", 2, 2): (
        [_TLU_ORIG,
         _row("sparc_tlu", "1%", 1651, 226, 154, 61, 26,
              86.31132646880678, 9.327680193821926, 39.61038961038961,
              delay=97.5363280961865, power=100.33103277573056)],
        "58eb538abd79bc6538cdf1cc0760f63101465dc9800a3ffcb9bf33b5c995b325",
        _stats(90, 35, 95, batches=280,
               events_propagated=376633, faults_extracted=53157,
               faults_simulated=42347, sat_calls=20, sat_conflicts=136,
               sat_learned=118, sat_lemmas_reused=479,
               sat_propagations=4310, verdicts_inherited=33021,
               verdicts_proved=15372),
    ),
    ("systemcaes", 2, 1): (
        [_row("systemcaes", "orig", 6176, 321, 161, 122, 61,
              94.80246113989638, 2.606865284974093, 75.77639751552795),
         _row("systemcaes", "1%", 6130, 280, 140, 102, 33,
              95.43230016313214, 2.2838499184339316, 72.85714285714286,
              delay=100.55121331524667, power=99.07085772715054)],
        "9553774fcd4c84d3061e8f3129727c380bbda34e2cf4c06743779324a413d180",
        _stats(74, 29, 86, batches=116,
               events_propagated=689993, faults_extracted=73717,
               faults_simulated=46066, sat_calls=19, sat_conflicts=1060,
               sat_learned=1041, sat_lemmas_reused=12712,
               sat_propagations=20811, sat_restarts=13,
               verdicts_inherited=40997, verdicts_proved=18961),
    ),
}

def _trace_digest(result):
    rows = [
        [h.phase, h.q, h.csub_size, h.excluded_upto, h.status,
         h.u_total, h.smax]
        for h in result.history
    ]
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _resynthesize(library, name, q_max, iterations):
    return resynthesize_for_coverage(
        build_benchmark(name, library), library,
        ResynthesisConfig(q_max=q_max, max_iterations_per_phase=iterations),
    )


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: f"{k[0]}-q{k[1]}")
def test_runs_reproduce_recorded_outputs(library, key):
    result = _resynthesize(library, *key)
    rows, digest, stats = GOLDEN[key]
    assert [
        {k: v for k, v in row.items() if k != "Rtime"}
        for row in table2_row(key[0], result)
    ] == rows
    assert _trace_digest(result) == digest
    got = result.stats.as_dict()
    del got["engine"]["phase_seconds"]
    assert got == stats


def test_settled_candidate_frees_its_netlist_and_layout(library, monkeypatch):
    settles = []  # (status, netlist and layout gone right after, or None)
    late = []  # stages that ran on a settled evaluation
    evaluation = resynthesis._Evaluation
    real_settle = evaluation.settle

    def watching(ev, status):
        held = None
        if ev.physical is not None:
            held = (weakref.ref(ev.candidate), weakref.ref(ev.physical.layout))
        out = real_settle(ev, status)
        if held is not None:
            gc.collect()
            settles.append((status, all(ref() is None for ref in held)))
        else:
            settles.append((status, None))
        return out

    def staged(stage):
        def run_stage(ev):
            if ev.settled is not None:
                late.append((stage.__name__, ev.settled))
            return stage(ev)
        return run_stage

    monkeypatch.setattr(evaluation, "settle", watching)
    for name in ("ensure_placed", "u_in_new", "result_state"):
        monkeypatch.setattr(evaluation, name, staged(getattr(evaluation, name)))
    _resynthesize(library, "sparc_tlu", 2, 1)
    # A placed candidate settles when it misses the constraints at
    # q_max, or when stage 2 rejects it.
    assert ("constraints", True) in settles
    assert ("rejected", True) in settles
    assert all(freed is not False for _, freed in settles)
    # Later attempts return the settled status before any stage runs.
    assert late == []


def test_plan_dies_with_its_circuit(library):
    circuit = random_mapped_circuit(library.cells, seed=11)
    state = analyze_design(circuit, library)
    assert circuit._plan is not None
    ref = weakref.ref(circuit)
    del circuit, state
    gc.collect()
    assert ref() is None


def test_no_candidate_outlives_its_run(library, monkeypatch):
    refs = []
    real = resynthesis.replace_subcircuit

    def tracking(*args, **kwargs):
        candidate = real(*args, **kwargs)
        refs.append(weakref.ref(candidate))
        return candidate

    monkeypatch.setattr(resynthesis, "replace_subcircuit", tracking)
    result = resynthesize_for_coverage(
        build_benchmark("sparc_lsu", library), library,
        ResynthesisConfig(q_max=0, max_iterations_per_phase=1),
    )
    assert result.stats.candidates_evaluated > 0
    del result
    gc.collect()
    assert refs
    assert [ref for ref in refs if ref() is not None] == []


def test_no_circuit_outlives_its_campaign_task(monkeypatch, tmp_path):
    """A campaign task builds its own circuit and drops it: after an
    inline Table I campaign, no circuit its tasks or their fingerprints
    built is alive."""
    from repro import bench
    from repro.runner import Runner
    from repro.runner.tasks import paper_campaign

    refs = []
    real = bench.build_benchmark

    def tracking(*args, **kwargs):
        circuit = real(*args, **kwargs)
        refs.append(weakref.ref(circuit))
        return circuit

    monkeypatch.setattr(bench, "build_benchmark", tracking)
    names = ["sparc_tlu", "sparc_lsu", "wb_conmax"]
    campaign = paper_campaign(names, "alive", tables=(1,))
    report = Runner(campaign, root=str(tmp_path), jobs=1).execute()
    assert report["status"] == "ok"
    assert [row["Circuit"] for row in report["table1"]] == names
    gc.collect()
    assert refs
    assert [ref() for ref in refs if ref() is not None] == []


# ----------------------------------------------------------------------
# Why settling is exact: the constraint check is monotone in q
# ----------------------------------------------------------------------

POSITIVE = st.floats(
    min_value=1e-9, max_value=1e12, allow_nan=False, allow_infinity=False,
)
FLOORPLAN = Floorplan(width=40, rows=10)


def _design(delay, power):
    return PhysicalDesign(
        circuit=None, floorplan=FLOORPLAN, layout=None,
        timing=SimpleNamespace(critical_path_delay=delay),
        power=SimpleNamespace(total=power), area_tracks=0,
    )


def _near(data, reference):
    """A positive float on, next to, or anywhere off one of the limits
    ``reference * (1 + k/100)``."""
    edge = reference * (1.0 + data.draw(st.integers(0, 10)) / 100.0)
    return data.draw(
        st.sampled_from([
            edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
        ]) | POSITIVE
    )


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_meeting_constraints_at_q_implies_meeting_them_at_larger_q(data):
    q = data.draw(st.integers(0, 10))
    q2 = data.draw(st.integers(q, 10))
    ref = _design(data.draw(POSITIVE), data.draw(POSITIVE))
    cand = _design(_near(data, ref.delay), _near(data, ref.total_power))
    if cand.meets_constraints(ref, q):
        assert cand.meets_constraints(ref, q2)
