"""Differential tests: the exact SAT phase in a fresh process vs in-process.

Under campaign-level ``--jobs`` with ``--isolation process`` each
analysis runs in its pool lane's worker interpreter (one long-lived
process per lane, not the orchestrator), and its verdicts must not
depend on that: exact SAT decisions are schedule-independent, so the
DETECTED / UNDETECTABLE / ABORTED partition computed in a child
interpreter (:func:`tests.conftest.call_in_fresh_process`) is
bit-identical to the in-process one for unbudgeted runs on every bundled
benchmark circuit, and so are the flow-level undetectable sets of
``analyze_design``.  Under a budget the containments hold instead: a
budget generous enough for every UNSAT proof to complete leaves the
partition untouched, and a *tight* budget may abort faults but never
corrupts a verdict.  The SAT effort counters must surface on the stats.

Every ATPG run here uses ``random_rounds=0`` so all representatives
reach the deterministic phase — otherwise the random phase drops most
faults on these small benchmarks and the SAT phase sees little work.
"""

from __future__ import annotations

import pytest

from repro.atpg.budget import AtpgBudget
from repro.atpg.engine import run_atpg
from repro.bench.circuits import BENCHMARKS, build_benchmark
from repro.core.flow import analyze_design
from repro.library import osu018_library
from tests.conftest import call_in_fresh_process, mixed_fault_list

SEEDS = [0, 1, 2]

_BENCH_CACHE = {}


def _bench(name, library):
    circuit = _BENCH_CACHE.get(name)
    if circuit is None:
        circuit = build_benchmark(name, library)
        _BENCH_CACHE[name] = circuit
    return circuit


def _run(circuit, cells, faults, seed, budget=None):
    return run_atpg(
        circuit, cells, faults, seed=seed, random_rounds=0, budget=budget,
    )


def _partition(name, seed, library, cells):
    circuit = _bench(name, library)
    faults = mixed_fault_list(circuit, library, seed=seed, per_kind=6)
    return _run(circuit, cells, faults, seed)


def _summary(result):
    return (
        result.detected, result.undetectable, result.aborted,
        result.approximate, result.coverage, result.stats.sat_calls,
    )


# ----------------------------------------------------------------------
# Child side: one call per group, run by call_in_fresh_process
# ----------------------------------------------------------------------

def _child_partitions(jobs):
    library = osu018_library()
    cells = {c.name: c for c in library}
    return [
        _summary(_partition(name, seed, library, cells))
        for name, seed in jobs
    ]


def _child_analyses(names):
    library = osu018_library()
    out = []
    for name in names:
        state = analyze_design(build_benchmark(name, library), library)
        out.append((state.atpg.detected, state.atpg.undetectable))
    return out


@pytest.fixture(scope="module")
def child_partitions():
    jobs = [(name, seed) for name in sorted(BENCHMARKS) for seed in SEEDS]
    results = call_in_fresh_process(f"{__name__}:_child_partitions", jobs)
    return dict(zip(jobs, results))


ANALYZED = ["sparc_tlu", "wb_conmax"]


@pytest.fixture(scope="module")
def child_analyses():
    results = call_in_fresh_process(f"{__name__}:_child_analyses", ANALYZED)
    return dict(zip(ANALYZED, results))


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_partition_identity_on_benchmarks(
    cells, library, child_partitions, name, seed
):
    """Unbudgeted: bit-identical verdict partition on every benchmark."""
    serial = _partition(name, seed, library, cells)
    detected, undetectable, aborted, approximate, coverage, sat_calls = (
        child_partitions[name, seed]
    )
    assert detected == serial.detected
    assert undetectable == serial.undetectable
    assert aborted == serial.aborted == set()
    assert approximate is serial.approximate is False
    assert coverage == serial.coverage
    assert sat_calls == serial.stats.sat_calls
    assert (
        len(serial.detected) + len(serial.undetectable) == serial.n_faults
    )


def test_generous_budget_identical_undetectable(cells, library):
    """Every UNSAT proof completes ⇒ identical UNDETECTABLE either way."""
    circuit = _bench("sparc_exu", library)
    faults = mixed_fault_list(circuit, library, seed=0, per_kind=6)
    exact = _run(circuit, cells, faults, 0)
    budget = AtpgBudget(conflict_budget=200_000)
    budgeted = _run(circuit, cells, faults, 0, budget=budget)
    assert budgeted.undetectable == exact.undetectable
    assert budgeted.detected == exact.detected
    assert budgeted.aborted == exact.aborted == set()


def test_tight_budget_stays_conservative(cells, library):
    """Aborts are allowed, but never corrupt a verdict.

    Against the unbudgeted (exact) run: everything the budgeted run
    *proves* must agree with the exact answer, and aborted faults are
    never counted undetectable.
    """
    circuit = _bench("sparc_ffu", library)
    faults = mixed_fault_list(circuit, library, seed=1, per_kind=6)
    exact = _run(circuit, cells, faults, 1)
    budget = AtpgBudget(conflict_budget=1, decision_budget=4)
    tight = _run(circuit, cells, faults, 1, budget=budget)
    assert tight.aborted  # the budget actually bit
    assert tight.undetectable <= exact.undetectable
    assert tight.detected <= exact.detected
    assert not (tight.aborted & tight.undetectable)
    assert not (tight.aborted & tight.detected)
    assert (
        len(tight.detected) + len(tight.undetectable) + len(tight.aborted)
        == tight.n_faults
    )


@pytest.mark.parametrize("name", ANALYZED)
def test_analyze_design_undetectable_counts(library, child_analyses, name):
    """Flow-level U does not depend on the interpreter it ran in."""
    state = analyze_design(_bench(name, library), library)
    detected, undetectable = child_analyses[name]
    assert len(undetectable) == len(state.atpg.undetectable)
    assert detected == state.atpg.detected
    assert undetectable == state.atpg.undetectable


def test_effort_counters_surface(cells, library):
    """sat_learned/lemmas_reused land on stats; at most one SAT call
    per proved class."""
    circuit = _bench("sparc_tlu", library)
    faults = mixed_fault_list(circuit, library, seed=2, per_kind=6)
    result = _run(circuit, cells, faults, 2)
    assert result.stats.sat_learned > 0
    assert result.stats.sat_lemmas_reused > 0
    assert 0 < result.stats.sat_calls <= result.stats.verdicts_proved
