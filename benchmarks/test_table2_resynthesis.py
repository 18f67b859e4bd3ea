"""Experiment E2 — Table II: the resynthesis procedure's results.

Regenerates the paper's Table II: for every circuit, one row for the
original design and one for the resynthesized design (columns F, U,
Cov, T, Smax, %Smax_all, Smax_I, %Smax_I, Delay, Power, Rtime), plus
the average row.  The reproduction targets are the paper's *shapes*:

* the number of undetectable faults drops sharply (paper: ~10x average);
* %Smax_all falls to around the p1 = 1% target;
* the internal share of S_max collapses (paper: 88% -> 6% average);
* delay and power stay within (1 + q) of the original design on the
  original floorplan;
* the test set size T stays in the same ballpark.

Set ``REPRO_BENCH_CIRCUITS=sparc_tlu,sparc_lsu`` for a quick run.
"""

from __future__ import annotations

from benchmarks.conftest import bench_circuits, get_resynthesis
from repro.core import table2_row
from repro.core.metrics import average_rows
from repro.utils import format_table

TABLE2_CIRCUITS = [
    "tv80", "systemcaes", "aes_core", "wb_conmax", "des_perf",
    "sparc_spu", "sparc_ffu", "sparc_exu", "sparc_ifu", "sparc_tlu",
    "sparc_lsu", "sparc_fpu",
]


def _results():
    return {
        name: get_resynthesis(name)
        for name in bench_circuits(TABLE2_CIRCUITS)
    }


def test_table2_report(benchmark):
    results = benchmark.pedantic(_results, rounds=1, iterations=1)
    all_rows = []
    orig_rows = []
    resyn_rows = []
    for name, result in results.items():
        rows = table2_row(name, result)
        all_rows.extend(rows)
        orig_rows.append(rows[0])
        resyn_rows.append(rows[1])
    avg_orig = average_rows(orig_rows)
    avg_orig["MaxInc"] = "orig"
    avg_resyn = average_rows(resyn_rows)
    avg_resyn["MaxInc"] = "resyn"
    all_rows.extend([avg_orig, avg_resyn])
    header = list(all_rows[0].keys())
    from benchmarks.conftest import emit_report
    emit_report("table2", format_table(
        header, [list(r.values()) for r in all_rows],
        title="TABLE II. EXPERIMENTAL RESULTS",
    ))
    assert avg_resyn["U"] < avg_orig["U"]


def test_undetectable_faults_reduced():
    """U must fall in aggregate and never rise per circuit.

    The paper reports ~10x average reduction; this substrate's guard
    clusters are observation-blocked (cell choice shrinks their fault
    population but cannot make them detectable), so the reproduced
    reduction is smaller — the direction and the per-circuit
    monotonicity guarantee are the asserted shapes (see EXPERIMENTS.md).
    """
    total_before = total_after = 0
    for name, result in _results().items():
        total_before += result.original.u_total
        total_after += result.final.u_total
        assert result.final.u_total <= result.original.u_total, name
    assert total_after < total_before, (total_before, total_after)


def test_coverage_improves_everywhere():
    for name, result in _results().items():
        assert result.final.coverage >= result.original.coverage, name


def test_smax_share_falls():
    """%Smax_all after resynthesis approaches the p1 target."""
    improved = 0
    for name, result in _results().items():
        before = result.original.smax_fraction_of_f
        after = result.final.smax_fraction_of_f
        if after < before:
            improved += 1
    assert improved >= len(_results()) // 2


def test_constraints_hold_on_original_floorplan():
    for name, result in _results().items():
        orig, final = result.original, result.final
        limit = 1.0 + result.q_used / 100.0 + 1e-9
        assert final.physical.floorplan == orig.physical.floorplan, name
        assert final.delay <= orig.delay * limit, name
        assert final.power <= orig.power * limit, name


def test_resynthesized_circuits_equivalent():
    """Functional equivalence of original vs. final (random sampling)."""
    import random

    from benchmarks.conftest import get_library
    from tests.sim_helpers import simulate_patterns

    cells = {c.name: c for c in get_library()}
    rng = random.Random(2024)
    for name, result in _results().items():
        a, b = result.original.circuit, result.final.circuit
        pats = [
            {pi: rng.getrandbits(1) for pi in a.inputs}
            for _ in range(96)
        ]
        r0 = simulate_patterns(a, cells, pats)
        r1 = simulate_patterns(b, cells, pats)
        for x, y in zip(r0, r1):
            for po in a.outputs:
                assert x[po] == y[po], (name, po)
