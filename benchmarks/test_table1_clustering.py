"""Experiment E1/E7 — Table I: clustered undetectable faults.

Regenerates the paper's Table I rows (F_In, F_Ex, U_In, U_Ex, G_U,
Gmax, Smax, %Smax_U) for the four circuits the paper lists, and checks
the two qualitative claims of Section II:

* undetectable DFM faults cluster — S_max holds a large share of U;
* although external faults outnumber internal faults in F, the major
  portion of the *undetectable* faults is internal (their detection
  conditions are stricter).

Absolute counts differ from the paper (our substrate circuits are
Python-ATPG-sized; see DESIGN.md), but these shape properties must hold.
"""

from __future__ import annotations

from benchmarks.conftest import bench_circuits, get_analysis
from repro.core import table1_row
from repro.utils import format_table

TABLE1_CIRCUITS = ["aes_core", "des_perf", "sparc_exu", "sparc_fpu"]


def _rows():
    """(DesignState, Table I row) per circuit."""
    rows = {}
    for name in bench_circuits(TABLE1_CIRCUITS):
        state = get_analysis(name)
        rows[name] = (state, table1_row(name, state))
    return rows


def test_table1_report(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    table = [list(r.values()) for _state, r in rows.values()]
    header = list(next(iter(rows.values()))[1].keys())
    from benchmarks.conftest import emit_report
    emit_report("table1", format_table(
        header, table, title="TABLE I. CLUSTERED UNDETECTABLE FAULTS"))
    for name, (state, row) in rows.items():
        assert row["F_In"] > 0 and row["F_Ex"] > 0, name
        assert row["U_In"] + row["U_Ex"] > 0, name


def test_external_faults_outnumber_internal():
    for name, (state, row) in _rows().items():
        assert row["F_Ex"] > row["F_In"], name


def test_most_undetectable_faults_are_internal():
    """Section II: "the major portion of the undetectable faults are
    internal faults" — checked in aggregate across the circuits."""
    u_in = u_ex = 0
    for name, (state, row) in _rows().items():
        u_in += row["U_In"]
        u_ex += row["U_Ex"]
    assert u_in > u_ex


def test_clustering_is_significant():
    """S_max holds a large share of U (paper: 27%..66%)."""
    for name, (state, row) in _rows().items():
        assert row["%Smax_U"] >= 20.0, (name, row["%Smax_U"])


def test_gmax_is_subset_of_gu():
    for name, (state, row) in _rows().items():
        assert row["Gmax"] <= row["G_U"], name
        assert state.clusters.gmax <= state.clusters.gates_u, name

