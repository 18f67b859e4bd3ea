"""Experiment E4 — Fig. 2: the two phases of the resynthesis procedure.

Fig. 2 of the paper shows the cluster landscape evolving: phase 1 breaks
up the largest clusters (Cluster A, then Cluster B) one at a time; phase
2 then sweeps the remaining undetectable faults across the whole
circuit.  This benchmark regenerates the underlying data series — the
cluster-size distribution after the original flow, after phase 1, and
after phase 2 — and checks the phase semantics.
"""

from __future__ import annotations

import os

from benchmarks.conftest import get_library, bench_scale
from repro.bench import build_benchmark
from repro.core import ResynthesisConfig, analyze_design
from repro.core.resynthesis import _Resynthesizer
from repro.utils import format_table

CIRCUIT = os.environ.get("REPRO_FIG2_CIRCUIT", "sparc_lsu")


def _run():
    library = get_library()
    circuit = build_benchmark(CIRCUIT, library, scale=bench_scale())
    cfg = ResynthesisConfig(q_max=2, max_iterations_per_phase=6)
    orig = analyze_design(
        circuit, library, seed=cfg.seed, atpg_seed=cfg.seed,
    )
    driver = _Resynthesizer(library, orig, cfg)
    state = orig
    after_p1 = None
    for q in range(cfg.q_max + 1):
        state = driver.run_phase1(state, q)
        if after_p1 is None or q == cfg.q_max:
            after_p1 = state
        state = driver.run_phase2(state, q)
    return orig, after_p1, state


def test_fig2_phase_progression(benchmark):
    orig, after_p1, final = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [
        ["original", orig.u_total, orig.smax_size,
         f"{100 * orig.smax_fraction_of_f:.2f}",
         str(orig.clusters.sizes()[:6])],
        ["after phase 1", after_p1.u_total, after_p1.smax_size,
         f"{100 * after_p1.smax_fraction_of_f:.2f}",
         str(after_p1.clusters.sizes()[:6])],
        ["after phase 2", final.u_total, final.smax_size,
         f"{100 * final.smax_fraction_of_f:.2f}",
         str(final.clusters.sizes()[:6])],
    ]
    from benchmarks.conftest import emit_report
    emit_report("fig2", format_table(
        ["stage", "U", "Smax", "%Smax_all", "cluster sizes"], rows,
        title=f"Fig. 2 data ({CIRCUIT}): cluster landscape per phase",
    ))
    # Phase semantics: the largest cluster shrinks through phase 1 and U
    # is monotone non-increasing across phases.
    assert after_p1.smax_size <= orig.smax_size
    assert after_p1.u_total <= orig.u_total
    assert final.u_total <= after_p1.u_total
