"""Experiment E6 — Section III-B claim: the U trend under cell exclusion.

"As the standard cells are considered, the gross trend of the number of
undetectable faults in the circuit first goes down and then up" —
because eliminating fault-rich cells removes undetectable internal
faults, while decomposing into more, smaller cells eventually exposes
more external nets.  The paper uses this to terminate a phase early.

We regenerate the series: resynthesize one circuit with a growing
exclusion prefix (cell_0..cell_i removed) and record the number of
undetectable internal faults of each netlist.
"""

from __future__ import annotations

import os

from benchmarks.conftest import get_library, bench_scale
from repro.bench import build_benchmark
from repro.core import classify_internal
from repro.synthesis import is_complete_subset, synthesize
from repro.synthesis.techmap import TechmapError
from repro.utils import format_table

CIRCUIT = os.environ.get("REPRO_TREND_CIRCUIT", "sparc_lsu")


def _run():
    library = get_library()
    circuit = build_benchmark(CIRCUIT, library, scale=bench_scale())
    order = library.order_by_internal_faults()
    base_u = len(classify_internal(circuit, library).undetectable)
    series = [("none", len(circuit), base_u)]
    for i in range(len(order) - 1):
        rest = order[i + 1:]
        if not is_complete_subset(rest):
            break
        try:
            mapped = synthesize(
                circuit, library, allowed_cells=[c.name for c in rest]
            )
        except TechmapError:
            break
        u_in = len(classify_internal(mapped, library).undetectable)
        series.append((order[i].name, len(mapped), u_in))
    return series


def test_exclusion_trend(benchmark):
    series = benchmark.pedantic(_run, rounds=1, iterations=1)
    from benchmarks.conftest import emit_report
    emit_report("ablation_exclusion_trend", format_table(
        ["excluded up to", "gates", "undetectable internal"],
        series,
        title=f"U_internal vs. exclusion prefix ({CIRCUIT})",
    ))
    values = [u for _name, _gates, u in series]
    # Down-then-up shape: the minimum is reached strictly after the
    # start, and the tail does not keep improving.
    best = min(values)
    best_at = values.index(best)
    assert best < values[0], "exclusion must reduce U_internal somewhere"
    assert best_at >= 1
    # At least one later configuration is worse than the best.
    assert any(v > best for v in values[best_at + 1:]) or (
        best_at == len(values) - 1
    )
