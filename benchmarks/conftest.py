"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper.  The
expensive computations (full design flow + exact ATPG + resynthesis)
are plain library calls, memoized so that each benchmark circuit is
analyzed and resynthesized at most once per pytest session, with the
parameters a runner campaign's tasks use (seed 0).  Table rows are
built from the returned objects with :func:`~repro.core.table1_row` and
:func:`~repro.core.table2_row`.  The resumable, journaled way to
regenerate Tables I and II is the runner CLI (``python -m repro.runner
run``).

Environment knobs (all optional):

* ``REPRO_BENCH_CIRCUITS`` — comma-separated subset of benchmark names
  for Table I / Table II (default: the paper's full list).
* ``REPRO_QMAX`` — q sweep bound for Table II (default 3; paper uses 5).
* ``REPRO_MAX_ITER`` — per-phase iteration cap (default 6).
* ``REPRO_SCALE`` — benchmark circuit scale factor (default 1).
"""

from __future__ import annotations

import os
from functools import lru_cache

import pytest

from repro.bench import build_benchmark
from repro.core import (
    DesignState,
    ResynthesisConfig,
    ResynthesisResult,
    analyze_design,
    resynthesize_for_coverage,
)
from repro.library import Library, osu018_library

_LIBRARY: Library | None = None


def get_library() -> Library:
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = osu018_library()
    return _LIBRARY


def bench_scale() -> int:
    return int(os.environ.get("REPRO_SCALE", "1"))


def bench_circuits(default: list) -> list:
    raw = os.environ.get("REPRO_BENCH_CIRCUITS")
    if not raw:
        return default
    return [name.strip() for name in raw.split(",") if name.strip()]


@lru_cache(maxsize=None)
def get_analysis(name: str) -> DesignState:
    """Design-flow analysis of one benchmark (once per session)."""
    library = get_library()
    circuit = build_benchmark(name, library, scale=bench_scale())
    return analyze_design(circuit, library, seed=0, atpg_seed=0)


@lru_cache(maxsize=None)
def get_resynthesis(name: str) -> ResynthesisResult:
    """Full two-phase resynthesis of one benchmark (once per session)."""
    library = get_library()
    circuit = build_benchmark(name, library, scale=bench_scale())
    config = ResynthesisConfig(
        q_max=int(os.environ.get("REPRO_QMAX", "3")),
        max_iterations_per_phase=int(os.environ.get("REPRO_MAX_ITER", "6")),
        seed=0,
    )
    return resynthesize_for_coverage(circuit, library, config)


@pytest.fixture(scope="session")
def library():
    return get_library()


# ----------------------------------------------------------------------
# Report collection: benchmark tables are printed inside tests (captured
# by pytest) *and* echoed in the terminal summary + written to
# benchmarks/results/, so `pytest benchmarks/ --benchmark-only | tee ...`
# preserves them.
# ----------------------------------------------------------------------
_REPORTS: list = []


def emit_report(name: str, text: str) -> None:
    """Print a report table and remember it for the session summary."""
    print()
    print(text)
    _REPORTS.append((name, text))
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction reports")
    for name, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"===== {name} =====")
        for line in text.splitlines():
            terminalreporter.write_line(line)
