"""Lightweight observability counters for the fault-analysis engine.

:class:`EngineStats` is a plain bag of monotonically increasing counters
plus per-phase wall-clock accumulators.  Each ATPG run owns one instance
(fault simulation, SAT, compaction record into it) and surfaces it on
:class:`repro.atpg.engine.AtpgResult` / :class:`repro.core.flow.DesignState`
so benchmarks and regression tests can assert on engine behaviour
(e.g. "a re-analysis proves only the classes it did not inherit")
instead of re-deriving it from timing alone.  A caller that runs several
analyses sums their records with :meth:`EngineStats.add`.

This module sits in the ``utils`` layer on purpose: every layer above it
(netlist simulation, fault simulation, ATPG, flow) records into it, so it
must not import any of them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List

# All duration measurements in the engine go through time.perf_counter():
# it is monotonic (wall clock adjustments cannot produce negative phase
# durations) and has the highest available resolution.


@dataclass
class EngineStats:
    """Counters for one ATPG run (all additive; see :meth:`add`).

    * ``faults_simulated`` — fault/batch simulations performed (one count
      per fault per :func:`repro.faults.fsim.fault_simulate` call);
    * ``events_propagated`` — gate evaluations popped from the
      event-driven propagation queue across all faults;
    * ``verdicts_inherited`` / ``verdicts_proved`` — behaviour classes
      whose detected/undetectable verdict was carried over from a
      functionally-equivalent prior analysis vs. proved in this run;
    * ``faults_extracted`` — faults in the DFM fault set F (internal
      and external) of the analysis the run belongs to, set by
      :func:`repro.core.flow.analyze_design` (0 for a bare ATPG run);
    * ``batches`` — pattern batches fault-simulated;
    * ``sat_calls`` / ``sat_conflicts`` / ``sat_propagations`` — exact
      ATPG solver effort;
    * ``sat_learned`` / ``sat_restarts`` — clauses the CDCL solver
      learned and restarts it took across the run's SAT calls;
    * ``sat_lemmas_reused`` — learned clauses carried live into a later
      fault's decision (summed over decisions: each decision counts the
      lemmas earlier decisions left in the shared solver — the quantity
      the incremental engine exists to keep high);
    * ``sat_aborts`` — per-fault SAT decisions that ran out of their
      resource budget (deadline / conflict / decision limits);
    * ``sat_abort_reasons`` — occurrences per tripped budget
      (``deadline`` / ``conflicts`` / ``decisions``), summing to
      ``sat_aborts``; a campaign task reports it as ``abort_reasons``;
    * ``verdicts_aborted`` — behaviour classes left unclassified by an
      aborted decision (never counted as undetectable);
    * ``degradations`` — human-readable records of every graceful
      degradation taken during the run (aborted faults, approximate
      mode).  Deterministic given the same inputs and budget, so
      normalized-report comparisons still work;
    * ``phase_seconds`` — wall-clock per engine phase.
    """

    faults_simulated: int = 0
    events_propagated: int = 0
    verdicts_inherited: int = 0
    verdicts_proved: int = 0
    faults_extracted: int = 0
    batches: int = 0
    sat_calls: int = 0
    sat_conflicts: int = 0
    sat_propagations: int = 0
    sat_learned: int = 0
    sat_restarts: int = 0
    sat_lemmas_reused: int = 0
    sat_aborts: int = 0
    sat_abort_reasons: Dict[str, int] = field(default_factory=dict)
    verdicts_aborted: int = 0
    degradations: List[str] = field(default_factory=list)
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, other: "EngineStats") -> None:
        """Add *other*'s counters into this one: numbers add, the
        per-key maps add per key, and degradation records append."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            elif isinstance(mine, list):
                mine.extend(theirs)
            else:
                setattr(self, f.name, mine + theirs)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of a ``with`` block under *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - start)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (used by the perf harness)."""
        return {
            f.name: _snapshot(getattr(self, f.name)) for f in fields(self)
        }


def _snapshot(value: object) -> object:
    """*value* with containers copied and nested stats flattened."""
    if isinstance(value, (dict, list)):
        return value.copy()
    if isinstance(value, EngineStats):
        return value.as_dict()
    return value


@dataclass
class ResynthesisStats:
    """Effort counters for one run of the resynthesis procedure.

    * ``candidates_evaluated`` — candidate implementations actually
      synthesized and placed (evaluation-cache misses);
    * ``candidate_cache_hits`` / ``candidate_cache_misses`` — lookups
      into the (state, replacement, allowed-cells) evaluation cache;
    * ``backtrack_attempts`` — attempts issued by the Section III-C
      backtracking search;
    * ``engine`` — the sum (:meth:`EngineStats.add`) of the stats of
      every ATPG run the procedure made: the original analysis, each
      candidate's internal classification and each candidate
      re-analysis (verdicts inherited vs. proved, faults extracted, SAT
      effort, ...).
    """

    candidates_evaluated: int = 0
    candidate_cache_hits: int = 0
    candidate_cache_misses: int = 0
    backtrack_attempts: int = 0
    engine: EngineStats = field(default_factory=EngineStats)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (used by the perf harness)."""
        return {
            f.name: _snapshot(getattr(self, f.name)) for f in fields(self)
        }
