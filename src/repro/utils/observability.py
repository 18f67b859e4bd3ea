"""Lightweight observability counters for the fault-analysis engine.

:class:`EngineStats` is a plain bag of monotonically increasing counters
plus per-phase wall-clock accumulators.  One instance travels through a
whole analysis (fault simulation, ATPG, compaction) and is surfaced on
:class:`repro.atpg.engine.AtpgResult` / :class:`repro.core.flow.DesignState`
so benchmarks and regression tests can assert on engine behaviour
(e.g. "the evaluator compile count stays O(#distinct cells)") instead of
re-deriving it from timing alone.

This module sits in the ``utils`` layer on purpose: every layer above it
(netlist simulation, fault simulation, ATPG, flow) records into it, so it
must not import any of them.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List

# All duration measurements in the engine go through time.perf_counter():
# it is monotonic (wall clock adjustments cannot produce negative phase
# durations in merged stats) and has the highest available resolution.

# Guards EngineStats.merge: the simulators accumulate into a private
# per-call instance and fold it into the caller's instance in one
# atomic step, so counters are never lost when merges race.
_MERGE_LOCK = threading.Lock()

# How EngineStats.merge folds each field, declared on the field itself
# as ``field(metadata={MERGE: rule})``.
MERGE = "merge"
SUM = "sum"  # counters: add
DICT_SUM = "dict-sum"  # per-key counters / seconds: add key by key
EXTEND = "extend"  # record lists: append the other's records


def _counter():
    return field(default=0, metadata={MERGE: SUM})


def _per_key():
    return field(default_factory=dict, metadata={MERGE: DICT_SUM})


def _records():
    return field(default_factory=list, metadata={MERGE: EXTEND})


@dataclass
class EngineStats:
    """Counters for one fault-analysis run (all additive / mergeable).

    Each field declares how :meth:`merge` folds it (``MERGE`` metadata:
    sum, dict-sum or extend); :meth:`merge` and :meth:`as_dict` are
    driven by those declarations.

    * ``faults_simulated`` — fault/batch simulations performed (one count
      per fault per :func:`repro.faults.fsim.fault_simulate` call);
    * ``events_propagated`` — gate evaluations popped from the
      event-driven propagation queue across all faults;
    * ``good_simulations`` / ``good_cache_hits`` — good-machine
      simulations run vs. served from the per-circuit good-value cache;
    * ``plan_builds`` / ``plan_cache_hits`` — compiled circuit plans
      built vs. reused;
    * ``eval_compiles`` — distinct ``(n_inputs, truth_table)`` cell
      evaluators compiled while building plans;
    * ``eval_cache_hits`` / ``eval_cache_misses`` — lookups into the
      bounded global evaluator cache served vs. compiled fresh;
    * ``verdicts_inherited`` / ``verdicts_proved`` — behaviour classes
      whose detected/undetectable verdict was carried over from a
      functionally-equivalent prior analysis vs. proved in this run;
    * ``faults_extracted`` — fault objects built by DFM fault
      extraction (internal and external);
    * ``clusters_reused`` / ``clusters_recomputed`` — undetectable-fault
      clusters carried over unchanged by the incremental union-find
      update vs. re-derived after a local circuit change;
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
      ``sat_aborts``;
    * ``verdicts_aborted`` — behaviour classes left unclassified by an
      aborted decision (never counted as undetectable);
    * ``degradations`` — human-readable records of every graceful
      degradation taken during the run (aborted faults, approximate
      mode).  Deterministic given the same inputs and budget, so
      normalized-report comparisons still work;
    * ``phase_seconds`` — wall-clock per engine phase.
    """

    faults_simulated: int = _counter()
    events_propagated: int = _counter()
    good_simulations: int = _counter()
    good_cache_hits: int = _counter()
    plan_builds: int = _counter()
    plan_cache_hits: int = _counter()
    eval_compiles: int = _counter()
    eval_cache_hits: int = _counter()
    eval_cache_misses: int = _counter()
    verdicts_inherited: int = _counter()
    verdicts_proved: int = _counter()
    faults_extracted: int = _counter()
    clusters_reused: int = _counter()
    clusters_recomputed: int = _counter()
    batches: int = _counter()
    sat_calls: int = _counter()
    sat_conflicts: int = _counter()
    sat_propagations: int = _counter()
    sat_learned: int = _counter()
    sat_restarts: int = _counter()
    sat_lemmas_reused: int = _counter()
    sat_aborts: int = _counter()
    sat_abort_reasons: Dict[str, int] = _per_key()
    verdicts_aborted: int = _counter()
    degradations: List[str] = _records()
    phase_seconds: Dict[str, float] = _per_key()

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

    def merge(self, other: "EngineStats") -> None:
        """Fold *other*'s counters into this instance (atomically), each
        field by its declared rule."""
        with _MERGE_LOCK:
            for name, rule in _ENGINE_FIELDS:
                mine = getattr(self, name)
                theirs = getattr(other, name)
                if rule == SUM:
                    setattr(self, name, mine + theirs)
                elif rule == DICT_SUM:
                    for key, value in theirs.items():
                        mine[key] = mine.get(key, 0) + value
                else:
                    mine.extend(theirs)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (used by the perf harness)."""
        return {
            name: _snapshot(getattr(self, name))
            for name, _ in _ENGINE_FIELDS
        }


# (name, merge rule) of every EngineStats field, in declaration order.
_ENGINE_FIELDS = tuple(
    (f.name, f.metadata[MERGE]) for f in fields(EngineStats)
)


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
    * ``engine`` — merged :class:`EngineStats` of every fault-analysis
      run the procedure triggered (verdicts inherited vs. proved, faults
      extracted, incremental cluster updates, ...).
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
