"""The ATPG driver: random phase, deterministic SAT phase, compaction.

``run_atpg`` classifies every fault of the target set as *detected*,
*undetectable*, or — only under an explicit resource budget —
*aborted*, and produces a compacted test set.  With the default
unlimited :class:`~repro.atpg.budget.AtpgBudget` the SAT solver runs to
completion on each class representative, the abort bucket stays empty,
and every result is bit-identical to the ungoverned engine.  This
provides the paper's quantities: T (tests), U (undetectable faults) and
Cov = 1 - U/F.

Aborted faults are handled conservatively throughout: they are never
counted as undetectable (an abort is not a proof), never dropped from F
(detected + undetectable + aborted always partitions the fault set),
and they surface separately on :class:`AtpgResult` and in the engine's
degradation records.  When the aborted fraction exceeds the budget's
global tolerance the run is downgraded to explicitly-flagged
approximate mode (``result.approximate``) instead of failing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from repro.atpg.budget import AtpgBudget
from repro.atpg.compaction import TestPair, compact_tests
from repro.atpg.incremental import IncrementalAtpg
from repro.faults.collapse import behaviour_key, collapse_faults
from repro.faults.fsim import BATCH_PAIRS, PatternBatch, fault_simulate
from repro.faults.model import Fault
from repro.library.cell import StandardCell
from repro.netlist.circuit import Circuit
from repro.utils.observability import EngineStats
from repro.utils.rng import make_rng


@dataclass
class AtpgResult:
    """Classification of a fault set plus the generated tests."""

    n_faults: int
    detected: Set[str] = field(default_factory=set)  # fault ids
    undetectable: Set[str] = field(default_factory=set)
    # Faults whose SAT decision ran out of its resource budget: neither
    # detected nor proved undetectable.  Empty unless a budget was set.
    aborted: Set[str] = field(default_factory=set)
    # True when the aborted fraction exceeded the budget's global
    # tolerance: the run completed, but its U/Cov numbers are bounds,
    # not exact values.
    approximate: bool = False
    tests: List[TestPair] = field(default_factory=list)
    # This run's effort alone: every call gets a fresh instance.
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def coverage(self) -> float:
        """Cov = 1 - U/F (the paper's definition).

        With a nonempty abort bucket this is an *upper* bound on the
        true coverage: aborted faults might still be undetectable.
        """
        if self.n_faults == 0:
            return 1.0
        return 1.0 - len(self.undetectable) / self.n_faults


def run_atpg(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    seed: int = 0,
    random_rounds: int = 8,
    compaction: bool = True,
    initial_tests: Optional[Sequence[TestPair]] = None,
    assume_undetectable: Optional[AbstractSet] = None,
    assume_detected: Optional[AbstractSet] = None,
    budget: Optional[AtpgBudget] = None,
) -> AtpgResult:
    """Classify *faults* on *circuit* and build a test set.

    *budget* (default: from the ``REPRO_ATPG_*`` environment, which is
    unlimited when unset) bounds each deterministic SAT decision; faults
    whose decision runs out land in ``result.aborted`` with the
    conservative semantics described in the module docstring.

    Strategy: seeded random pattern pairs with bit-parallel fault
    simulation drop the easy faults; each remaining behaviour class gets
    an exact SAT decision, with every generated test fault-simulated to
    drop other classes opportunistically.  *initial_tests* (e.g. the
    previous resynthesis iteration's test set) are fault-simulated first,
    which makes re-running ATPG after a local circuit change cheap.

    *assume_undetectable* and *assume_detected* are sets of behaviour
    keys (see :func:`repro.faults.collapse.behaviour_key`) with a known
    verdict from an earlier, functionally-equivalent version of the
    circuit.  Detection is a functional property: replacing a region R
    by an equivalent R' leaves every net outside R with identical values
    under *any* input — including the values forced by a fault whose
    key references only surviving gate/net names — so both detected and
    undetectable verdicts carry over without re-proof.  Replaced objects
    get fresh names and never match a stale key, which makes the
    inheritance safe to apply blindly; only behaviour classes with novel
    keys (the changed region's cone) are re-proved.

    Engine effort counters and per-phase wall times are recorded on
    ``result.stats``, a fresh :class:`EngineStats` that holds this
    call's effort alone; a caller running several analyses sums them
    with :meth:`EngineStats.add`.
    """
    if budget is None:
        budget = AtpgBudget.from_env()
    result = AtpgResult(n_faults=len(faults))
    stats = result.stats
    classes = collapse_faults(faults)
    reps: List[Fault] = list(classes)
    rng = make_rng(seed)

    inherited_undet: Set[str] = set()
    inherited_det: Set[str] = set()
    if assume_undetectable or assume_detected:
        still: List[Fault] = []
        for rep in reps:
            key = behaviour_key(rep)
            if assume_undetectable and key in assume_undetectable:
                inherited_undet.add(rep.fault_id)
            elif assume_detected and key in assume_detected:
                inherited_det.add(rep.fault_id)
            else:
                still.append(rep)
        reps = still
    stats.verdicts_inherited += len(inherited_undet) + len(inherited_det)
    stats.verdicts_proved += len(reps)

    remaining: List[Fault] = list(reps)
    detected_reps: Set[str] = set()
    tests: List[TestPair] = []

    # ---- seed with inherited tests --------------------------------------
    if initial_tests:
        with stats.phase("atpg.initial_tests"):
            for start_i in range(0, len(initial_tests), BATCH_PAIRS):
                chunk = list(initial_tests[start_i:start_i + BATCH_PAIRS])
                batch = PatternBatch.from_pairs(circuit, chunk)
                words = fault_simulate(
                    circuit, cells, remaining, batch, stats=stats,
                )
                used: Dict[int, TestPair] = {}
                still: List[Fault] = []
                for fault, w in zip(remaining, words):
                    if w:
                        detected_reps.add(fault.fault_id)
                        bit = (w & -w).bit_length() - 1
                        used.setdefault(bit, chunk[bit])
                    else:
                        still.append(fault)
                tests.extend(used[b] for b in sorted(used))
                remaining = still

    # ---- random phase --------------------------------------------------
    quiet = 0
    with stats.phase("atpg.random"):
        for round_no in range(random_rounds):
            if not remaining or quiet >= 2:
                break
            batch = PatternBatch.random(
                circuit, BATCH_PAIRS, seed=rng.getrandbits(32)
            )
            words = fault_simulate(
                circuit, cells, remaining, batch, stats=stats,
            )
            new_pairs: Dict[int, TestPair] = {}
            still: List[Fault] = []
            for fault, w in zip(remaining, words):
                if w:
                    detected_reps.add(fault.fault_id)
                    bit = (w & -w).bit_length() - 1
                    if bit not in new_pairs:
                        new_pairs[bit] = _unpack_pair(circuit, batch, bit)
                else:
                    still.append(fault)
            if new_pairs:
                quiet = 0
                tests.extend(new_pairs[b] for b in sorted(new_pairs))
            else:
                quiet += 1
            remaining = still

    # ---- deterministic phase --------------------------------------------
    # One shared incremental solver per scan: the good circuit is encoded
    # once and learned lemmas carry over between faults (see
    # repro.atpg.incremental).  Faults are grouped by site so each shared
    # site cone is encoded and retired exactly once.
    sat_start = time.perf_counter()
    engine = IncrementalAtpg(circuit, cells)
    remaining.sort(
        key=lambda f: (engine._site_net(f) or "", f.fault_id)
    )
    pending_drop: List[TestPair] = []
    aborted_reps: Set[str] = set()
    abort_reason_reps: Dict[str, str] = {}
    i = 0
    while i < len(remaining):
        fault = remaining[i]
        i += 1
        if fault.fault_id in detected_reps:
            continue
        stats.sat_calls += 1
        detectable, pair = engine.decide(fault, budget)
        if detectable:
            tests.append(pair)
            pending_drop.append(pair)
            detected_reps.add(fault.fault_id)
        elif detectable is False:
            result.undetectable.add(fault.fault_id)
        else:
            # Budget ran out before a proof: unclassified, not
            # undetectable.  Later fresh tests may still detect it.
            aborted_reps.add(fault.fault_id)
            stats.sat_aborts += 1
            reason = engine.last_abort_reason or "unknown"
            abort_reason_reps[fault.fault_id] = reason
            stats.sat_abort_reasons[reason] = \
                stats.sat_abort_reasons.get(reason, 0) + 1
        # Periodically fault-simulate the fresh tests to drop classes
        # before paying for their SAT calls.
        if len(pending_drop) >= 16 or (
            i == len(remaining) and pending_drop
        ):
            todo = [
                f for f in remaining[i:]
                if f.fault_id not in detected_reps
            ]
            if aborted_reps:
                # Aborted classes sit behind the scan index; fresh
                # tests can still upgrade them to detected (never
                # the reverse).
                todo.extend(
                    f for f in remaining[:i]
                    if f.fault_id in aborted_reps
                )
            if todo:
                batch = PatternBatch.from_pairs(circuit, pending_drop)
                words = fault_simulate(
                    circuit, cells, todo, batch, stats=stats,
                )
                for f, w in zip(todo, words):
                    if w:
                        detected_reps.add(f.fault_id)
                        aborted_reps.discard(f.fault_id)
                        abort_reason_reps.pop(f.fault_id, None)
            pending_drop = []
    for key, value in engine.effort().items():
        setattr(stats, key, value)
    stats.add_phase("atpg.sat", time.perf_counter() - sat_start)

    # ---- expand classes to all member faults ----------------------------
    undetectable_reps = {
        f.fault_id for f in reps
        if f.fault_id not in detected_reps
        and f.fault_id not in aborted_reps
    }
    undetectable_reps |= inherited_undet
    # Aborted member faults by the budget their class's decision tripped
    # (the degradation message's breakdown).
    reason_counts: Dict[str, int] = {}
    for rep, members in classes.items():
        if rep.fault_id in aborted_reps:
            bucket = result.aborted
            reason = abort_reason_reps[rep.fault_id]
            reason_counts[reason] = reason_counts.get(reason, 0) + len(members)
        elif rep.fault_id in undetectable_reps:
            bucket = result.undetectable
        else:
            bucket = result.detected
        for member in members:
            bucket.add(member.fault_id)

    if aborted_reps:
        # Aborted representatives were counted as to-prove above but no
        # proof happened; keep the proved counter honest.
        stats.verdicts_proved -= len(aborted_reps)
        stats.verdicts_aborted += len(aborted_reps)
        n_aborted = len(result.aborted)
        result.approximate = (
            n_aborted > budget.abort_fraction * result.n_faults
        )
        by_reason = ", ".join(
            f"{k}={v}" for k, v in sorted(reason_counts.items())
        )
        message = (
            f"atpg[{circuit.name}]: {n_aborted}/{result.n_faults} faults "
            f"aborted under the resource budget ({by_reason})"
        )
        if result.approximate:
            message += (
                f"; abort tolerance {budget.abort_fraction:.2%} exceeded —"
                " results are approximate (U is a lower bound)"
            )
        stats.degradations.append(message)

    # ---- compaction ------------------------------------------------------
    if compaction and tests:
        detected_rep_faults = [
            f for f in reps if f.fault_id in detected_reps
        ]
        with stats.phase("atpg.compaction"):
            tests = compact_tests(
                circuit, cells, detected_rep_faults, tests, stats=stats,
            )
    result.tests = tests
    return result


def _unpack_pair(
    circuit: Circuit, batch: PatternBatch, bit: int
) -> TestPair:
    v1 = {pi: (batch.frame1[pi] >> bit) & 1 for pi in circuit.inputs}
    v2 = {pi: (batch.frame2[pi] >> bit) & 1 for pi in circuit.inputs}
    return v1, v2
