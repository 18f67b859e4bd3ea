"""Performance harness for the ATPG deterministic (SAT) phase.

The serial incremental scan is timed against a frozen copy of the
previous solver generation (:class:`_BaselineSolver`, method bodies
taken verbatim from git history): no binary-implication lists, the
activity-rescale heap bug, length-only learnt retention, an
assumption-blind restart schedule, O(trail) heap re-push on every
backtrack, and O(num_vars) model extraction per SAT answer.  Both
engines must return the identical DETECTED / UNDETECTABLE partition;
the speedup floor applies on every machine (serial vs serial needs no
spare cores).  Every trajectory point records the effective CPU count
so the JSON stays interpretable.

A trajectory point is appended to ``benchmarks/results/BENCH_atpg.json``.

Run with:
``PYTHONPATH=src python -m pytest benchmarks/test_perf_atpg.py -s``

Knobs: ``REPRO_PERF_ATPG_CIRCUITS`` (default ``aes_core``),
``REPRO_PERF_ATPG_FAULTS`` (fault-sample cap, default 400),
``REPRO_PERF_ATPG_CDCL_MIN`` (speedup floor, default 1.3).
"""

from __future__ import annotations

import heapq
import json
import os
import random
import time
from typing import List, Optional

import pytest

from benchmarks.conftest import emit_report, get_library
from repro.atpg.incremental import IncrementalAtpg, fault_site_net
from repro.atpg.sat import SAT, UNKNOWN, UNSAT, _UNDEF, _enc, Solver
from repro.bench import build_benchmark
from repro.faults.model import (
    FALL,
    RISE,
    BridgingFault,
    Fault,
    StuckAtFault,
    TransitionFault,
)
from repro.faults.sites import enumerate_internal_faults

pytestmark = [pytest.mark.perf, pytest.mark.slow]

CIRCUITS = [
    name.strip()
    for name in os.environ.get("REPRO_PERF_ATPG_CIRCUITS", "aes_core").split(",")
    if name.strip()
]
N_FAULTS = int(os.environ.get("REPRO_PERF_ATPG_FAULTS", "400"))
CDCL_MIN_SPEEDUP = float(os.environ.get("REPRO_PERF_ATPG_CDCL_MIN", "1.3"))


def _effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class _BaselineSolver(Solver):
    """The previous solver generation, frozen for honest A/B timing.

    Method bodies are the pre-PR ones from git history, overriding every
    hot path this PR touched: clause attachment (everything through the
    watch lists — no binary-implication fast path), the unconditional
    100-conflict restart schedule, the activity rescale that forgets to
    rebuild the heap, length-only learnt retention, full-trail heap
    re-push on backtrack, and eager O(num_vars) model extraction.  The
    only deviation is mechanical: ``.model`` is a property now, so the
    old model build assigns the private fields instead.  ``_analyze``,
    once inherited, is frozen at its body from before the inner-loop
    tuning (a ``seen`` array per conflict, a pushing ``_bump`` call per
    variable), so that tuning does not leak into the baseline.
    """

    def _attach_clause(self, idx: int, clause: List[int]) -> None:
        self._watches[clause[0]].append(idx)
        self._watches[clause[1]].append(idx)

    def solve(
        self,
        assumptions=(),
        *,
        conflict_budget: Optional[int] = None,
        decision_budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        if not self._ok:
            return UNSAT
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return UNSAT
        enc_assumps = [_enc(a) for a in assumptions]
        restart_limit = 100
        conflicts_here = 0
        limited = (
            conflict_budget is not None
            or decision_budget is not None
            or deadline is not None
        )
        spent_conflicts = 0
        spent_decisions = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if limited:
                    spent_conflicts += 1
                    if (
                        (conflict_budget is not None
                         and spent_conflicts > conflict_budget)
                        or (deadline is not None
                            and time.perf_counter() > deadline)
                    ):
                        self._backtrack(0)
                        return UNKNOWN
                if len(self._trail_lim) <= len(enc_assumps):
                    self._backtrack(0)
                    if not enc_assumps:
                        self._ok = False
                    return UNSAT
                learnt, back_level = self._analyze(conflict)
                if back_level < len(enc_assumps):
                    back_level = len(enc_assumps)
                self._backtrack(back_level)
                self._record_learnt(learnt)
                self._var_inc /= 0.95
                if conflicts_here >= restart_limit:
                    conflicts_here = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(
                        min(len(enc_assumps), len(self._trail_lim))
                    )
                continue
            if len(self._trail_lim) < len(enc_assumps):
                e = enc_assumps[len(self._trail_lim)]
                v = self._val[e]
                if v == 0:
                    self._backtrack(0)
                    return UNSAT
                self._trail_lim.append(len(self._trail))
                if v != 1:
                    self._enqueue(e, None)
                continue
            lit = self._decide()
            if lit is None:
                self._model = [
                    v if self._val[v << 1] == 1 else -v
                    for v in range(1, self.num_vars + 1)
                    if self._val[v << 1] != _UNDEF
                ]
                self._model_val = bytes(self._val)
                self._backtrack(0)
                return SAT
            if limited:
                spent_decisions += 1
                if (
                    (decision_budget is not None
                     and spent_decisions > decision_budget)
                    or (deadline is not None
                        and time.perf_counter() > deadline)
                ):
                    self._backtrack(0)
                    return UNKNOWN
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    def _analyze(self, conflict_idx: int):
        learnt: List[int] = [0]
        seen = bytearray(self.num_vars + 1)
        level = len(self._trail_lim)
        levels = self._level
        counter = 0
        elit = None
        clause = self.clauses[conflict_idx]
        index = len(self._trail)
        while True:
            for q in clause:
                if elit is not None and q == elit:
                    continue
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if levels[var] >= level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                elit = self._trail[index]
                if seen[elit >> 1]:
                    break
            counter -= 1
            seen[elit >> 1] = 0
            if counter == 0:
                learnt[0] = elit ^ 1
                break
            clause = self.clauses[self._reason[elit >> 1]]
        if len(learnt) == 1:
            back = 0
        else:
            back = max(levels[q >> 1] for q in learnt[1:])
        return learnt, back

    def _bump(self, var: int) -> None:
        act = self._activity[var] + self._var_inc
        self._activity[var] = act
        if act > 1e100:
            scale = 1e-100
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= scale
            self._var_inc *= scale
        else:
            heapq.heappush(self._heap, (-act, var))

    def reduce_learnts(
        self,
        keep_max_size: int = 4,
        keep_glue: int = 2,
        max_keep: Optional[int] = None,
    ) -> int:
        protected = {
            self._reason[elit >> 1]
            for elit in self._trail
            if self._reason[elit >> 1] is not None
        }
        survivors: List[int] = []
        deleted = 0
        for ci in self._learnt:
            clause = self.clauses[ci]
            if clause is None:
                continue
            if ci in protected or len(clause) <= keep_max_size:
                survivors.append(ci)
            else:
                self.clauses[ci] = None
                deleted += 1
        self._learnt = survivors
        return deleted

    def _record_learnt(self, learnt: List[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        levels = self._level
        best = max(
            range(1, len(learnt)), key=lambda i: levels[learnt[i] >> 1]
        )
        learnt[1], learnt[best] = learnt[best], learnt[1]
        idx = len(self.clauses)
        self.clauses.append(learnt)
        self._learnt.append(idx)
        self._watches[learnt[0]].append(idx)
        self._watches[learnt[1]].append(idx)
        self._enqueue(learnt[0], idx)

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        val = self._val
        heap = self._heap
        activity = self._activity
        for elit in self._trail[limit:]:
            val[elit] = _UNDEF
            val[elit ^ 1] = _UNDEF
            var = elit >> 1
            self._reason[var] = None
            heapq.heappush(heap, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _decide(self) -> Optional[int]:
        val = self._val
        heap = self._heap
        activity = self._activity
        while heap:
            neg_act, var = heapq.heappop(heap)
            if val[var << 1] != _UNDEF:
                continue
            if -neg_act != activity[var]:
                continue
            return (var << 1) | (0 if self._phase[var] else 1)
        for var in range(1, self.num_vars + 1):
            if val[var << 1] == _UNDEF:
                return (var << 1) | (0 if self._phase[var] else 1)
        return None

    def _propagate(self) -> Optional[int]:
        val = self._val
        watches = self._watches
        clauses = self.clauses
        trail = self._trail
        while self._qhead < len(trail):
            elit = trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            falsified = elit ^ 1
            watching = watches[falsified]
            if not watching:
                continue
            keep: List[int] = []
            n = len(watching)
            i = 0
            while i < n:
                ci = watching[i]
                i += 1
                clause = clauses[ci]
                if clause is None:
                    continue
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                if val[first] == 1:
                    keep.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    ck = clause[k]
                    if val[ck] != 0:
                        clause[1] = ck
                        clause[k] = falsified
                        watches[ck].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if val[first] == 0:
                    keep.extend(watching[i:])
                    watches[falsified] = keep
                    return ci
                self._enqueue(first, ci)
            watches[falsified] = keep
        return None


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------

def _workload(name: str):
    """Circuit + a conflict-heavy mixed fault list in engine scan order."""
    library = get_library()
    cells = {c.name: c for c in library}
    circuit = build_benchmark(name, library)
    rng = random.Random(2026)
    faults: List[Fault] = list(enumerate_internal_faults(circuit, library))
    nets = list(circuit.inputs) + [g.output for g in circuit.gates.values()]
    for net in rng.sample(nets, min(160, len(nets))):
        faults.append(StuckAtFault(f"sa0:{net}", "g", net=net, value=0))
        faults.append(StuckAtFault(f"sa1:{net}", "g", net=net, value=1))
        faults.append(TransitionFault(f"tr:{net}", "g", net=net, slow_to=RISE))
        faults.append(TransitionFault(f"tf:{net}", "g", net=net, slow_to=FALL))
    for k in range(120):
        victim, aggressor = rng.sample(nets, 2)
        faults.append(
            BridgingFault(f"br{k}", "g", victim=victim, aggressor=aggressor)
        )
    if len(faults) > N_FAULTS:
        faults = rng.sample(faults, N_FAULTS)
    # The serial engine's site-grouped order: lemma reuse at its best,
    # identical for both solver generations.
    faults.sort(key=lambda f: (fault_site_net(circuit, f) or "", f.fault_id))
    return circuit, cells, faults


# ----------------------------------------------------------------------
# CDCL leg
# ----------------------------------------------------------------------

def _scan(circuit, cells, faults, solver: Optional[Solver]):
    """One full decide() sweep; returns (seconds, verdicts, solver)."""
    engine = IncrementalAtpg(circuit, cells, solver=solver)
    verdicts = {}
    t0 = time.perf_counter()
    for fault in faults:
        detectable, _pair = engine.decide(fault)
        verdicts[fault.fault_id] = detectable
    return time.perf_counter() - t0, verdicts, engine.solver


def _bench_cdcl(name: str) -> dict:
    circuit, cells, faults = _workload(name)
    _ = IncrementalAtpg(circuit, cells)  # warm the compiled plan

    t_base = t_cur = float("inf")
    for _rep in range(2):
        t, base_verdicts, base_solver = _scan(
            circuit, cells, faults, _BaselineSolver()
        )
        t_base = min(t_base, t)
        t, cur_verdicts, cur_solver = _scan(circuit, cells, faults, None)
        t_cur = min(t_cur, t)

    # Correctness gate: exact decisions cannot depend on the solver
    # generation.  (Test pairs may differ — both are valid witnesses.)
    assert cur_verdicts == base_verdicts
    speedup = t_base / t_cur if t_cur else float("inf")
    return {
        "circuit": name,
        "gates": len(circuit),
        "faults": len(faults),
        "undetectable": sum(
            1 for v in cur_verdicts.values() if v is False
        ),
        "baseline_seconds": round(t_base, 4),
        "current_seconds": round(t_cur, 4),
        "baseline_conflicts": base_solver.conflicts,
        "current_conflicts": cur_solver.conflicts,
        "speedup": round(speedup, 2),
        "min_speedup": CDCL_MIN_SPEEDUP,
    }


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------

def test_atpg_sat_phase_perf():
    cpus = _effective_cpus()
    cdcl_rows = [_bench_cdcl(name) for name in CIRCUITS]

    point = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpus": cpus,
        "cdcl": cdcl_rows,
    }
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "BENCH_atpg.json")
    trajectory: List[dict] = []
    if os.path.exists(path):
        with open(path) as fh:
            trajectory = json.load(fh)
    trajectory.append(point)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")

    lines = [f"atpg SAT-phase perf, {cpus} effective CPU(s)"]
    for row in cdcl_rows:
        lines.append(
            f"  cdcl {row['circuit']:>10} ({row['faults']} faults, "
            f"{row['undetectable']} undetectable): "
            f"baseline {row['baseline_seconds']:.3f}s "
            f"({row['baseline_conflicts']} conflicts), "
            f"current {row['current_seconds']:.3f}s "
            f"({row['current_conflicts']} conflicts) -> "
            f"{row['speedup']:.2f}x (floor {row['min_speedup']:.1f}x)"
        )
    emit_report("BENCH_atpg", "\n".join(lines))

    # CDCL floor: serial vs serial, enforced everywhere.
    for row in cdcl_rows:
        assert row["speedup"] >= row["min_speedup"], (
            f"{row['circuit']}: CDCL fixes expected >= "
            f"{row['min_speedup']}x over the frozen baseline, got "
            f"{row['speedup']:.2f}x"
        )
