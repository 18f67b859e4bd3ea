"""Performance harness for the two-phase resynthesis loop.

Runs the full Phase-1 + Phase-2 procedure (q swept 0..q_max) twice on
one bench circuit: once through a faithful copy of the seed serial
driver (one candidate at a time, full ``analyze_design`` re-analysis per
attempt, double ATPG per accepted attempt, no candidate reuse) and once
through the optimized loop (staged cached candidate evaluation, verdict
inheritance, cone-scoped incremental re-analysis).  Asserts the two
produce the *identical* iteration trace and final metrics, then asserts
the speedup floor and appends a trajectory point to
``benchmarks/results/BENCH_resynthesis.json``.

A machine-independent regression gate compares the measured speedup
(a ratio of two runs on the same machine) against the most recent
checked-in point for the same workload and fails on a >25% drop.

Run with:
``PYTHONPATH=src python -m pytest benchmarks/test_perf_resynthesis.py -s``

Knobs: ``REPRO_RESYN_CIRCUIT`` (default aes_core — the largest bench
circuit), ``REPRO_RESYN_QMAX`` (default 2), ``REPRO_RESYN_MAX_ITER``
(default 3), ``REPRO_RESYN_MIN_SPEEDUP`` (default 2.0).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Set, Tuple

import pytest

from benchmarks.conftest import emit_report, get_library
from repro.atpg.engine import run_atpg
from repro.bench import build_benchmark
from repro.core import ResynthesisConfig, resynthesize_for_coverage
from repro.core.backtracking import backtrack_resynthesis
from repro.core.clustering import cluster_undetectable
from repro.core.flow import DesignState, analyze_design
from repro.core.resynthesis import TREND_WINDOW, IterationRecord
from repro.dfm.translate import build_fault_set
from repro.faults.model import CellAwareFault
from repro.faults.sites import enumerate_internal_faults
from repro.netlist.circuit import extract_subcircuit, replace_subcircuit
from repro.physical.pdesign import pdesign
from repro.physical.placement import PlacementError
from repro.synthesis import techmap
from repro.synthesis.rewrite import _shrink, _support
from repro.synthesis.synthesize import is_complete_subset, synthesize
from repro.synthesis.techmap import TechmapError

pytestmark = [pytest.mark.perf, pytest.mark.slow]

CIRCUIT = os.environ.get("REPRO_RESYN_CIRCUIT", "aes_core")
Q_MAX = int(os.environ.get("REPRO_RESYN_QMAX", "2"))
MAX_ITER = int(os.environ.get("REPRO_RESYN_MAX_ITER", "3"))
MIN_SPEEDUP = float(os.environ.get("REPRO_RESYN_MIN_SPEEDUP", "2.0"))
REGRESSION_TOLERANCE = 1.25  # fail on a >25% speedup drop vs checked-in


# ----------------------------------------------------------------------
# Baseline: the seed's serial resynthesis driver, copied verbatim
# (modulo renames).  One candidate at a time; every attempt pays a full
# synthesize + PDesign, a full internal ATPG *and* a second full
# analyze_design ATPG when accepted-path; nothing is reused across
# attempts, phases, or q steps.  Kept here so the benchmark always
# compares against the same fixed starting point.  Its two re-analysis
# steps, the pre-PDesign internal count and the full analysis, are the
# seed's as it called them: a candidate inherits its parent's
# undetectable behaviour keys and tests, nothing else.
# ----------------------------------------------------------------------
def _baseline_count_undetectable_internal(
    circuit, library, tests, known_undet, seed: int
) -> int:
    internal = enumerate_internal_faults(circuit, library)
    return len(run_atpg(
        circuit, library.cells, internal,
        seed=seed, initial_tests=tests, compaction=False,
        assume_undetectable=known_undet,
    ).undetectable)


def _baseline_analyze(
    circuit, library, physical, tests, known_undet, seed: int
) -> DesignState:
    fault_set = build_fault_set(circuit, library, physical.layout)
    atpg = run_atpg(
        circuit, library.cells, fault_set.faults,
        seed=seed, initial_tests=tests,
        assume_undetectable=known_undet,
    )
    undetectable = [f for f in fault_set if f.fault_id in atpg.undetectable]
    return DesignState(
        circuit=circuit,
        physical=physical,
        fault_set=fault_set,
        atpg=atpg,
        clusters=cluster_undetectable(circuit, undetectable),
    )


class _BaselineResynthesizer:
    def __init__(self, library, orig: DesignState, cfg: ResynthesisConfig):
        self.library = library
        self.orig = orig
        self.cfg = cfg
        self.history: List[IterationRecord] = []
        self._order = library.order_by_internal_faults()

    def gates_with_undetectable_internal(
        self, state: DesignState
    ) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for fault in state.fault_set.internal:
            if fault.fault_id in state.atpg.undetectable:
                assert isinstance(fault, CellAwareFault)
                out[fault.gate] = out.get(fault.gate, 0) + 1
        return out

    def attempt(
        self,
        state: DesignState,
        replacement: Set[str],
        allowed: List[str],
        q: int,
        accept,
    ) -> Tuple[str, Optional[DesignState]]:
        if not replacement:
            return "synthfail", None
        sub = extract_subcircuit(state.circuit, replacement, name="csub")
        try:
            new_sub = synthesize(
                sub, self.library, allowed_cells=allowed,
                objective="faults",
            )
            candidate = replace_subcircuit(
                state.circuit, replacement, new_sub
            )
        except TechmapError:
            return "synthfail", None
        cells = {c.name: c for c in self.library}
        try:
            physical = pdesign(
                candidate, cells,
                floorplan=self.orig.physical.floorplan,
                seed=self.cfg.seed,
            )
        except PlacementError:
            return "constraints", None
        if not physical.meets_constraints(self.orig.physical, q):
            return "constraints", None
        known_undet = state.undetectable_behaviour_keys()
        u_in_new = _baseline_count_undetectable_internal(
            candidate, self.library, state.tests, known_undet, self.cfg.seed,
        )
        if u_in_new >= state.u_internal:
            return "rejected", None
        cand_state = _baseline_analyze(
            candidate, self.library, physical, state.tests, known_undet,
            self.cfg.seed,
        )
        if accept(cand_state, state):
            return "accepted", cand_state
        return "rejected", None

    def resynthesize_once(
        self,
        state: DesignState,
        csub_gates: Set[str],
        q: int,
        phase: int,
        accept,
    ) -> Optional[DesignState]:
        u_int_by_gate = self.gates_with_undetectable_internal(state)
        g_zero = {g for g in csub_gates if u_int_by_gate.get(g, 0) == 0}
        replacement_base = set(csub_gates) - g_zero
        if not replacement_base:
            return None
        used_cells = {
            state.circuit.gates[g].cell for g in replacement_base
        }
        u_trend: List[int] = []
        for i, cell_i in enumerate(self._order[:-1]):
            if cell_i.name not in used_cells:
                continue
            if not any(
                state.circuit.gates[g].cell == cell_i.name
                for g in replacement_base
            ):
                continue
            rest = self._order[i + 1:]
            if not is_complete_subset(rest):
                break
            allowed = [c.name for c in rest]

            def accept_and_track(cand: DesignState, cur: DesignState) -> bool:
                u_trend.append(cand.u_total)
                return accept(cand, cur)

            status, cand = self.attempt(
                state, replacement_base, allowed, q, accept_and_track
            )
            self.history.append(IterationRecord(
                phase=phase, q=q, csub_size=len(replacement_base),
                excluded_upto=cell_i.name, status=status,
                u_total=cand.u_total if cand else None,
                smax=cand.smax_size if cand else None,
            ))
            if status == "accepted":
                return cand
            if status == "constraints":
                g_i = [
                    g for g in sorted(replacement_base)
                    if self._cell_index(state.circuit.gates[g].cell) <= i
                ]
                g_i.sort(key=lambda g: (-u_int_by_gate.get(g, 0), g))
                back = backtrack_resynthesis(
                    replacement_base, g_i,
                    lambda repl: self.attempt(
                        state, repl, allowed, q, accept_and_track
                    ),
                )
                if back is not None:
                    self.history.append(IterationRecord(
                        phase=phase, q=q, csub_size=len(replacement_base),
                        excluded_upto=cell_i.name,
                        status="backtrack-accepted",
                        u_total=back.u_total, smax=back.smax_size,
                    ))
                    return back
            w = TREND_WINDOW
            if len(u_trend) > w and all(
                u_trend[-j] > u_trend[-j - 1] for j in range(1, w + 1)
            ):
                break
        return None

    def _cell_index(self, cell_name: str) -> int:
        for i, cell in enumerate(self._order):
            if cell.name == cell_name:
                return i
        raise KeyError(cell_name)

    def run_phase1(self, state: DesignState, q: int) -> DesignState:
        for _ in range(self.cfg.max_iterations_per_phase):
            if state.u_total == 0:
                break
            if state.smax_fraction_of_f <= self.cfg.p1:
                break

            def accept(cand: DesignState, cur: DesignState) -> bool:
                return (
                    cand.smax_size < cur.smax_size
                    and cand.u_total <= cur.u_total
                )

            new = self.resynthesize_once(
                state, state.clusters.gmax, q, phase=1, accept=accept
            )
            if new is None:
                break
            state = new
        return state

    def run_phase2(self, state: DesignState, q: int) -> DesignState:
        p2 = max(self.cfg.p1, state.smax_fraction_of_f)
        for _ in range(self.cfg.max_iterations_per_phase):
            if state.u_total == 0:
                break

            def accept(cand: DesignState, cur: DesignState) -> bool:
                return (
                    cand.u_total < cur.u_total
                    and cand.smax_fraction_of_f <= p2
                )

            new = self.resynthesize_once(
                state, state.clusters.gates_u, q, phase=2, accept=accept
            )
            if new is None:
                break
            state = new
        return state


def baseline_resynthesize(circuit, library, cfg: ResynthesisConfig):
    """The seed's ``resynthesize_for_coverage``, serial end to end."""
    orig = analyze_design(circuit, library, seed=cfg.seed, atpg_seed=cfg.seed)
    driver = _BaselineResynthesizer(library, orig, cfg)
    state = orig
    per_q: Dict[int, DesignState] = {}
    for q in range(cfg.q_max + 1):
        state = driver.run_phase1(state, q)
        state = driver.run_phase2(state, q)
        per_q[q] = state
    final = per_q[cfg.q_max]
    q_used = cfg.q_max
    for q in range(cfg.q_max + 1):
        if per_q[q].coverage >= final.coverage:
            q_used = q
            break
    return per_q[q_used], q_used, driver.history


# ----------------------------------------------------------------------
def _trace(history: List[IterationRecord]) -> List[tuple]:
    return [
        (h.phase, h.q, h.csub_size, h.excluded_upto, h.status,
         h.u_total, h.smax)
        for h in history
    ]


def _gate_signature(state: DesignState) -> List[Tuple[str, str]]:
    return sorted(
        (name, gate.cell) for name, gate in state.circuit.gates.items()
    )


def _results_path() -> str:
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    return os.path.join(results_dir, "BENCH_resynthesis.json")


def _reference_speedup(trajectory: List[dict]) -> Optional[float]:
    """Most recent checked-in speedup for this exact workload."""
    for point in reversed(trajectory):
        if (
            point.get("circuit") == CIRCUIT
            and point.get("q_max") == Q_MAX
            and point.get("max_iterations_per_phase") == MAX_ITER
        ):
            return float(point["speedup"])
    return None


def _cold_synthesis_memos() -> None:
    """Empty the synthesis memos (match tables, truth-table helpers), so
    that each timed run builds the tables it uses, as a fresh process
    would, instead of starting with the ones an earlier run built."""
    techmap._tables.clear()
    _support.cache_clear()
    _shrink.cache_clear()


def test_resynthesis_speedup_and_identical_trace():
    library = get_library()
    circuit = build_benchmark(CIRCUIT, library)

    _cold_synthesis_memos()
    t0 = time.perf_counter()
    base_final, base_q_used, base_history = baseline_resynthesize(
        build_benchmark(CIRCUIT, library), library,
        ResynthesisConfig(q_max=Q_MAX, max_iterations_per_phase=MAX_ITER),
    )
    t_base = time.perf_counter() - t0

    cfg = ResynthesisConfig(q_max=Q_MAX, max_iterations_per_phase=MAX_ITER)
    _cold_synthesis_memos()
    t0 = time.perf_counter()
    opt = resynthesize_for_coverage(circuit, library, cfg)
    t_opt = time.perf_counter() - t0

    # Correctness gate first: the optimized loop must retrace the seed
    # serial loop exactly — every attempt, every status, every accepted
    # candidate, and the final metrics.
    assert _trace(opt.history) == _trace(base_history)
    assert opt.q_used == base_q_used
    assert opt.final.u_total == base_final.u_total
    assert opt.final.smax_size == base_final.smax_size
    assert opt.final.smax_fraction_of_f == base_final.smax_fraction_of_f
    assert _gate_signature(opt.final) == _gate_signature(base_final)
    assert opt.final.atpg.undetectable == base_final.atpg.undetectable

    speedup = t_base / t_opt if t_opt else float("inf")
    accepted = sum(
        1 for h in opt.history
        if h.status in ("accepted", "backtrack-accepted")
    )

    path = _results_path()
    trajectory: List[dict] = []
    if os.path.exists(path):
        with open(path) as fh:
            trajectory = json.load(fh)
    reference = _reference_speedup(trajectory)

    point = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "circuit": CIRCUIT,
        "gates": len(circuit),
        "q_max": Q_MAX,
        "max_iterations_per_phase": MAX_ITER,
        "baseline_seconds": round(t_base, 2),
        "optimized_seconds": round(t_opt, 2),
        "speedup": round(speedup, 2),
        "identical_trace": True,
        "iterations": len(opt.history),
        "accepted_iterations": accepted,
        "final_u_total": opt.final.u_total,
        "final_smax_fraction": round(opt.final.smax_fraction_of_f, 6),
        "q_used": opt.q_used,
        "stats": opt.stats.as_dict(),
    }
    trajectory.append(point)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")

    eng = opt.stats.engine
    lines = [
        f"resynthesis perf on {CIRCUIT} "
        f"({len(circuit)} gates, q_max={Q_MAX}, "
        f"max_iter={MAX_ITER})",
        f"  seed serial loop:  {t_base:.1f}s "
        f"({len(base_history)} iterations)",
        f"  optimized loop:    {t_opt:.1f}s ({speedup:.2f}x), "
        f"identical trace, {accepted} accepted",
        f"  candidates: {opt.stats.candidates_evaluated} evaluated, "
        f"{opt.stats.candidate_cache_hits} cache hits",
        f"  verdicts: {eng.verdicts_inherited} inherited, "
        f"{eng.verdicts_proved} proved; "
        f"faults: {eng.faults_extracted} extracted; "
        f"clusters: {eng.clusters_reused} reused, "
        f"{eng.clusters_recomputed} recomputed",
    ]
    emit_report("BENCH_resynthesis", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x over the seed serial loop, "
        f"got {speedup:.2f}x"
    )
    if reference is not None:
        assert speedup >= reference / REGRESSION_TOLERANCE, (
            f"speedup regressed: {speedup:.2f}x vs checked-in "
            f"{reference:.2f}x (tolerance {REGRESSION_TOLERANCE}x)"
        )
