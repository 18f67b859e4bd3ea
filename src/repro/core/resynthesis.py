"""The two-phase resynthesis procedure (Section III of the paper).

Phase 1 targets the current largest cluster of undetectable faults
(``C_sub = G_max``) until at most ``p1`` of the faults in F remain in
S_max; phase 2 targets all gates with undetectable faults (``C_sub =
G_U``) to reduce the total number of undetectable faults further, while
keeping the S_max share below ``p2``.

In every iteration the library cells are considered in decreasing order
of internal DFM fault count (``cell_0`` first); considering ``cell_i``
means resynthesizing ``C_sub - G_zero`` *without* ``cell_0 .. cell_i``.
``PDesign()`` runs only when the number of undetectable internal faults
decreased, and the backtracking procedure of Section III-C guards the
design constraints (fixed die; delay/power within ``1 + q``).

The driver applies the procedure with q = 0 first, then re-applies it
with q increased one percent at a time up to ``q_max`` = 5, each time on
top of the previous solution, exactly as in Section I of the paper.

Performance model
-----------------
The loop's dominant cost is evaluating candidate implementations:
synthesize + place-and-route, then fault re-analysis.  Two levers cut
it without changing the trace, U, S_max, verdicts or clusters:

* **Staged, cached candidate evaluation** — a candidate is identified
  by ``(current state, replacement gate set, allowed cells)``; none of
  its evaluation stages depend on the slack step q or on the phase, so
  one table per design state (:class:`_Evaluation` objects) carries
  finished work across the q sweep.  The q = 0 and q = 1 passes, and the
  phase-1/phase-2 passes over an unchanged state, repeat *identical*
  candidate evaluations — the table collapses them to lookups.  A
  candidate whose status can no longer change *settles* and keeps only
  that status, so only candidates that may still pass hold a layout.
* **Verdict inheritance** — a candidate that passes the internal-fault
  and constraint gates is re-analyzed with ``analyze_design(prev=state,
  internal_atpg=...)``, the only re-analysis path: it inherits the
  parent's detected and undetectable verdicts (by behaviour key) and
  its tests, the candidate's own pre-PDesign internal classification
  is not repeated, and only faults of the replaced region's cone are
  re-proved (see :mod:`repro.core.flow`).  The test set T is seeded
  with the inherited tests, so it depends on the path taken.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.atpg.engine import AtpgResult
from repro.core.backtracking import backtrack_resynthesis
from repro.core.flow import (
    DesignState,
    analyze_design,
    classify_internal,
)
from repro.faults.model import CellAwareFault
from repro.library.osu018 import Library
from repro.netlist.circuit import Circuit, extract_subcircuit, replace_subcircuit
from repro.physical.pdesign import PhysicalDesign, pdesign
from repro.physical.placement import PlacementError
from repro.synthesis.synthesize import is_complete_subset, synthesize
from repro.synthesis.techmap import TechmapError
from repro.utils.observability import ResynthesisStats

# A sweep over the cell ordering stops when U rose this many times in a
# row.
TREND_WINDOW = 3


@dataclass
class ResynthesisConfig:
    """Knobs of the procedure (paper defaults)."""

    p1: float = 0.01  # phase-1 target: |S_max| / |F|
    q_max: int = 5  # maximum delay/power increase, percent
    seed: int = 0
    max_iterations_per_phase: int = 25


@dataclass
class IterationRecord:
    """One resynthesis attempt, for tracing/reporting."""

    phase: int
    q: int
    csub_size: int
    excluded_upto: str  # name of cell_i
    status: str
    u_total: Optional[int] = None
    smax: Optional[int] = None


@dataclass
class ResynthesisResult:
    """Original vs. final design state plus the full iteration trace."""

    original: DesignState
    final: DesignState
    per_q: Dict[int, DesignState]
    q_used: int
    history: List[IterationRecord] = field(default_factory=list)
    runtime: float = 0.0
    baseline_runtime: float = 0.0
    stats: ResynthesisStats = field(default_factory=ResynthesisStats)

    @property
    def relative_runtime(self) -> float:
        """The paper's Rtime: procedure time over one flow iteration."""
        if self.baseline_runtime <= 0:
            return float("nan")
        return self.runtime / self.baseline_runtime


class _Evaluation:
    """Staged, cached evaluation of one candidate implementation.

    Stage 1 (synthesize + replace + PDesign), stage 2 (pre-PDesign
    internal classification) and stage 3 (full re-analysis) run lazily,
    in consumption order.  All stages are computed at most once.

    ``settled`` is ``None`` while the candidate's answer may change;
    otherwise it is the status every later attempt returns, and the
    candidate keeps only that (:meth:`settle`).  The table lives for one
    design state, over which q only rises, so a synthesis failure, a
    miss of the die or of the constraints at ``q_max`` and a stage-2
    rejection settle.  Stage-3 candidates stay: the other phase may
    accept them.

    Constraint checking happens before fault analysis: in this substrate
    PDesign() is cheap relative to exact ATPG — the inverse of the
    paper's tool costs — so the gating order is swapped accordingly (the
    paper gates PDesign() on the undetectable-internal check because
    physical design is *their* expensive step).
    """

    __slots__ = (
        "driver", "state", "replacement", "allowed",
        "settled", "candidate", "physical", "internal_atpg", "cand_state",
    )

    def __init__(
        self,
        driver: "_Resynthesizer",
        state: DesignState,
        replacement: FrozenSet[str],
        allowed: Tuple[str, ...],
    ):
        self.driver = driver
        self.state = state
        self.replacement = replacement
        self.allowed = allowed
        self.settled: Optional[str] = None
        self.candidate: Optional[Circuit] = None
        self.physical: Optional[PhysicalDesign] = None
        self.internal_atpg: Optional[AtpgResult] = None
        self.cand_state: Optional[DesignState] = None

    def settle(self, status: str) -> str:
        """Answer *status* from now on; drop netlist, layout and ATPG."""
        self.settled = status
        self.candidate = self.physical = self.internal_atpg = None
        return status

    def ensure_placed(self) -> None:
        """Stage 1: synthesize the replacement and place-and-route it.

        Settles the candidate if it cannot be synthesized or does not
        fit the fixed die.
        """
        if self.physical is not None:
            return
        driver = self.driver
        sub = extract_subcircuit(
            self.state.circuit, self.replacement, name="csub"
        )
        try:
            # "faults": Synthesize() minimizes internal DFM fault sites
            # when re-mapping C_sub ("resynthesizing the circuit with
            # standard cells containing fewer internal faults", Section I
            # of the paper).
            new_sub = synthesize(
                sub, driver.library, allowed_cells=list(self.allowed),
                objective="faults",
            )
            candidate = replace_subcircuit(
                self.state.circuit, self.replacement, new_sub
            )
        except TechmapError:
            self.settle("synthfail")
            return
        try:
            physical = pdesign(
                candidate, driver.library.cells,
                floorplan=driver.orig.physical.floorplan,
                seed=driver.cfg.seed,
            )
        except PlacementError:
            self.settle("constraints")  # does not fit the fixed die
            return
        self.candidate = candidate
        self.physical = physical
        driver.stats.candidates_evaluated += 1

    def u_in_new(self) -> int:
        """Stage 2: undetectable internal faults of the bare candidate.

        Returns the conservative *upper bound* — proved undetectable
        plus aborted internal faults — so that under a resource budget
        an unclassified fault can never help a candidate pass the
        Section III-B gate.  Identical to the exact count when nothing
        aborted (the default unlimited budget).
        """
        if self.internal_atpg is None:
            driver = self.driver
            self.internal_atpg = classify_internal(
                self.candidate, driver.library, prev=self.state,
                atpg_seed=driver.cfg.seed, stats=driver.stats.engine,
            )
        return (
            len(self.internal_atpg.undetectable)
            + len(self.internal_atpg.aborted)
        )

    def result_state(self) -> DesignState:
        """Stage 3: full re-analysis of the placed candidate."""
        if self.cand_state is None:
            driver = self.driver
            self.cand_state = analyze_design(
                self.candidate, driver.library,
                seed=driver.cfg.seed, atpg_seed=driver.cfg.seed,
                physical=self.physical,
                prev=self.state,
                internal_atpg=self.internal_atpg,
                stats=driver.stats.engine,
            )
        return self.cand_state


class _Resynthesizer:
    """Internal driver holding the shared context of one procedure run."""

    def __init__(
        self,
        library: Library,
        orig: DesignState,
        cfg: ResynthesisConfig,
        stats: Optional[ResynthesisStats] = None,
    ):
        self.library = library
        self.orig = orig
        self.cfg = cfg
        self.stats = stats if stats is not None else ResynthesisStats()
        self.history: List[IterationRecord] = []
        self._order = library.order_by_internal_faults()
        self._state: Optional[DesignState] = None  # owner of _candidates
        self._candidates: Dict[tuple, _Evaluation] = {}

    def _evaluation(
        self,
        state: DesignState,
        replacement: Set[str],
        allowed: Sequence[str],
    ) -> _Evaluation:
        """The cached evaluation for (state, replacement, allowed).

        Resynthesis only moves forward: every attempt is made against
        the current state, and an accepted candidate replaces it.  A
        superseded state's candidates never come up again, so the table
        is emptied when the state changes.
        """
        if state is not self._state:
            self._state = state
            self._candidates = {}
        key = (frozenset(replacement), tuple(allowed))
        ev = self._candidates.get(key)
        if ev is not None:
            self.stats.candidate_cache_hits += 1
            return ev
        self.stats.candidate_cache_misses += 1
        ev = self._candidates[key] = _Evaluation(self, state, *key)
        return ev

    # ------------------------------------------------------------------
    def gates_with_undetectable_internal(
        self, state: DesignState
    ) -> Dict[str, int]:
        """Map gate -> number of its undetectable internal faults."""
        out: Dict[str, int] = {}
        for fault in state.fault_set.internal:
            if fault.fault_id in state.atpg.undetectable:
                assert isinstance(fault, CellAwareFault)
                out[fault.gate] = out.get(fault.gate, 0) + 1
        return out

    # ------------------------------------------------------------------
    def attempt(
        self,
        state: DesignState,
        replacement: Set[str],
        allowed: List[str],
        q: int,
        accept,
    ) -> Tuple[str, Optional[DesignState]]:
        """One Synthesize()/PDesign() attempt on *replacement* gates.

        Status: "accepted" | "constraints" | "rejected" | "synthfail".
        The staged evaluation behind it is cached, so re-attempting the
        same candidate at a higher q (or in the other phase) returns its
        settled status or only re-runs the cheap constraint comparison.
        """
        if not replacement:
            return "synthfail", None
        ev = self._evaluation(state, replacement, allowed)
        if ev.settled is None:
            ev.ensure_placed()
        if ev.settled is not None:
            return ev.settled, None
        reference = self.orig.physical
        if not ev.physical.meets_constraints(reference, q):
            # The limit only rises with q: missing it at q_max means
            # missing it at every q this state will see.
            if not ev.physical.meets_constraints(reference, self.cfg.q_max):
                ev.settle("constraints")
            return "constraints", None
        # Status inheritance: faults outside the replaced region keep
        # their verdicts (detection is functional; the replacement is
        # functionally equivalent and replaced objects get fresh names).
        # Both sides are fixed while the state holds: the rejection
        # repeats at every later q.
        if ev.u_in_new() >= state.u_internal:
            return ev.settle("rejected"), None
        cand_state = ev.result_state()
        if accept(cand_state, state):
            return "accepted", cand_state
        return "rejected", None

    # ------------------------------------------------------------------
    def resynthesize_once(
        self,
        state: DesignState,
        csub_gates: Set[str],
        q: int,
        phase: int,
        accept,
    ) -> Optional[DesignState]:
        """One pass over the cell ordering for one subcircuit target."""
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
            # Eligible steps of the cell ordering: rules (1)-(3) of
            # Section III-B.
            if cell_i.name not in used_cells:
                continue
            rest = self._order[i + 1:]
            if not is_complete_subset(rest):
                break  # even smaller suffixes cannot synthesize C_sub
            allowed = [c.name for c in rest]

            def accept_and_track(
                cand: DesignState, cur: DesignState
            ) -> bool:
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
                # Replace the most fault-laden gates preferentially:
                # the tail of g_i (moved to G_back first) holds the
                # gates with the fewest undetectable internal faults.
                g_i.sort(key=lambda g: (-u_int_by_gate.get(g, 0), g))

                def backtrack_attempt(
                    repl: Set[str],
                ) -> Tuple[str, Optional[DesignState]]:
                    self.stats.backtrack_attempts += 1
                    return self.attempt(
                        state, repl, allowed, q, accept_and_track
                    )

                back = backtrack_resynthesis(
                    replacement_base, g_i, backtrack_attempt
                )
                if back is not None:
                    self.history.append(IterationRecord(
                        phase=phase, q=q,
                        csub_size=len(replacement_base),
                        excluded_upto=cell_i.name,
                        status="backtrack-accepted",
                        u_total=back.u_total, smax=back.smax_size,
                    ))
                    return back
            # Early phase termination: the U trend turned upward.
            if len(u_trend) > TREND_WINDOW and all(
                u_trend[-j] > u_trend[-j - 1]
                for j in range(1, TREND_WINDOW + 1)
            ):
                break
        return None

    def _cell_index(self, cell_name: str) -> int:
        for i, cell in enumerate(self._order):
            if cell.name == cell_name:
                return i
        raise KeyError(cell_name)

    # ------------------------------------------------------------------
    def run_phase1(self, state: DesignState, q: int) -> DesignState:
        for _ in range(self.cfg.max_iterations_per_phase):
            if state.u_total == 0:
                break
            if state.smax_fraction_of_f <= self.cfg.p1:
                break

            def accept(cand: DesignState, cur: DesignState) -> bool:
                # Phase 1: S_max must shrink without increasing total U.
                # The candidate is held to its pessimistic U (proved
                # undetectable + aborted): an unclassified fault never
                # buys acceptance.  u_upper == u_total when no budget.
                return (
                    cand.smax_size < cur.smax_size
                    and cand.u_upper <= cur.u_total
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
                # Phase 2: total U must drop; S_max share stays <= p2.
                # As in phase 1, the candidate's pessimistic U (proved +
                # aborted) must beat the reference's proved U.
                return (
                    cand.u_upper < cur.u_total
                    and cand.smax_fraction_of_f <= p2
                )

            new = self.resynthesize_once(
                state, state.clusters.gates_u, q, phase=2, accept=accept
            )
            if new is None:
                break
            state = new
        return state


def resynthesize_for_coverage(
    circuit: Circuit,
    library: Library,
    config: Optional[ResynthesisConfig] = None,
) -> ResynthesisResult:
    """Apply the full procedure (both phases, q swept 0..q_max)."""
    cfg = config or ResynthesisConfig()
    stats = ResynthesisStats()
    t0 = time.perf_counter()
    orig = analyze_design(
        circuit, library, seed=cfg.seed, atpg_seed=cfg.seed,
        stats=stats.engine,
    )
    baseline = time.perf_counter() - t0
    driver = _Resynthesizer(library, orig, cfg, stats=stats)
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
    final = per_q[q_used]
    return ResynthesisResult(
        original=orig,
        final=final,
        per_q=per_q,
        q_used=q_used,
        history=driver.history,
        runtime=time.perf_counter() - t0,
        baseline_runtime=baseline,
        stats=driver.stats,
    )
