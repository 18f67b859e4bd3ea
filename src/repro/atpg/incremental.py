"""Incremental SAT-based fault classification.

The per-fault SAT instances of :mod:`repro.atpg.cnf` re-encode (much of)
the circuit for every fault.  This module instead keeps **one** solver
per circuit with three levels of sharing:

* the good circuit (and, lazily, the frame-1 copy for two-pattern
  faults) is encoded exactly once;
* the **faulty output cone** of each fault site net is encoded once per
  *site* and shared by every fault at that site: the site's faulty value
  is a free variable, the cone clauses (no activation literal — they
  merely define cone variables and never constrain the good circuit)
  propagate it to the primary outputs, and per-PO difference variables
  are predefined;
* each individual fault then adds only a handful of clauses tying the
  site variable to the fault semantics, all carrying a fresh
  *activation literal*, plus the act-gated detection (OR-of-differences)
  clause.  After the decision the fault's clauses are tombstoned and its
  private variables pinned, so the solver never slows down.

Learned clauses persist across faults — the expensive lemmas (e.g.
"this checker signal is constant 0") are derived once and reused by
every fault in the same region.  Results are identical to the
standalone encoder (both are exact); the test suite cross-checks them.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.atpg.budget import UNLIMITED, AtpgBudget
from repro.atpg.cnf import _gate_clauses
from repro.atpg.sat import Solver, UNKNOWN
from repro.faults.model import (
    BridgingFault,
    CellAwareFault,
    Fault,
    StuckAtFault,
    TransitionFault,
)
from repro.library.cell import StandardCell
from repro.netlist.circuit import CONST0, CONST1, Circuit

TestPair = Tuple[Dict[str, int], Dict[str, int]]

_REDUCE_EVERY_CONFLICTS = 1500
_MAX_LEARNT = 3000


def fault_site_net(circuit: Circuit, fault: Fault) -> Optional[str]:
    """Net whose output cone carries *fault*'s effect.

    Module-level so callers can group faults by site without
    instantiating an engine.
    """
    if isinstance(fault, (StuckAtFault, TransitionFault)):
        if fault.branch is not None:
            gate = circuit.gates.get(fault.branch[0])
            return gate.output if gate else None
        return fault.net
    if isinstance(fault, BridgingFault):
        return fault.victim
    if isinstance(fault, CellAwareFault):
        gate = circuit.gates.get(fault.gate)
        return gate.output if gate else None
    return None


class _SiteCone:
    """Shared faulty-cone encoding rooted at one net."""

    __slots__ = ("site_var", "fvars", "pos", "diff_vars",
                 "clause_start", "clause_end", "var_start", "var_end")

    def __init__(self, site_var: int, fvars: Dict[str, int],
                 pos: List[str], diff_vars: List[int],
                 clause_start: int, clause_end: int,
                 var_start: int, var_end: int):
        self.site_var = site_var
        self.fvars = fvars
        self.pos = pos
        self.diff_vars = diff_vars
        self.clause_start = clause_start
        self.clause_end = clause_end
        self.var_start = var_start
        self.var_end = var_end


class IncrementalAtpg:
    """Shared-solver exact fault decision engine for one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        cells: Mapping[str, StandardCell],
        solver: Optional[Solver] = None,
    ):
        self.circuit = circuit
        self.cells = cells
        # An injected solver must be fresh (no clauses/vars): the slot
        # exists so benchmarks can pin a frozen-baseline Solver class.
        self.solver = solver if solver is not None else Solver()
        self.lemmas_reused = 0
        # Why the most recent decide() aborted ("deadline", "conflicts",
        # "decisions"): the solver's reason; None after a decided query.
        self.last_abort_reason: Optional[str] = None
        self._var: Dict[Tuple[str, str], int] = {}
        self._topo = circuit.topo_order()
        self._topo_index = {g: i for i, g in enumerate(self._topo)}
        self._frame1_ready = False
        self._last_reduce = 0
        self._cones: Dict[str, Optional[_SiteCone]] = {}
        self._active_site: Optional[str] = None
        for gname in self._topo:
            self._encode_gate_shared(gname, "g")

    # ------------------------------------------------------------------
    # Shared (fault-independent) encoding
    # ------------------------------------------------------------------
    def var(self, net: str, copy: str = "g") -> int:
        key = (net, copy)
        got = self._var.get(key)
        if got is None:
            got = self.solver.new_var()
            self._var[key] = got
            if net == CONST0:
                self.solver.add_clause([-got])
            elif net == CONST1:
                self.solver.add_clause([got])
        return got

    def _encode_gate_shared(self, gate_name: str, copy: str) -> None:
        gate = self.circuit.gates[gate_name]
        cell = self.cells[gate.cell]
        slots = [self.var(gate.pins[p], copy) for p in cell.input_pins]
        slots.append(self.var(gate.output, copy))
        for template in _gate_clauses(cell.n_inputs, cell.tt):
            self.solver.add_clause(
                [slots[i] if pol else -slots[i] for i, pol in template]
            )

    def _ensure_frame1(self) -> None:
        if not self._frame1_ready:
            for gname in self._topo:
                self._encode_gate_shared(gname, "1")
            self._frame1_ready = True

    def site_cone(self, net: str) -> Optional[_SiteCone]:
        """Shared faulty cone for site *net* (None if unobservable).

        The cone clauses define, for a free site variable, the faulty
        value of every net in the site's output cone and one difference
        variable per observable PO.  They never constrain the good
        circuit, so they stay enabled for the lifetime of the solver.
        """
        if net in self._cones:
            return self._cones[net]
        circuit = self.circuit
        in_cone: Set[str] = set()
        stack = [g for g, _p in circuit.loads(net)]
        while stack:
            g = stack.pop()
            if g in in_cone:
                continue
            in_cone.add(g)
            stack.extend(circuit.gate_fanout_gates(g))
        pos = [
            po for po in circuit.outputs
            if po == net
            or ((drv := circuit.driver(po)) is not None and drv in in_cone)
        ]
        if not pos:
            self._cones[net] = None
            return None
        solver = self.solver
        clause_start = len(solver.clauses)
        var_start = solver.num_vars
        site_var = solver.new_var()
        fvars: Dict[str, int] = {net: site_var}
        for g in sorted(in_cone, key=lambda g: self._topo_index[g]):
            gate = circuit.gates[g]
            cell = self.cells[gate.cell]
            slots = [
                fvars.get(gate.pins[p], self.var(gate.pins[p], "g"))
                for p in cell.input_pins
            ]
            out = solver.new_var()
            fvars[gate.output] = out
            slots.append(out)
            for template in _gate_clauses(cell.n_inputs, cell.tt):
                solver.add_clause(
                    [slots[i] if pol else -slots[i] for i, pol in template]
                )
        diff_vars: List[int] = []
        for po in pos:
            g = self.var(po, "g")
            f = fvars[po]
            d = solver.new_var()
            solver.add_clause([-d, g, f])
            solver.add_clause([-d, -g, -f])
            diff_vars.append(d)
        cone = _SiteCone(
            site_var, fvars, pos, diff_vars,
            clause_start, len(solver.clauses),
            var_start, solver.num_vars,
        )
        self._cones[net] = cone
        return cone

    def retire_site(self, net: str) -> None:
        """Drop the shared cone of *net* and everything derived from it.

        The cone clauses are a conservative extension (they define fresh
        variables and never constrain the good circuit), so deleting
        them plus every learned clause mentioning a cone variable leaves
        exactly the originally-implied constraints; the now-unconstrained
        cone variables are pinned so they are never decided again.
        """
        cone = self._cones.pop(net, None)
        if cone is None:
            return
        solver = self.solver
        solver.delete_clauses(range(cone.clause_start, cone.clause_end))
        lo, hi = cone.var_start + 1, cone.var_end
        # A clause learned before the cone was built cannot mention its
        # variables, and _learnt is ascending: scan only the later ones.
        first = bisect_left(solver._learnt, cone.clause_end)
        later = solver._learnt[first:]
        solver.delete_clauses([
            ci for ci in later
            if solver.clauses[ci] is not None
            and any(lo <= (elit >> 1) <= hi for elit in solver.clauses[ci])
        ])
        solver._learnt[first:] = [
            ci for ci in later if solver.clauses[ci] is not None
        ]
        for v in range(lo, hi + 1):
            if solver._val[v << 1] == 2:  # unassigned
                solver.add_clause([-v])

    def effort(self) -> Dict[str, int]:
        """Full solver-effort snapshot as a counter dict.

        Keys line up with the ``sat_*`` fields of
        :class:`~repro.utils.observability.EngineStats` so drivers can
        map them mechanically.
        """
        return {
            "sat_conflicts": self.solver.conflicts,
            "sat_propagations": self.solver.propagations,
            "sat_learned": self.solver.learned,
            "sat_restarts": self.solver.restarts,
            "sat_lemmas_reused": self.lemmas_reused,
        }

    # ------------------------------------------------------------------
    # Per-fault decision
    # ------------------------------------------------------------------
    def decide(
        self, fault: Fault, budget: AtpgBudget = UNLIMITED
    ) -> Tuple[Optional[bool], Optional[TestPair]]:
        """Detection decision; returns (detectable, test pair).

        *detectable* is three-valued: True (a test exists, returned as
        the pair), False (proved undetectable), or None — the per-fault
        resource *budget* ran out before a proof, and
        :attr:`last_abort_reason` names the limit that tripped.  Under
        the default unlimited budget every limit is None, so the decision
        is exact and the answer is the classic boolean.  An aborted
        fault's clauses are retired exactly like a decided one's, so the
        shared solver stays sound and compact either way.
        """
        # Shared structures (frame 1, site cone) must exist before the
        # watermarks so the post-decision cleanup never touches them.
        if self._needs_frame1(fault):
            self._ensure_frame1()
        # Lemmas carried over from earlier faults and available to this
        # query — the quantity incremental solving exists to maximize.
        self.lemmas_reused += len(self.solver._learnt)
        site = self._site_net(fault)
        # Single-active-cone policy: callers process faults grouped by
        # site (see the engine's sort order), so retiring the previous
        # site bounds the permanent variable count at one cone.
        if self._active_site is not None and self._active_site != site:
            self.retire_site(self._active_site)
        self._active_site = site
        if site is not None:
            self.site_cone(site)
        solver = self.solver
        var_mark = solver.num_vars
        clause_mark = len(solver.clauses)
        trail_mark = len(solver._trail)
        act = solver.new_var()
        built = self._build_fault(fault, act)
        result: Optional[bool] = False
        test: Optional[TestPair] = None
        self.last_abort_reason = None
        if built:
            deadline = (
                time.perf_counter() + budget.deadline_ms / 1000.0
                if budget.deadline_ms is not None else None
            )
            result = solver.solve(
                [act],
                conflict_budget=budget.conflict_budget,
                decision_budget=budget.decision_budget,
                deadline=deadline,
            )
            if result is UNKNOWN:
                self.last_abort_reason = solver.last_abort_reason or "unknown"
            if result:
                v2 = {
                    pi: solver.value_of(self.var(pi, "g")) or 0
                    for pi in self.circuit.inputs
                }
                if built == "two-frame":
                    v1 = {
                        pi: solver.value_of(self.var(pi, "1")) or 0
                        for pi in self.circuit.inputs
                    }
                else:
                    v1 = dict(v2)
                test = (v1, v2)
        # Retire the fault: disable its clauses (tombstones; watch entries
        # drop lazily) and pin its private variables at level 0 so they
        # are never decided again.
        solver.add_clause([-act])
        # Only clauses from clause_mark on are deleted below, and a
        # level-0 literal assigned before the mark has an older reason,
        # so only the literals assigned since can protect one.
        protected = {
            solver._reason[elit >> 1]
            for elit in solver._trail[trail_mark:]
            if solver._reason[elit >> 1] is not None
        }
        # Learned clauses in this range are kept: they are the reusable
        # lemmas (any containing the retired ¬act are satisfied anyway).
        for ci in reversed(solver._learnt):
            if ci < clause_mark:
                break
            protected.add(ci)
        solver.delete_clauses(
            ci for ci in range(clause_mark, len(solver.clauses))
            if ci not in protected
        )
        for v in range(var_mark + 1, solver.num_vars + 1):
            if solver._val[v << 1] == 2:  # unassigned
                solver.add_clause([-v])
        if (solver.conflicts - self._last_reduce > _REDUCE_EVERY_CONFLICTS
                or len(solver._learnt) > _MAX_LEARNT):
            solver.reduce_learnts(keep_max_size=3, max_keep=_MAX_LEARNT)
            self._last_reduce = solver.conflicts
        return result, test

    @staticmethod
    def _needs_frame1(fault: Fault) -> bool:
        if isinstance(fault, TransitionFault):
            return True
        return isinstance(fault, CellAwareFault) and bool(
            fault.defect.floating
        )

    def _site_net(self, fault: Fault) -> Optional[str]:
        """Net whose output cone carries this fault's effect."""
        return fault_site_net(self.circuit, fault)

    # ------------------------------------------------------------------
    def _clause(self, act: int, lits: Sequence[int]) -> None:
        """Fault-specific clause: disabled once ``-act`` is asserted."""
        self.solver.add_clause([-act] + list(lits))

    def _detect_clause(self, act: int, cone: _SiteCone) -> None:
        self._clause(act, cone.diff_vars)

    # ------------------------------------------------------------------
    def _build_fault(self, fault: Fault, act: int):
        """Add the fault's clauses; returns False (trivially
        undetectable), True (single frame) or "two-frame"."""
        if isinstance(fault, StuckAtFault):
            return self._build_stuck_like(
                fault.net, fault.value, fault.branch, None, act
            )
        if isinstance(fault, TransitionFault):
            return self._build_stuck_like(
                fault.net, fault.stuck_value, fault.branch,
                fault.initial_value, act,
            )
        if isinstance(fault, BridgingFault):
            return self._build_bridge(fault, act)
        if isinstance(fault, CellAwareFault):
            return self._build_cell_aware(fault, act)
        raise TypeError(type(fault).__name__)

    def _build_stuck_like(
        self,
        net: str,
        stuck_value: int,
        branch: Optional[Tuple[str, str]],
        init_value: Optional[int],
        act: int,
    ):
        circuit = self.circuit
        if branch is not None:
            gname, pin = branch
            gate = circuit.gates.get(gname)
            if gate is None or gate.pins.get(pin) != net:
                return False
            cone = self.site_cone(gate.output)
            if cone is None:
                return False
            # Faulty branch gate: output = cell(inputs with pin = const),
            # written onto the shared site variable (act-gated).
            cell = self.cells[gate.cell]
            slots: List[Optional[int]] = []
            for p in cell.input_pins:
                if p == pin:
                    slots.append(None)
                else:
                    slots.append(self.var(gate.pins[p], "g"))
            out = cone.site_var
            for template in _gate_clauses(cell.n_inputs, cell.tt):
                lits = []
                skip = False
                for i, pol in template:
                    if i < len(cell.input_pins) and slots[i] is None:
                        if pol == bool(stuck_value):
                            skip = True
                            break
                        continue
                    v = out if i == len(cell.input_pins) else slots[i]
                    lits.append(v if pol else -v)
                if not skip:
                    self._clause(act, lits)
        else:
            if circuit.driver(net) is None and net not in circuit.inputs:
                return False
            cone = self.site_cone(net)
            if cone is None:
                return False
            self._clause(
                act, [cone.site_var if stuck_value else -cone.site_var]
            )
            gvar = self.var(net, "g")
            self._clause(act, [-gvar if stuck_value else gvar])
        self._detect_clause(act, cone)
        if init_value is not None:
            ivar = self.var(net, "1")
            self._clause(act, [ivar if init_value else -ivar])
            return "two-frame"
        return True

    def _build_bridge(self, fault: BridgingFault, act: int):
        circuit = self.circuit
        nets = circuit.nets()
        if fault.victim not in nets or fault.aggressor not in nets:
            return False
        cone = self.site_cone(fault.victim)
        if cone is None:
            return False
        g_v = self.var(fault.victim, "g")
        g_a = self.var(fault.aggressor, "g")
        self._clause(act, [-cone.site_var, g_a])
        self._clause(act, [cone.site_var, -g_a])
        self._clause(act, [g_v, g_a])
        self._clause(act, [-g_v, -g_a])
        self._detect_clause(act, cone)
        return True

    def _build_cell_aware(self, fault: CellAwareFault, act: int):
        circuit = self.circuit
        gate = circuit.gates.get(fault.gate)
        if gate is None:
            return False
        cell = self.cells[gate.cell]
        defect = fault.defect
        cone = self.site_cone(gate.output)
        if cone is None:
            return False
        n = cell.n_inputs
        in_vars = [self.var(gate.pins[p], "g") for p in cell.input_pins]
        out_g = self.var(gate.output, "g")
        out_f = cone.site_var

        def neg_lits(vars_: Sequence[int], m: int) -> List[int]:
            return [
                -vars_[i] if (m >> i) & 1 else vars_[i] for i in range(n)
            ]

        dynamic = bool(defect.floating)
        if dynamic:
            in1 = [self.var(gate.pins[p], "1") for p in cell.input_pins]
            retained = self.solver.new_var()
            driven1 = self.solver.new_var()
            for m, fval in enumerate(defect.faulty):
                neg1 = neg_lits(in1, m)
                if fval is None:
                    self._clause(act, neg1 + [-driven1])
                else:
                    self._clause(act, neg1 + [driven1])
                    self._clause(
                        act, neg1 + [retained if fval else -retained]
                    )
        for m, fval in enumerate(defect.faulty):
            neg2 = neg_lits(in_vars, m)
            if fval is not None:
                self._clause(act, neg2 + [out_f if fval else -out_f])
            elif dynamic and m in defect.floating:
                self._clause(act, neg2 + [-driven1, -out_f, retained])
                self._clause(act, neg2 + [-driven1, out_f, -retained])
                self._clause(act, neg2 + [driven1, -out_f, out_g])
                self._clause(act, neg2 + [driven1, out_f, -out_g])
            else:
                self._clause(act, neg2 + [-out_f, out_g])
                self._clause(act, neg2 + [out_f, -out_g])
        self._detect_clause(act, cone)
        return "two-frame" if dynamic else True
