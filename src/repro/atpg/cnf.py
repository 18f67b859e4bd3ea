"""CNF encodings of fault detection conditions.

For a fault f, the encoder builds a SAT instance that is satisfiable iff
some (pair of) input pattern(s) detects f:

* a **good** copy of the circuit restricted to the relevant fanin cones;
* a **faulty** copy of the fault site's output cone (structurally shared
  nets outside the cone reuse the good variables);
* model-specific site constraints (stuck value, dominant-bridge tie,
  faulty cell truth table, two-frame initialization / charge retention);
* a miter asserting that some primary output in the cone differs.

Gate functions are encoded from their truth tables with one implication
clause per minterm (cells have at most four inputs, so at most 16 small
clauses per gate); templates are cached per (arity, truth table).

A SAT answer yields the test (pattern pair); UNSAT is an exact proof that
the fault is undetectable — the quantity the paper's procedure minimizes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.faults.model import (
    BridgingFault,
    CellAwareFault,
    Fault,
    StuckAtFault,
    TransitionFault,
)
from repro.library.cell import StandardCell
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.atpg.sat import Solver


def _prime_implicants(minterms: Sequence[int], n: int) -> List[Tuple[int, int]]:
    """Prime implicants of an n-variable ON-set (Quine-McCluskey).

    An implicant is (care_mask, value): variables outside care_mask are
    don't-cares.  n is at most 4, so the exact procedure is cheap.
    """
    current = {((1 << n) - 1, m) for m in minterms}
    primes: set = set()
    while current:
        nxt: set = set()
        combined: set = set()
        for care, val in current:
            for bit in range(n):
                b = 1 << bit
                if care & b and (care, val ^ b) in current:
                    nxt.add((care & ~b, val & ~b))
                    combined.add((care, val))
                    combined.add((care, val ^ b))
        primes |= current - combined
        current = nxt
    return sorted(primes)


@lru_cache(maxsize=None)
def _gate_clauses(n: int, tt: int) -> Tuple[Tuple[Tuple[int, bool], ...], ...]:
    """Clause templates for an n-input cell: entries (slot, polarity).

    Slots 0..n-1 are the input nets, slot n is the output net.  The
    encoding is prime-implicant based: every prime p of the ON-set gives
    (p -> out) and every prime q of the OFF-set gives (q -> NOT out).
    This is logically equivalent to the one-clause-per-minterm encoding
    but propagates better (arc consistency) with fewer, shorter clauses.
    """
    on = [m for m in range(1 << n) if (tt >> m) & 1]
    off = [m for m in range(1 << n) if not (tt >> m) & 1]
    clauses = []
    for primes, out_pol in ((_prime_implicants(on, n), True),
                            (_prime_implicants(off, n), False)):
        for care, val in primes:
            clause = [
                (i, not bool((val >> i) & 1))
                for i in range(n) if (care >> i) & 1
            ]
            clause.append((n, out_pol))
            clauses.append(tuple(clause))
    return tuple(clauses)


class _Instance:
    """One SAT instance under construction."""

    def __init__(self, circuit: Circuit, cells: Mapping[str, StandardCell]):
        self.circuit = circuit
        self.cells = cells
        self.solver = Solver()
        self._net_var: Dict[Tuple[str, str], int] = {}

    def var(self, net: str, copy: str = "g") -> int:
        """Variable of *net* in circuit copy *copy* ('g', 'f', '1')."""
        key = (net, copy)
        got = self._net_var.get(key)
        if got is None:
            got = self.solver.new_var()
            self._net_var[key] = got
            if net == CONST0:
                self.solver.add_clause([-got])
            elif net == CONST1:
                self.solver.add_clause([got])
        return got

    def encode_gate(self, gate_name: str, in_copy_of, out_copy: str) -> None:
        """Encode one gate; *in_copy_of(net) -> copy tag* selects shared
        vs. private input variables."""
        gate = self.circuit.gates[gate_name]
        cell = self.cells[gate.cell]
        slots = [
            self.var(gate.pins[p], in_copy_of(gate.pins[p]))
            for p in cell.input_pins
        ]
        slots.append(self.var(gate.output, out_copy))
        for template in _gate_clauses(cell.n_inputs, cell.tt):
            self.solver.add_clause(
                [slots[i] if pol else -slots[i] for i, pol in template]
            )

    def encode_good_cone(self, seed_nets: Sequence[str], copy: str = "g") -> Set[str]:
        """Encode the fanin cones of *seed_nets* in copy *copy*.

        Returns the set of nets encoded.  PIs get free variables.
        """
        circuit = self.circuit
        needed: Set[str] = set()
        stack = [n for n in seed_nets]
        gates: List[str] = []
        while stack:
            net = stack.pop()
            if net in needed:
                continue
            needed.add(net)
            drv = circuit.driver(net)
            if drv is not None:
                gates.append(drv)
                for in_net in circuit.gates[drv].pins.values():
                    stack.append(in_net)
        # Encode in topological order for determinism.
        index = {g: i for i, g in enumerate(circuit.topo_order())}
        for g in sorted(set(gates), key=lambda g: index[g]):
            self.encode_gate(g, lambda net: copy, copy)
        return needed

    def equal_clause(self, a: int, b: int) -> None:
        self.solver.add_clause([-a, b])
        self.solver.add_clause([a, -b])

    def miter(self, pos: Sequence[str]) -> bool:
        """Assert that some PO differs between good and faulty copies.

        Returns False when no PO is in the faulty cone (undetectable).
        """
        diff_lits: List[int] = []
        for po in pos:
            g = self.var(po, "g")
            f = self.var(po, "f")
            d = self.solver.new_var()
            self.solver.add_clause([-d, g, f])
            self.solver.add_clause([-d, -g, -f])
            diff_lits.append(d)
        if not diff_lits:
            return False
        self.solver.add_clause(diff_lits)
        return True


class EncodedProblem:
    """A built SAT instance plus the PI variable maps for test extraction."""

    def __init__(
        self,
        solver: Solver,
        frame2_pis: Dict[str, int],
        frame1_pis: Optional[Dict[str, int]],
        trivially_undetectable: bool = False,
    ):
        self.solver = solver
        self.frame2_pis = frame2_pis
        self.frame1_pis = frame1_pis
        self.trivially_undetectable = trivially_undetectable

    def solve(self) -> bool:
        if self.trivially_undetectable:
            return False
        return self.solver.solve()

    def extract_test(
        self, circuit: Circuit, fill=None
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(frame1, frame2) PI assignments from the model.

        PIs outside the encoded cones (and model don't-cares) take the
        value returned by ``fill(pi_name)`` (default 0) — any value
        works for detection; random fill improves incidental coverage.
        For single-frame faults, frame 1 repeats frame 2.
        """
        if fill is None:
            fill = lambda pi: 0  # noqa: E731 - tiny default

        def frame(pis: Optional[Dict[str, int]], fallback: Dict[str, int]):
            out: Dict[str, int] = {}
            for pi in circuit.inputs:
                var = (pis or {}).get(pi)
                val = None if var is None else self.solver.value_of(var)
                if val is None:
                    val = fallback[pi] if fallback else fill(pi)
                out[pi] = val
            return out

        v2 = frame(self.frame2_pis, {})
        v1 = frame(self.frame1_pis, v2) if self.frame1_pis is not None else dict(v2)
        return v1, v2


class DetectionEncoder:
    """Builds :class:`EncodedProblem` instances for each fault model."""

    def __init__(self, circuit: Circuit, cells: Mapping[str, StandardCell]):
        self.circuit = circuit
        self.cells = cells
        self._topo_index = {g: i for i, g in enumerate(circuit.topo_order())}

    # ------------------------------------------------------------------
    def encode(self, fault: Fault) -> EncodedProblem:
        if isinstance(fault, StuckAtFault):
            return self._encode_stuck_like(
                fault.net, fault.value, fault.branch, init_value=None
            )
        if isinstance(fault, TransitionFault):
            return self._encode_stuck_like(
                fault.net, fault.stuck_value, fault.branch,
                init_value=fault.initial_value,
            )
        if isinstance(fault, BridgingFault):
            return self._encode_bridge(fault)
        if isinstance(fault, CellAwareFault):
            return self._encode_cell_aware(fault)
        raise TypeError(type(fault).__name__)

    # ------------------------------------------------------------------
    def _affected(self, seed_gates: Sequence[str]) -> Tuple[List[str], List[str]]:
        """(affected gates topo-sorted, observable POs) from seed gates."""
        circuit = self.circuit
        cone: Set[str] = set()
        stack = list(seed_gates)
        while stack:
            g = stack.pop()
            if g in cone:
                continue
            cone.add(g)
            stack.extend(circuit.gate_fanout_gates(g))
        pos = [
            po for po in circuit.outputs
            if (drv := circuit.driver(po)) is not None and drv in cone
        ]
        ordered = sorted(cone, key=lambda g: self._topo_index[g])
        return ordered, pos

    def _trivial(self) -> EncodedProblem:
        return EncodedProblem(Solver(), {}, None, trivially_undetectable=True)

    def _pi_map(self, inst: _Instance, nets: Set[str], copy: str) -> Dict[str, int]:
        return {
            pi: inst._net_var[(pi, copy)]
            for pi in self.circuit.inputs
            if (pi, copy) in inst._net_var
        }

    def _encode_faulty_cone(
        self, inst: _Instance, affected: Sequence[str],
        forced_nets: Set[str],
    ) -> None:
        """Encode the faulty copies of *affected* gates.

        Nets in *forced_nets* already carry constrained 'f' variables and
        their driving gates are not re-encoded.
        """
        affected_out = {self.circuit.gates[g].output for g in affected}
        affected_out |= forced_nets

        def in_copy(net: str) -> str:
            return "f" if net in affected_out else "g"

        for g in affected:
            if self.circuit.gates[g].output in forced_nets:
                continue
            inst.encode_gate(g, in_copy, "f")

    # ------------------------------------------------------------------
    def _encode_stuck_like(
        self,
        net: str,
        stuck_value: int,
        branch: Optional[Tuple[str, str]],
        init_value: Optional[int],
    ) -> EncodedProblem:
        circuit = self.circuit
        inst = _Instance(circuit, self.cells)
        if branch is not None:
            gname, pin = branch
            gate = circuit.gates.get(gname)
            if gate is None or gate.pins.get(pin) != net:
                return self._trivial()
            affected, pos = self._affected([gname])
            if not pos:
                return self._trivial()
            good_nets = inst.encode_good_cone([net] + pos)
            # Faulty branch gate: input *pin* replaced by the constant.
            cell = self.cells[gate.cell]
            slots = []
            for p in cell.input_pins:
                if p == pin:
                    slots.append(None)
                else:
                    slots.append(inst.var(gate.pins[p], "g"))
            out_slot = inst.var(gate.output, "f")
            for template in _gate_clauses(cell.n_inputs, cell.tt):
                lits = []
                skip = False
                for i, pol in template:
                    if i < len(cell.input_pins) and slots[i] is None:
                        # Constant input: literal true -> clause satisfied,
                        # literal false -> drop it.
                        lit_true = (pol == bool(stuck_value))
                        if lit_true:
                            skip = True
                            break
                        continue
                    v = out_slot if i == len(cell.input_pins) else slots[i]
                    lits.append(v if pol else -v)
                if not skip:
                    inst.solver.add_clause(lits)
            forced = {gate.output}
            self._encode_faulty_cone(inst, affected, forced)
        else:
            if circuit.driver(net) is None and net not in circuit.inputs:
                return self._trivial()
            load_gates = [g for g, _p in circuit.loads(net)]
            affected, pos = self._affected(load_gates)
            if net in circuit.outputs:
                # A PO stem fault is observable at the PO itself.
                pos = [p for p in circuit.outputs if p in set(pos) | {net}]
            if not pos:
                return self._trivial()
            inst.encode_good_cone([net] + pos)
            fvar = inst.var(net, "f")
            inst.solver.add_clause([fvar if stuck_value else -fvar])
            self._encode_faulty_cone(inst, affected, {net})
            # Activation (implied, but prunes search): good site opposite.
            gvar = inst.var(net, "g")
            inst.solver.add_clause([-gvar if stuck_value else gvar])
        if not inst.miter(pos):
            return self._trivial()
        frame1_pis: Optional[Dict[str, int]] = None
        if init_value is not None:
            inst.encode_good_cone([net], copy="1")
            ivar = inst.var(net, "1")
            inst.solver.add_clause([ivar if init_value else -ivar])
            frame1_pis = self._pi_map(inst, set(), "1")
        return EncodedProblem(
            inst.solver, self._pi_map(inst, set(), "g"), frame1_pis,
        )

    # ------------------------------------------------------------------
    def _encode_bridge(self, fault: BridgingFault) -> EncodedProblem:
        circuit = self.circuit
        nets = circuit.nets()
        if fault.victim not in nets or fault.aggressor not in nets:
            return self._trivial()
        inst = _Instance(circuit, self.cells)
        load_gates = [g for g, _p in circuit.loads(fault.victim)]
        affected, pos = self._affected(load_gates)
        if fault.victim in circuit.outputs:
            pos = [
                p for p in circuit.outputs
                if p in set(pos) | {fault.victim}
            ]
        if not pos:
            return self._trivial()
        inst.encode_good_cone([fault.victim, fault.aggressor] + pos)
        inst.equal_clause(
            inst.var(fault.victim, "f"), inst.var(fault.aggressor, "g")
        )
        self._encode_faulty_cone(inst, affected, {fault.victim})
        # Activation: victim and aggressor differ in the good circuit.
        g_v = inst.var(fault.victim, "g")
        g_a = inst.var(fault.aggressor, "g")
        inst.solver.add_clause([g_v, g_a])
        inst.solver.add_clause([-g_v, -g_a])
        if not inst.miter(pos):
            return self._trivial()
        return EncodedProblem(inst.solver, self._pi_map(inst, set(), "g"), None)

    # ------------------------------------------------------------------
    def _encode_cell_aware(self, fault: CellAwareFault) -> EncodedProblem:
        circuit = self.circuit
        gate = circuit.gates.get(fault.gate)
        if gate is None:
            return self._trivial()
        cell = self.cells[gate.cell]
        defect = fault.defect
        inst = _Instance(circuit, self.cells)
        affected, pos = self._affected([fault.gate])
        if not pos:
            return self._trivial()
        inst.encode_good_cone(list(gate.pins.values()) + pos)
        n = cell.n_inputs
        in_vars = [inst.var(gate.pins[p], "g") for p in cell.input_pins]
        out_f = inst.var(gate.output, "f")
        out_g = inst.var(gate.output, "g")

        def match_neg_lits(vars_: Sequence[int], m: int) -> List[int]:
            """Literals falsifying (inputs == m), for implication clauses."""
            return [
                -vars_[i] if (m >> i) & 1 else vars_[i] for i in range(n)
            ]

        dynamic = bool(defect.floating)
        frame1_pis: Optional[Dict[str, int]] = None
        if dynamic:
            inst.encode_good_cone(list(gate.pins.values()), copy="1")
            in1_vars = [inst.var(gate.pins[p], "1") for p in cell.input_pins]
            retained = inst.solver.new_var()
            driven1 = inst.solver.new_var()
            for m, fval in enumerate(defect.faulty):
                neg1 = match_neg_lits(in1_vars, m)
                if fval is None:
                    inst.solver.add_clause(neg1 + [-driven1])
                else:
                    inst.solver.add_clause(neg1 + [driven1])
                    inst.solver.add_clause(
                        neg1 + [retained if fval else -retained]
                    )
            frame1_pis = self._pi_map(inst, set(), "1")
        for m, fval in enumerate(defect.faulty):
            neg2 = match_neg_lits(in_vars, m)
            if fval is not None:
                inst.solver.add_clause(neg2 + [out_f if fval else -out_f])
            elif dynamic and m in defect.floating:
                # Charge retention when frame 1 drove the node; no credit
                # (follow good) when it did not.
                inst.solver.add_clause(neg2 + [-driven1, -out_f, retained])
                inst.solver.add_clause(neg2 + [-driven1, out_f, -retained])
                inst.solver.add_clause(neg2 + [driven1, -out_f, out_g])
                inst.solver.add_clause(neg2 + [driven1, out_f, -out_g])
            else:
                # Unknown response: no detection credit.
                inst.solver.add_clause(neg2 + [-out_f, out_g])
                inst.solver.add_clause(neg2 + [out_f, -out_g])
        self._encode_faulty_cone(inst, affected, {gate.output})
        if not inst.miter(pos):
            return self._trivial()
        return EncodedProblem(
            inst.solver, self._pi_map(inst, set(), "g"), frame1_pis
        )
