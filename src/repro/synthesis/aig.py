"""And-Inverter Graph with structural hashing.

Literal encoding: node *n* in positive phase is literal ``2n``, in negative
phase ``2n + 1``.  Node 0 is constant false (so literal 1 is constant
true).  PIs are nodes ``1 .. num_pis``; AND nodes follow.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.circuit import CONST0, CONST1, CellDef, Circuit

FALSE = 0
TRUE = 1


def lit_of(node: int, complemented: bool = False) -> int:
    return 2 * node + (1 if complemented else 0)


def node_of(lit: int) -> int:
    return lit >> 1


def is_compl(lit: int) -> bool:
    return bool(lit & 1)


class Aig:
    """A combinational And-Inverter Graph.

    AND nodes are created through :meth:`and_`, which applies constant
    folding, idempotence/complement rules, canonical fanin ordering and
    structural hashing, so the graph never contains two identical ANDs.
    """

    def __init__(self, num_pis: int, pi_names: Optional[Sequence[str]] = None):
        self.num_pis = num_pis
        self.pi_names = list(pi_names) if pi_names else [
            f"i{k}" for k in range(num_pis)
        ]
        if len(self.pi_names) != num_pis:
            raise ValueError("pi_names length mismatch")
        # fanins[n] = (lit0, lit1) for AND nodes; PIs and const have None.
        self.fanins: List[Optional[Tuple[int, int]]] = [None] * (num_pis + 1)
        self._strash: Dict[Tuple[int, int], int] = {}
        self.outputs: List[int] = []  # literals
        self.output_names: List[str] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def pi_lit(self, index: int) -> int:
        """Literal for PI *index* (0-based)."""
        if not 0 <= index < self.num_pis:
            raise IndexError(index)
        return lit_of(index + 1)

    def and_(self, a: int, b: int) -> int:
        """AND of two literals with simplification and strashing."""
        if a > b:
            a, b = b, a
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a ^ b == 1:  # x AND NOT x
            return FALSE
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(self.fanins)
            self.fanins.append(key)
            self._strash[key] = node
        return lit_of(node)

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def mux_(self, sel: int, t: int, e: int) -> int:
        """``sel ? t : e``."""
        return self.or_(self.and_(sel, t), self.and_(sel ^ 1, e))

    def add_output(self, lit: int, name: str) -> None:
        self.outputs.append(lit)
        self.output_names.append(name)

    def from_tt(self, tt: int, input_lits: Sequence[int]) -> int:
        """Build a literal computing truth table *tt* over *input_lits*.

        Recursive Shannon decomposition on the last variable, with the
        base cases folding to constants/literals; strashing keeps shared
        subfunctions shared.
        """
        n = len(input_lits)
        size = 1 << n
        mask = (1 << size) - 1
        tt &= mask
        if tt == 0:
            return FALSE
        if tt == mask:
            return TRUE
        if n == 1:
            return input_lits[0] if tt == 0b10 else input_lits[0] ^ 1
        half = size >> 1
        lo_mask = (1 << half) - 1
        lo = self.from_tt(tt & lo_mask, input_lits[:-1])
        hi = self.from_tt(tt >> half, input_lits[:-1])
        return self.mux_(input_lits[-1], hi, lo)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total node count including constant and PIs."""
        return len(self.fanins)

    def and_nodes(self) -> range:
        return range(self.num_pis + 1, len(self.fanins))

    def num_ands(self) -> int:
        return len(self.fanins) - self.num_pis - 1

    def levels(self) -> List[int]:
        """Per-node logic depth (PIs at 0)."""
        lvl = [0] * len(self.fanins)
        for n in self.and_nodes():
            f0, f1 = self.fanins[n]  # type: ignore[misc]
            lvl[n] = 1 + max(lvl[node_of(f0)], lvl[node_of(f1)])
        return lvl

    def depth(self) -> int:
        if not self.outputs:
            return 0
        lvl = self.levels()
        return max(lvl[node_of(o)] for o in self.outputs)

    def fanout_counts(self) -> List[int]:
        """References per node from AND fanins and outputs."""
        refs = [0] * len(self.fanins)
        for n in self.and_nodes():
            f0, f1 = self.fanins[n]  # type: ignore[misc]
            refs[node_of(f0)] += 1
            refs[node_of(f1)] += 1
        for o in self.outputs:
            refs[node_of(o)] += 1
        return refs

    def reachable_from_outputs(self) -> List[bool]:
        """Mark nodes in the transitive fanin of any output."""
        mark = [False] * len(self.fanins)
        stack = [node_of(o) for o in self.outputs]
        while stack:
            n = stack.pop()
            if mark[n]:
                continue
            mark[n] = True
            fi = self.fanins[n]
            if fi is not None:
                stack.append(node_of(fi[0]))
                stack.append(node_of(fi[1]))
        return mark

    def simulate(self, pi_values: Sequence[int], mask: int) -> List[int]:
        """Bit-parallel simulation; returns per-node values."""
        if len(pi_values) != self.num_pis:
            raise ValueError("pi_values length mismatch")
        val = [0] * len(self.fanins)
        for i, v in enumerate(pi_values):
            val[i + 1] = v & mask
        for n in self.and_nodes():
            f0, f1 = self.fanins[n]  # type: ignore[misc]
            v0 = val[node_of(f0)] ^ (-1 if is_compl(f0) else 0)
            v1 = val[node_of(f1)] ^ (-1 if is_compl(f1) else 0)
            val[n] = v0 & v1 & mask
        return val

    def output_values(self, pi_values: Sequence[int], mask: int) -> List[int]:
        val = self.simulate(pi_values, mask)
        out = []
        for o in self.outputs:
            v = val[node_of(o)]
            if is_compl(o):
                v = ~v & mask
            out.append(v)
        return out

    def cleanup(self) -> "Aig":
        """Return a copy without dangling AND nodes.

        When no AND node dangles, the lists are copied as they are: the
        rebuild would re-create every node under its own number, since
        :meth:`and_` created each one unfolded and unshared.
        """
        mark = self.reachable_from_outputs()
        new = Aig(self.num_pis, self.pi_names)
        if all(mark[self.num_pis + 1:]):
            new.fanins = list(self.fanins)
            new._strash = dict(self._strash)
            new.outputs = list(self.outputs)
            new.output_names = list(self.output_names)
            return new
        remap: Dict[int, int] = {0: FALSE}
        for i in range(1, self.num_pis + 1):
            remap[i] = lit_of(i)
        for n in self.and_nodes():
            if not mark[n]:
                continue
            f0, f1 = self.fanins[n]  # type: ignore[misc]
            a = remap[node_of(f0)] ^ (1 if is_compl(f0) else 0)
            b = remap[node_of(f1)] ^ (1 if is_compl(f1) else 0)
            remap[n] = new.and_(a, b)
        for o, name in zip(self.outputs, self.output_names):
            lit = remap[node_of(o)] ^ (1 if is_compl(o) else 0)
            new.add_output(lit, name)
        return new


def aig_from_circuit(circuit: Circuit, cells: Mapping[str, CellDef]) -> Aig:
    """Convert a mapped netlist into an AIG (PI/PO names preserved)."""
    aig = Aig(len(circuit.inputs), list(circuit.inputs))
    net_lit: Dict[str, int] = {CONST0: FALSE, CONST1: TRUE}
    for i, pi in enumerate(circuit.inputs):
        net_lit[pi] = aig.pi_lit(i)
    for gname in circuit.topo_order():
        gate = circuit.gates[gname]
        cell = cells[gate.cell]
        ins = [net_lit[gate.pins[p]] for p in cell.input_pins]
        net_lit[gate.output] = aig.from_tt(cell.tt, ins)
    for po in circuit.outputs:
        aig.add_output(net_lit[po], po)
    return aig
