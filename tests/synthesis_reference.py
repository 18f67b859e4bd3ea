"""Reference synthesis: ``Synthesize()`` as it stood before its memos.

The cut enumeration, truth-table helpers, AIG passes, match table and
mapper below are the implementations of :mod:`repro.synthesis.rewrite`,
:mod:`repro.synthesis.techmap` and :mod:`repro.synthesis.synthesize`
before the match table of an allowed cell subset was shared across
calls, the truth-table helpers were memoized and cuts were merged as
bitmasks, kept verbatim as the oracle for
``tests/test_synthesis_differential.py``.  ``aig_cleanup`` is
``Aig.cleanup`` of the same time, which rebuilt every AIG node by node;
the differential suite runs the reference pipeline with it in place of
the package's method.  Every call here builds its own
:class:`MatchTable` and recomputes every cut function's support, so it
is slower; do not use it outside tests.  The rest of the AIG class
(``repro.synthesis.aig``) and :class:`TechmapError` are shared with the
package.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.library.cell import StandardCell
from repro.library.osu018 import Library
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.synthesis.aig import (
    FALSE,
    Aig,
    aig_from_circuit,
    is_compl,
    lit_of,
    node_of,
)
from repro.synthesis.techmap import TechmapError

# --- repro/synthesis/aig.py: Aig.cleanup ----------------------------

def aig_cleanup(self: Aig) -> Aig:
    """Return a copy without dangling AND nodes."""
    mark = self.reachable_from_outputs()
    new = Aig(self.num_pis, self.pi_names)
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


# --- repro/synthesis/rewrite.py --------------------------------------

_CUT_SIZE = 4
_CUTS_PER_NODE = 8

# Standard simulation patterns for up-to-4-variable cut functions.
_VAR_PATTERNS = (0xAAAA, 0xCCCC, 0xF0F0, 0xFF00)
_TT_MASK = 0xFFFF


def balance(aig: Aig) -> Aig:
    """Depth-minimizing AND-tree balancing.

    Conjunctions are flattened through non-complemented AND edges and
    re-paired smallest-level-first, which minimizes the depth of each
    tree; structural hashing re-shares common subtrees.
    """
    new = Aig(aig.num_pis, aig.pi_names)
    remap: Dict[int, int] = {0: FALSE}
    for i in range(1, aig.num_pis + 1):
        remap[i] = lit_of(i)
    level: Dict[int, int] = {}

    def new_level(lit: int) -> int:
        return level.get(node_of(lit), 0)

    refs = aig.fanout_counts()

    def conjuncts(lit: int, depth: int) -> List[int]:
        """Flatten the conjunction rooted at *lit* (in the old graph)."""
        node = node_of(lit)
        fi = aig.fanins[node]
        # Stop at complemented edges, PIs, shared nodes, or depth cap.
        if is_compl(lit) or fi is None or refs[node] > 1 or depth >= 8:
            return [lit]
        return conjuncts(fi[0], depth + 1) + conjuncts(fi[1], depth + 1)

    for n in aig.and_nodes():
        f0, f1 = aig.fanins[n]  # type: ignore[misc]
        parts = conjuncts(f0, 1) + conjuncts(f1, 1)
        mapped = [remap[node_of(p)] ^ (1 if is_compl(p) else 0) for p in parts]
        heap: List[Tuple[int, int, int]] = [
            (new_level(m), i, m) for i, m in enumerate(mapped)
        ]
        heapq.heapify(heap)
        uid = len(mapped)
        while len(heap) > 1:
            l0, _, a = heapq.heappop(heap)
            l1, _, b = heapq.heappop(heap)
            lit = new.and_(a, b)
            level[node_of(lit)] = max(l0, l1) + 1
            heapq.heappush(heap, (level.get(node_of(lit), 0), uid, lit))
            uid += 1
        remap[n] = heap[0][2]
    for o, name in zip(aig.outputs, aig.output_names):
        new.add_output(remap[node_of(o)] ^ (1 if is_compl(o) else 0), name)
    return new.cleanup()


def enumerate_cuts(aig: Aig) -> List[List[Tuple[int, ...]]]:
    """K-feasible cuts per node (each cut a sorted tuple of leaf nodes).

    The trivial cut ``(n,)`` is always included and is always last.
    Dominated cuts (supersets of another cut) are pruned.
    """
    cuts: List[List[Tuple[int, ...]]] = [[] for _ in range(aig.num_nodes)]
    cuts[0] = [(0,)]
    for i in range(1, aig.num_pis + 1):
        cuts[i] = [(i,)]
    for n in aig.and_nodes():
        f0, f1 = aig.fanins[n]  # type: ignore[misc]
        c0s, c1s = cuts[node_of(f0)], cuts[node_of(f1)]
        seen: Dict[Tuple[int, ...], None] = {}
        for c0 in c0s:
            for c1 in c1s:
                merged = tuple(sorted(set(c0) | set(c1)))
                if len(merged) <= _CUT_SIZE:
                    seen.setdefault(merged, None)
        cand = sorted(seen, key=lambda c: (len(c), c))
        kept: List[Tuple[int, ...]] = []
        for c in cand:
            cs = set(c)
            if any(set(k) <= cs for k in kept):
                continue
            kept.append(c)
            if len(kept) >= _CUTS_PER_NODE:
                break
        kept.append((n,))
        cuts[n] = kept
    return cuts


def cut_tt(aig: Aig, root: int, cut: Tuple[int, ...]) -> int:
    """Truth table (16-bit, over cut leaves LSB-first) of *root*'s cone."""
    values: Dict[int, int] = {0: 0}
    for i, leaf in enumerate(cut):
        values[leaf] = _VAR_PATTERNS[i]

    def value(node: int) -> int:
        got = values.get(node)
        if got is not None:
            return got
        fi = aig.fanins[node]
        if fi is None:
            raise ValueError(f"node {node} is not covered by cut {cut}")
        f0, f1 = fi
        v0 = value(node_of(f0)) ^ (_TT_MASK if is_compl(f0) else 0)
        v1 = value(node_of(f1)) ^ (_TT_MASK if is_compl(f1) else 0)
        v = v0 & v1 & _TT_MASK
        values[node] = v
        return v

    return value(root)


def tt_support(tt: int, n: int) -> List[int]:
    """Indices of variables the n-variable function *tt* depends on."""
    out = []
    for i in range(n):
        shift = 1 << i
        moved = 0
        for m in range(1 << n):
            if not (m >> i) & 1:
                if ((tt >> m) & 1) != ((tt >> (m | shift)) & 1):
                    moved = 1
                    break
        if moved:
            out.append(i)
    return out


def shrink_tt(tt: int, n: int, support: List[int]) -> int:
    """Project *tt* onto its support variables (reindexed 0..k-1)."""
    k = len(support)
    out = 0
    for m in range(1 << k):
        full = 0
        for j, var in enumerate(support):
            if (m >> j) & 1:
                full |= 1 << var
        if (tt >> full) & 1:
            out |= 1 << m
    return out


def rewrite(aig: Aig) -> Aig:
    """Cut-based refactor: rebuild each node from a 4-cut truth table.

    The result is kept only if it has fewer AND nodes than the input
    (after cleanup); otherwise the cleaned input is returned.
    """
    base = aig.cleanup()
    cuts = enumerate_cuts(base)
    new = Aig(base.num_pis, base.pi_names)
    remap: Dict[int, int] = {0: FALSE}
    for i in range(1, base.num_pis + 1):
        remap[i] = lit_of(i)
    for n in base.and_nodes():
        best = None
        for cut in cuts[n]:
            if cut == (n,):
                continue
            tt = cut_tt(base, n, cut)
            sup = tt_support(tt, len(cut))
            leaves = [cut[i] for i in sup]
            stt = shrink_tt(tt, len(cut), sup)
            lit = new.from_tt(stt, [remap[leaf] for leaf in leaves])
            if best is None or lit < best:
                best = lit
                break  # first (smallest) cut is typically best; cheap pass
        if best is None:  # only the trivial cut: rebuild from fanins
            f0, f1 = base.fanins[n]  # type: ignore[misc]
            a = remap[node_of(f0)] ^ (1 if is_compl(f0) else 0)
            b = remap[node_of(f1)] ^ (1 if is_compl(f1) else 0)
            best = new.and_(a, b)
        remap[n] = best
    for o, name in zip(base.outputs, base.output_names):
        new.add_output(remap[node_of(o)] ^ (1 if is_compl(o) else 0), name)
    new = new.cleanup()
    return new if new.num_ands() < base.num_ands() else base


# --- repro/synthesis/techmap.py --------------------------------------

POS, NEG = 0, 1
_INF = float("inf")


@dataclass(frozen=True)
class _Match:
    cell: StandardCell
    # pin j of the cell connects to leaf pin_map[j] of the cut...
    pin_map: Tuple[int, ...]
    # ...in negative phase when bit j of neg_mask is set.
    neg_mask: int


class MatchTable:
    """Cell pattern matcher keyed by (number of leaves, truth table).

    Patterns cover all pin permutations and all input negation masks;
    2-input cells additionally register tied-pin (1-leaf) reductions so
    that inverter-free subsets containing NAND2/NOR2 stay complete.
    """

    def __init__(self, cells: Sequence[StandardCell]):
        self.cells = list(cells)
        self._table: Dict[Tuple[int, int], List[_Match]] = {}
        for cell in cells:
            n = cell.n_inputs
            if n > 4:
                continue
            for perm in permutations(range(n)):
                for neg in range(1 << n):
                    tt = _transform_tt(cell.tt, n, perm, neg)
                    self._add((n, tt), _Match(cell, tuple(perm), neg))
            if n == 2:
                for neg in (0b00, 0b11):
                    tt1 = _dup2_tt(cell.tt, neg)
                    self._add((1, tt1), _Match(cell, (0, 0), neg))

    def _add(self, key: Tuple[int, int], match: _Match) -> None:
        bucket = self._table.setdefault(key, [])
        # Keep at most a handful of alternatives per function, cheapest
        # area first and at most one per cell, to bound DP work.
        if any(m.cell.name == match.cell.name for m in bucket):
            return
        bucket.append(match)
        bucket.sort(key=lambda m: (m.cell.area, m.cell.name))
        del bucket[6:]

    def lookup(self, n_leaves: int, tt: int) -> List[_Match]:
        return self._table.get((n_leaves, tt), [])

    def inverter(self) -> Optional[_Match]:
        """Cheapest positive-leaf inverter realization, if any."""
        matches = [m for m in self.lookup(1, 0b01) if m.neg_mask == 0]
        if not matches:
            return None
        return min(matches, key=lambda m: m.cell.area)

    def identity(self) -> Optional[_Match]:
        """Cheapest positive-leaf buffer realization, if any."""
        matches = [m for m in self.lookup(1, 0b10) if m.neg_mask == 0]
        if not matches:
            return None
        return min(matches, key=lambda m: m.cell.area)


def _transform_tt(tt: int, n: int, perm: Sequence[int], neg: int) -> int:
    """Function over leaves when cell pin *j* takes leaf ``perm[j]``,
    negated when bit *j* of *neg* is set."""
    out = 0
    for leaf_minterm in range(1 << n):
        pin_minterm = 0
        for j in range(n):
            bit = (leaf_minterm >> perm[j]) & 1
            if (neg >> j) & 1:
                bit ^= 1
            if bit:
                pin_minterm |= 1 << j
        if (tt >> pin_minterm) & 1:
            out |= 1 << leaf_minterm
    return out


def _dup2_tt(tt: int, neg: int) -> int:
    """1-variable function of a 2-pin cell with both pins tied to one
    leaf (both plain for ``neg=0b00``, both negated for ``neg=0b11``)."""
    lo = tt & 1  # both pins 0
    hi = (tt >> 3) & 1  # both pins 1
    if neg:
        lo, hi = hi, lo
    return lo | (hi << 1)


@dataclass
class _Impl:
    cost: float
    arrival: float
    match: Optional[_Match]  # None => inverter patch or constant tie
    cut: Tuple[int, ...]  # () for constant ties
    const: Optional[int] = None  # 0/1 for constant ties


def map_aig(
    aig: Aig,
    cells: Sequence[StandardCell],
    objective: str = "area",
    name: str = "mapped",
) -> Circuit:
    """Cover *aig* with instances of *cells*; return a mapped netlist.

    PI and PO names of the AIG are preserved, every PO is driven by a gate
    (buffers are materialized for pass-through or constant outputs), and
    :class:`TechmapError` is raised if the subset is insufficient.
    """
    if objective not in ("area", "delay", "faults"):
        raise ValueError(f"unknown objective {objective!r}")

    def cell_cost(cell: StandardCell) -> float:
        if objective == "faults":
            # Minimize DFM internal fault sites; the flat per-gate term
            # accounts for the external fault sites each extra net
            # introduces, and the area term breaks ties.
            return cell.internal_fault_count + 2.5 + 0.02 * cell.area
        return cell.area

    table = MatchTable(cells)
    aig = aig.cleanup()
    cuts = enumerate_cuts(aig)
    refs = aig.fanout_counts()
    n_nodes = aig.num_nodes

    impl: List[List[Optional[_Impl]]] = [[None, None] for _ in range(n_nodes)]
    inv = table.inverter()
    inv_area = cell_cost(inv.cell) if inv else _INF
    inv_delay = (inv.cell.intrinsic_delay + inv.cell.drive_res * 4.0
                 if inv else _INF)

    for i in range(1, aig.num_pis + 1):
        impl[i][POS] = _Impl(0.0, 0.0, None, (i,))
        if inv:
            impl[i][NEG] = _Impl(inv_area, inv_delay, None, (i,))

    def leaf_cost(leaf: int, phase: int) -> Tuple[float, float]:
        got = impl[leaf][phase]
        if got is None:
            return _INF, _INF
        share = max(1, refs[leaf])
        return got.cost / share, got.arrival

    for node in aig.and_nodes():
        best: List[Optional[_Impl]] = [None, None]
        for cut in cuts[node]:
            if cut == (node,):
                continue
            tt = cut_tt(aig, node, cut)
            sup = tt_support(tt, len(cut))
            leaves = tuple(cut[i] for i in sup)
            stt = shrink_tt(tt, len(cut), sup)
            if not leaves:
                # Logically constant node: tie to a rail, no cell needed.
                for phase in (POS, NEG):
                    val = (stt & 1) ^ phase
                    cand = _Impl(0.0, 0.0, None, (), const=val)
                    if _better(cand, best[phase], objective):
                        best[phase] = cand
                continue
            full = (1 << (1 << len(leaves))) - 1
            for phase in (POS, NEG):
                want = stt if phase == POS else (~stt & full)
                for match in table.lookup(len(leaves), want):
                    cost = cell_cost(match.cell)
                    arr = 0.0
                    feasible = True
                    need = set()
                    for j, leaf_idx in enumerate(match.pin_map):
                        need.add((leaf_idx, (match.neg_mask >> j) & 1))
                    for leaf_idx, leaf_phase in need:
                        c, a = leaf_cost(leaves[leaf_idx], leaf_phase)
                        if c == _INF:
                            feasible = False
                            break
                        cost += c
                        arr = max(arr, a)
                    if not feasible:
                        continue
                    arr += (match.cell.intrinsic_delay
                            + match.cell.drive_res * 4.0)
                    cand = _Impl(cost, arr, match, leaves)
                    if _better(cand, best[phase], objective):
                        best[phase] = cand
        # Phase patching through an inverter.
        if inv:
            for phase in (POS, NEG):
                other = best[1 - phase]
                if other is not None:
                    cand = _Impl(other.cost + inv_area,
                                 other.arrival + inv_delay, None, (node,))
                    if _better(cand, best[phase], objective):
                        best[phase] = cand
        impl[node][POS], impl[node][NEG] = best[POS], best[NEG]

    # ------------------------------------------------------------------
    # Cover extraction.
    # ------------------------------------------------------------------
    circuit = Circuit(name)
    for pi in aig.pi_names:
        circuit.add_input(pi)
    # PO names are adopted by renaming after cover extraction; fresh
    # internal names must never collide with them.
    circuit.reserve_net_names(aig.output_names)
    nets: Dict[Tuple[int, int], str] = {(0, POS): CONST0, (0, NEG): CONST1}
    for i, pi in enumerate(aig.pi_names):
        nets[(i + 1, POS)] = pi

    def realize(node: int, phase: int) -> str:
        key = (node, phase)
        got = nets.get(key)
        if got is not None:
            return got
        chosen = impl[node][phase]
        if chosen is None:
            raise TechmapError(
                f"no implementation for node {node} phase {phase}"
            )
        if chosen.const is not None:
            net = CONST1 if chosen.const else CONST0
            nets[key] = net
            return net
        if chosen.match is None:
            # Inverter from the opposite phase (covers PI negation too).
            src = realize(node, 1 - phase)
            if inv is None:
                raise TechmapError("no inverter-capable cell in subset")
            net = circuit.fresh_net("m")
            pins = {pin: src for pin in inv.cell.input_pins}
            circuit.add_gate(circuit.fresh_gate("g"), inv.cell.name, pins, net)
            nets[key] = net
            return net
        match = chosen.match
        pins = {}
        for j, pin in enumerate(match.cell.input_pins):
            leaf = chosen.cut[match.pin_map[j]]
            leaf_phase = (match.neg_mask >> j) & 1
            pins[pin] = realize(leaf, leaf_phase)
        net = circuit.fresh_net("m")
        circuit.add_gate(circuit.fresh_gate("g"), match.cell.name, pins, net)
        nets[key] = net
        return net

    po_nets: List[str] = []
    for lit, po_name in zip(aig.outputs, aig.output_names):
        phase = NEG if is_compl(lit) else POS
        src = realize(node_of(lit), phase)
        drv = circuit.driver(src)
        if drv is not None and src not in circuit.outputs and src not in po_nets:
            # Rename the driving gate's output net to the PO name.
            _rename_net(circuit, src, po_name)
            for k, v in list(nets.items()):
                if v == src:
                    nets[k] = po_name
        else:
            # PI pass-through, constant, or net already claimed by another
            # PO: materialize an explicit identity stage.
            _drive_identity(circuit, table, src, po_name)
        po_nets.append(po_name)
    circuit.set_outputs(po_nets)
    circuit.validate()
    return circuit


def _better(cand: _Impl, cur: Optional[_Impl], objective: str) -> bool:
    if cur is None:
        return True
    if objective == "delay":
        return (cand.arrival, cand.cost) < (cur.arrival, cur.cost)
    return (cand.cost, cand.arrival) < (cur.cost, cur.arrival)


def _rename_net(circuit: Circuit, old: str, new: str) -> None:
    """Rename net *old* to *new* (driver and all loads)."""
    if old == new:
        return
    drv = circuit.driver(old)
    # Sorted: loads() is a set of str tuples, whose iteration order is
    # salted per process — gate re-insertion order must not be.
    loads = sorted(circuit.loads(old))
    gate = circuit.gates[drv]
    circuit.remove_gate(drv)
    for gname, pin in loads:
        g = circuit.gates[gname]
        circuit.remove_gate(gname)
        pins = dict(g.pins)
        pins[pin] = new
        circuit.add_gate(gname, g.cell, pins, g.output)
    circuit.add_gate(drv, gate.cell, gate.pins, new)


def _drive_identity(
    circuit: Circuit, table: MatchTable, src: str, dst: str
) -> None:
    """Add gate(s) so that net *dst* equals net *src*."""
    buf = table.identity()
    if buf is not None:
        pins = {pin: src for pin in buf.cell.input_pins}
        circuit.add_gate(circuit.fresh_gate("g"), buf.cell.name, pins, dst)
        return
    inv = table.inverter()
    if inv is None:
        raise TechmapError("subset has neither buffer nor inverter capability")
    mid = circuit.fresh_net("m")
    pins_a = {pin: src for pin in inv.cell.input_pins}
    circuit.add_gate(circuit.fresh_gate("g"), inv.cell.name, pins_a, mid)
    pins_b = {pin: mid for pin in inv.cell.input_pins}
    circuit.add_gate(circuit.fresh_gate("g"), inv.cell.name, pins_b, dst)


# --- repro/synthesis/synthesize.py -----------------------------------
def synthesize(
    circuit: Circuit,
    library: Library,
    allowed_cells: Optional[Sequence[str]] = None,
    objective: str = "area",
    effort: int = 1,
) -> Circuit:
    """Resynthesize *circuit* using only *allowed_cells* of *library*.

    PI/PO names are preserved so the result can be stitched back with
    :func:`repro.netlist.replace_subcircuit`.  Raises
    :class:`~repro.synthesis.techmap.TechmapError` when the allowed subset
    is insufficient.
    """
    cells = {c.name: c for c in library}
    if allowed_cells is None:
        allowed: List[StandardCell] = list(library)
    else:
        unknown = [n for n in allowed_cells if n not in cells]
        if unknown:
            raise ValueError(f"unknown cells: {unknown}")
        allowed = [cells[n] for n in allowed_cells]
    if not allowed:
        raise TechmapError("empty allowed cell subset")
    aig = aig_from_circuit(circuit, cells)
    aig = aig.cleanup()
    for _ in range(max(0, effort)):
        before = aig.num_ands()
        aig = rewrite(balance(aig))
        if aig.num_ands() >= before:
            break
    return map_aig(aig, allowed, objective=objective, name=circuit.name)
