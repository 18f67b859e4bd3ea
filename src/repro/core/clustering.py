"""Clustering of undetectable faults (Section II of the paper).

Definitions implemented exactly as in the paper:

* a gate *corresponds to* an internal fault inside it, and to an external
  fault on its inputs or outputs (multiple gates for stem/bridge faults);
* two gates are *structurally adjacent* if one is directly driven by the
  other;
* two faults are *structurally adjacent* if they are located on the same
  gate or on two adjacent gates;
* the undetectable fault set U is partitioned into maximal subsets
  S_0, S_1, ... of (transitively) adjacent faults.

The partition is computed with a union-find over the faults: all faults
corresponding to one gate are merged, then faults across each
driver->load gate edge are merged — which yields exactly the fixpoint of
the paper's pairwise merge loop.  Every analysis clusters its U this way
from scratch, a resynthesis candidate's included: partitioning a few
hundred faults takes a few milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set

from repro.faults.model import Fault, INTERNAL, corresponding_gates
from repro.netlist.circuit import Circuit
from repro.utils.unionfind import UnionFind


@dataclass
class ClusterReport:
    """The cluster partition of the undetectable fault set U."""

    clusters: List[List[Fault]]  # sorted by size, largest first
    fault_gates: Dict[str, FrozenSet[str]]  # fault id -> corresponding gates

    @property
    def smax(self) -> List[Fault]:
        """S_max: the largest subset of adjacent undetectable faults."""
        return self.clusters[0] if self.clusters else []

    @property
    def gmax(self) -> Set[str]:
        """G_max: gates corresponding to all the faults in S_max."""
        gates: Set[str] = set()
        for fault in self.smax:
            gates.update(self.fault_gates[fault.fault_id])
        return gates

    @property
    def gates_u(self) -> Set[str]:
        """G_U: gates corresponding to all undetectable faults."""
        gates: Set[str] = set()
        for cluster in self.clusters:
            for fault in cluster:
                gates.update(self.fault_gates[fault.fault_id])
        return gates

    @property
    def n_undetectable(self) -> int:
        return sum(len(c) for c in self.clusters)

    def smax_internal(self) -> List[Fault]:
        """Internal faults within S_max (the paper's Smax_I)."""
        return [f for f in self.smax if f.origin == INTERNAL]

    def sizes(self) -> List[int]:
        return [len(c) for c in self.clusters]


def are_adjacent(fa: Fault, fb: Fault, circuit: Circuit) -> bool:
    """Paper definition: same gate, or two structurally adjacent gates."""
    ga = corresponding_gates(fa, circuit)
    gb = corresponding_gates(fb, circuit)
    if ga & gb:
        return True
    for g1 in ga:
        neighbours = circuit.gate_fanout_gates(g1) | circuit.gate_fanin_gates(g1)
        if neighbours & gb:
            return True
    return False


def cluster_undetectable(
    circuit: Circuit, undetectable: Sequence[Fault]
) -> ClusterReport:
    """Partition *undetectable* into subsets of adjacent faults."""
    fault_gates: Dict[str, FrozenSet[str]] = {
        f.fault_id: corresponding_gates(f, circuit) for f in undetectable
    }
    by_gate: Dict[str, List[Fault]] = {}
    uf: UnionFind = UnionFind()
    for fault in undetectable:
        uf.add(fault.fault_id)
        for g in fault_gates[fault.fault_id]:
            by_gate.setdefault(g, []).append(fault)
    # Merge all faults sharing a gate.
    for g, shared in by_gate.items():
        first = shared[0].fault_id
        for other in shared[1:]:
            uf.union(first, other.fault_id)
    # Merge across structurally adjacent gate pairs.
    for g, shared in by_gate.items():
        if g not in circuit.gates:
            continue
        rep = shared[0].fault_id
        for h in circuit.gate_fanout_gates(g):
            if h in by_gate:
                uf.union(rep, by_gate[h][0].fault_id)
    by_id = {f.fault_id: f for f in undetectable}
    clusters = [
        sorted((by_id[fid] for fid in group), key=lambda f: f.fault_id)
        for group in uf.groups()
    ]
    clusters.sort(key=lambda c: (-len(c), c[0].fault_id if c else ""))
    return ClusterReport(clusters=clusters, fault_gates=fault_gates)
