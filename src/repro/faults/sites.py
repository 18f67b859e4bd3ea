"""Fault set container and internal fault site enumeration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List

from repro.faults.model import CellAwareFault, Fault, INTERNAL
from repro.library.osu018 import Library
from repro.netlist.circuit import Circuit


@dataclass
class FaultSet:
    """The target fault set F of a designed circuit."""

    faults: List[Fault] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def add(self, fault: Fault) -> None:
        self.faults.append(fault)

    def extend(self, faults: Iterable[Fault]) -> None:
        self.faults.extend(faults)

    @property
    def internal(self) -> List[Fault]:
        return [f for f in self.faults if f.origin == INTERNAL]

    @property
    def external(self) -> List[Fault]:
        return [f for f in self.faults if f.origin != INTERNAL]

    def by_id(self) -> Dict[str, Fault]:
        return {f.fault_id: f for f in self.faults}

    def counts(self) -> Dict[str, int]:
        """Summary: total / internal / external fault counts."""
        n_int = len(self.internal)
        return {
            "total": len(self.faults),
            "internal": n_int,
            "external": len(self.faults) - n_int,
        }


def enumerate_internal_faults(
    circuit: Circuit, library: Library
) -> List[CellAwareFault]:
    """Internal DFM faults: every defect of every cell instance.

    Every instance of a cell introduces the same internal fault
    population (Section I of the paper) — the reason resynthesis toward
    cells with fewer internal faults reduces the fault set.  Fault ids
    are deterministic in (gate, defect), so two enumerations of the
    same gates give the same ids.
    """
    out: List[CellAwareFault] = []
    for gname in circuit.topo_order():
        gate = circuit.gates[gname]
        cell = library[gate.cell]
        for defect in cell.internal_defects():
            out.append(
                CellAwareFault(
                    fault_id=f"ca:{gname}:{defect.defect_id}",
                    guideline=defect.guideline,
                    gate=gname,
                    defect=defect,
                )
            )
    return out
