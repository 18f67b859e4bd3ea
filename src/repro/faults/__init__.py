"""Fault models, site enumeration, collapsing and fault simulation.

Fault taxonomy follows Section II of the paper: DFM guideline violations
translate into likely shorts and opens inside and outside cells, which are
modeled as stuck-at faults, transition faults, bridging faults and
cell-aware faults (UDFM).  Faults are *internal* (inside a standard cell)
or *external* (on gate pins/nets).
"""

from repro.faults.model import (
    BridgingFault,
    CellAwareFault,
    EXTERNAL,
    Fault,
    INTERNAL,
    StuckAtFault,
    TransitionFault,
    corresponding_gates,
)
from repro.faults.sites import FaultSet, enumerate_internal_faults
from repro.faults.collapse import collapse_faults
from repro.faults.fsim import fault_simulate

__all__ = [
    "BridgingFault",
    "CellAwareFault",
    "EXTERNAL",
    "Fault",
    "INTERNAL",
    "StuckAtFault",
    "TransitionFault",
    "corresponding_gates",
    "FaultSet",
    "enumerate_internal_faults",
    "collapse_faults",
    "fault_simulate",
]
