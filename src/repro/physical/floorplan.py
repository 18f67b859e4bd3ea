"""Fixed-die floorplanning.

The paper keeps the die area of the resynthesized circuit identical to
the original design ("no increase in die area is allowed ... so as to
maintain the original floorplan"), with 70% core utilization for the
original physical design.  ``make_floorplan`` sizes a roughly square die
for the original netlist; the same :class:`Floorplan` is then reused for
every resynthesized version, and a version that does not fit is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.library.cell import StandardCell
from repro.netlist.circuit import Circuit

#: One placement site (track) corresponds to this much cell area.
AREA_PER_TRACK = 4.0

DEFAULT_UTILIZATION = 0.70


@dataclass(frozen=True)
class Floorplan:
    """A fixed die: *rows* placement rows of *width* tracks each."""

    width: int
    rows: int

    @property
    def capacity_tracks(self) -> int:
        return self.width * self.rows


def cell_tracks(cell: StandardCell) -> int:
    """Placement width of *cell* in tracks."""
    return max(1, round(cell.area / AREA_PER_TRACK))


def total_tracks(circuit: Circuit, cells: Mapping[str, StandardCell]) -> int:
    """Total placement tracks needed by *circuit*."""
    return sum(cell_tracks(cells[g.cell]) for g in circuit)


def make_floorplan(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    utilization: float = DEFAULT_UTILIZATION,
) -> Floorplan:
    """Size a roughly square fixed die for *circuit* at *utilization*."""
    if not 0.0 < utilization <= 1.0:
        raise ValueError(f"utilization {utilization} out of (0, 1]")
    need = total_tracks(circuit, cells) / utilization
    rows = max(2, round(math.sqrt(need / 8.0)))
    width = max(8, math.ceil(need / rows))
    return Floorplan(width=width, rows=rows)
