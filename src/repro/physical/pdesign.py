"""``PDesign()`` — the physical design entry point of the paper.

Runs placement and routing on a fixed floorplan, then timing and power
analysis, returning a :class:`PhysicalDesign` with the layout and the
three constraint metrics (delay, power, cell area).  The resynthesis
procedure compares these against the original design under the maximum
acceptable increase ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.library.cell import StandardCell
from repro.netlist.circuit import Circuit
from repro.physical.floorplan import Floorplan, make_floorplan, total_tracks
from repro.physical.layout import Layout
from repro.physical.placement import place
from repro.physical.power import PowerReport, power_analysis
from repro.physical.routing import route
from repro.physical.timing import TimingReport, static_timing


@dataclass
class PhysicalDesign:
    """A completed physical design with its constraint metrics."""

    circuit: Circuit
    floorplan: Floorplan
    layout: Layout
    timing: TimingReport
    power: PowerReport
    area_tracks: int

    @property
    def delay(self) -> float:
        return self.timing.critical_path_delay

    @property
    def total_power(self) -> float:
        return self.power.total

    def meets_constraints(
        self, reference: "PhysicalDesign", q_percent: float
    ) -> bool:
        """Paper's acceptance test: same die, delay/power within (1+q).

        Die area must not grow (the resynthesized circuit must fit the
        original floorplan); delay and power may exceed the reference by
        at most *q_percent* percent.
        """
        if self.floorplan != reference.floorplan:
            return False
        limit = 1.0 + q_percent / 100.0
        if self.delay > reference.delay * limit:
            return False
        if self.total_power > reference.total_power * limit:
            return False
        return True


def pdesign(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    floorplan: Optional[Floorplan] = None,
    seed: int = 0,
) -> PhysicalDesign:
    """Place, route and analyze *circuit*.

    With ``floorplan=None`` a new die is sized at the paper's 70%
    utilization (used for the original design); passing an existing
    floorplan reuses the fixed die (used for every resynthesized
    version).  Raises :class:`~repro.physical.placement.PlacementError`
    when the circuit does not fit the fixed die.
    """
    if floorplan is None:
        floorplan = make_floorplan(circuit, cells)
    layout = place(circuit, cells, floorplan, seed=seed)
    route(circuit, cells, layout)
    timing = static_timing(circuit, cells, layout)
    power = power_analysis(circuit, cells, layout, seed=seed)
    return PhysicalDesign(
        circuit=circuit,
        floorplan=floorplan,
        layout=layout,
        timing=timing,
        power=power,
        area_tracks=total_tracks(circuit, cells),
    )
