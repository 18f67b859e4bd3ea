"""Static timing analysis on a placed-and-routed netlist.

Gate delay model: ``intrinsic + drive_res * (pin_caps + wire_cap)`` where
the wire capacitance is proportional to the routed length of the output
net.  Arrival times propagate topologically from PIs (arrival 0); the
critical path delay is the maximum PO arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.library.cell import StandardCell
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.physical.layout import Layout

#: Wire capacitance per routed track (fF/track).
WIRE_CAP_PER_TRACK = 0.4
#: Capacitive load of a primary output pad (fF).
PO_LOAD_CAP = 6.0


@dataclass(frozen=True)
class TimingReport:
    """Critical path delay and the path itself (as gate names)."""

    critical_path_delay: float
    critical_path: Tuple[str, ...]
    arrival: Mapping[str, float]  # net -> arrival time


def net_load_cap(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    wire_length: int,
    net: str,
) -> float:
    """Total capacitive load on *net*: sink pins + wire + PO pad.

    *wire_length* is the net's routed length in tracks (0 before
    routing); take it from one :meth:`Layout.net_lengths` pass.
    """
    cap = 0.0
    # Sorted: loads() iteration order is salted per process, and float
    # accumulation order must not leak into timing numbers.
    for gname, pin in sorted(circuit.loads(net)):
        cap += cells[circuit.gates[gname].cell].input_cap
    cap += WIRE_CAP_PER_TRACK * wire_length
    if net in circuit.outputs:
        cap += PO_LOAD_CAP
    return cap


def static_timing(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    layout: Layout,
) -> TimingReport:
    """Compute arrival times and the critical path of the routed
    *layout*."""
    arrival: Dict[str, float] = {CONST0: 0.0, CONST1: 0.0}
    from_gate: Dict[str, Optional[str]] = {}
    lengths = layout.net_lengths()
    for pi in circuit.inputs:
        arrival[pi] = 0.0
        from_gate[pi] = None
    for gname in circuit.topo_order():
        gate = circuit.gates[gname]
        cell = cells[gate.cell]
        in_arr = 0.0
        for net in gate.pins.values():
            in_arr = max(in_arr, arrival[net])
        load = net_load_cap(circuit, cells, lengths[gate.output], gate.output)
        arrival[gate.output] = in_arr + cell.intrinsic_delay + cell.drive_res * load
        from_gate[gate.output] = gname
    worst_net, worst = None, 0.0
    for po in circuit.outputs:
        if arrival[po] >= worst:
            worst, worst_net = arrival[po], po
    path: List[str] = []
    net = worst_net
    while net is not None:
        gname = from_gate.get(net)
        if gname is None:
            break
        path.append(gname)
        gate = circuit.gates[gname]
        # Follow the latest-arriving input.
        net = max(gate.pins.values(), key=lambda n: arrival[n], default=None)
        if net is not None and circuit.driver(net) is None:
            break
    return TimingReport(
        critical_path_delay=worst,
        critical_path=tuple(reversed(path)),
        arrival=arrival,
    )
