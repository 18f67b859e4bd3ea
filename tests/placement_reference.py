"""Reference placer: the annealing loop as it stood before indexing.

This is the original dict-and-list implementation of
:func:`repro.physical.placement.place`, kept verbatim as the oracle for
the differential suite in ``tests/test_placement_differential.py``: the
indexed placer must return an identical :class:`Layout` (same gate
order, coordinates, widths and cells) for every circuit, seed and
effort, and raise :class:`PlacementError` exactly where this one does.
It rebuilds every net's pin list through ``circuit.driver`` /
``circuit.loads`` for each cost evaluation and repacks both rows on
every attempted move, so it is several times slower; do not use it
outside tests.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Tuple

from repro.library.cell import StandardCell
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.physical.floorplan import Floorplan, cell_tracks
from repro.physical.layout import Layout, PlacedGate
from repro.physical.placement import PlacementError
from repro.utils.rng import make_rng


def place(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    floorplan: Floorplan,
    seed: int = 0,
    effort: int = 1,
) -> Layout:
    """Place *circuit* on *floorplan*; returns a legal :class:`Layout`.

    Raises :class:`PlacementError` when the cells cannot fit — the caller
    (the resynthesis flow) treats that as a die-area constraint violation.
    """
    widths = {g.name: cell_tracks(cells[g.cell]) for g in circuit}
    total = sum(widths.values())
    if total > floorplan.capacity_tracks:
        raise PlacementError(
            f"{total} tracks needed, die has {floorplan.capacity_tracks}"
        )

    # --- initial snake placement in topological order ------------------
    rows: List[List[str]] = [[] for _ in range(floorplan.rows)]
    row_fill = [0] * floorplan.rows
    order = circuit.topo_order()
    target_per_row = total / floorplan.rows
    row = 0
    for gname in order:
        w = widths[gname]
        # Advance when the row reached its fair share and space remains
        # in later rows; never exceed physical row width.
        while row < floorplan.rows - 1 and (
            row_fill[row] + w > floorplan.width
            or row_fill[row] >= target_per_row
        ):
            row += 1
        if row_fill[row] + w > floorplan.width:
            # Fall back to first row with space.
            for r in range(floorplan.rows):
                if row_fill[r] + w <= floorplan.width:
                    row = r
                    break
            else:
                raise PlacementError("row overflow during initial placement")
        rows[row].append(gname)
        row_fill[row] += w

    positions: Dict[str, Tuple[int, int]] = {}

    def repack_row(r: int) -> None:
        """Recompute x positions of row *r*, spreading slack evenly."""
        gs = rows[r]
        used = sum(widths[g] for g in gs)
        slack = floorplan.width - used
        gap = slack // (len(gs) + 1) if gs else 0
        x = gap
        for g in gs:
            positions[g] = (x, r)
            x += widths[g] + gap

    for r in range(floorplan.rows):
        repack_row(r)

    # --- pin position helpers ------------------------------------------
    # PIs sit on the die's left edge, evenly spread; constants are local.
    pi_pos: Dict[str, Tuple[int, int]] = {}
    n_pi = max(1, len(circuit.inputs))
    for i, pi in enumerate(circuit.inputs):
        pi_pos[pi] = (0, (i * floorplan.rows) // n_pi)

    def net_pins(net: str) -> List[Tuple[int, int]]:
        pins: List[Tuple[int, int]] = []
        drv = circuit.driver(net)
        if drv is not None:
            x, y = positions[drv]
            pins.append((x + widths[drv] // 2, y))
        elif net in pi_pos:
            pins.append(pi_pos[net])
        for gname, _pin in circuit.loads(net):
            x, y = positions[gname]
            pins.append((x + widths[gname] // 2, y))
        return pins

    def net_hpwl(net: str) -> int:
        pins = net_pins(net)
        if len(pins) < 2:
            return 0
        xs = [p[0] for p in pins]
        ys = [p[1] for p in pins]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def gate_nets(gname: str) -> List[str]:
        g = circuit.gates[gname]
        nets = [n for n in g.pins.values() if n not in (CONST0, CONST1)]
        nets.append(g.output)
        return nets

    # --- annealing refinement ------------------------------------------
    rng = make_rng(seed)
    names = list(circuit.gates)
    if len(names) >= 2 and effort > 0:
        iters = effort * 12 * len(names)
        temp = max(2.0, floorplan.width / 4.0)
        cooling = math.exp(math.log(0.05 / temp) / max(1, iters))
        row_of = {g: r for r in range(floorplan.rows) for g in rows[r]}
        for _ in range(iters):
            a = rng.choice(names)
            b = rng.choice(names)
            if a == b:
                continue
            ra, rb = row_of[a], row_of[b]
            if ra == rb and widths[a] != widths[b]:
                continue  # same-row unequal swap would shift neighbours
            if ra != rb:
                # Capacity check for cross-row swap.
                if (row_fill[ra] - widths[a] + widths[b] > floorplan.width or
                        row_fill[rb] - widths[b] + widths[a] > floorplan.width):
                    continue
            nets = set(gate_nets(a)) | set(gate_nets(b))
            before = sum(net_hpwl(n) for n in nets)
            ia, ib = rows[ra].index(a), rows[rb].index(b)
            rows[ra][ia], rows[rb][ib] = b, a
            row_of[a], row_of[b] = rb, ra
            if ra != rb:
                row_fill[ra] += widths[b] - widths[a]
                row_fill[rb] += widths[a] - widths[b]
            repack_row(ra)
            if rb != ra:
                repack_row(rb)
            after = sum(net_hpwl(n) for n in nets)
            delta = after - before
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                pass  # accept
            else:  # revert
                rows[ra][ia], rows[rb][ib] = a, b
                row_of[a], row_of[b] = ra, rb
                if ra != rb:
                    row_fill[ra] += widths[a] - widths[b]
                    row_fill[rb] += widths[b] - widths[a]
                repack_row(ra)
                if rb != ra:
                    repack_row(rb)
            temp *= cooling

    layout = Layout(die_width=floorplan.width, die_rows=floorplan.rows)
    for gname in names:
        x, y = positions[gname]
        layout.gates[gname] = PlacedGate(
            name=gname, cell=circuit.gates[gname].cell,
            x=x, y=y, width=widths[gname],
        )
    problems = layout.check_legal()
    if problems:
        raise PlacementError("; ".join(problems[:3]))
    return layout
