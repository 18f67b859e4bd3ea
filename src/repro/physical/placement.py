"""Row-based placement: topological seeding plus annealing refinement.

Gates are dealt into rows in topological order so connected logic lands
close together: each row takes gates until it reaches its fair share of
the total cell width (or the next gate would not fit), then the next
row starts.  Every row is packed left to right in its gates' order:
equal gaps of ``slack // (gates + 1)`` tracks before and between the
cells, the remainder of the slack after the last one.

A seeded simulated-annealing pass then proposes swapping two randomly
chosen gates and accepts by half-perimeter wirelength (HPWL) under a
geometric cooling schedule.  Gates, nets and primary-input pads are
indexed once per call, so a move works on integer indices alone:

* a swap of equal-width gates leaves both rows' fill and gap unchanged,
  so the two gates exchange coordinates and nothing else moves;
* a cross-row swap of unequal widths repacks both rows, and a rejected
  one restores the saved coordinates;
* a same-row swap of unequal widths, a self-swap and a swap that would
  overflow a row are skipped.

The output for a given seed rests on three invariants of the annealer:

* the move cost counts only the nets of the two swapped gates, although
  a repack also shifts the rest of both rows;
* a skipped move neither cools the temperature nor draws from the RNG;
* every move draws two gates as ``choice(range(n))`` would, and
  ``random()`` is drawn only for an uphill move (positive cost delta).

The two gate draws are inlined: each takes ``getrandbits(k)`` with
``k = n.bit_length()`` and draws again while the value is ``>= n``.
That is the rejection loop ``Random.choice`` runs for a ``range(n)``
(``_randbelow_with_getrandbits``, CPython 3.10-3.13), so the RNG stream,
and with it every layout, is the one ``choice`` would give; only the
two Python-level calls per draw are saved.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Set, Tuple

from repro.library.cell import StandardCell
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.physical.floorplan import Floorplan, cell_tracks
from repro.physical.layout import Layout, PlacedGate
from repro.utils.rng import make_rng


class PlacementError(Exception):
    """The circuit does not fit in the floorplan."""


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
    # Gates are indexed 0..n-1 in ``circuit.gates`` order.
    names = list(circuit.gates)
    n = len(names)
    index = {name: g for g, name in enumerate(names)}
    width = [cell_tracks(cells[circuit.gates[name].cell]) for name in names]
    half = [w // 2 for w in width]
    total = sum(width)
    if total > floorplan.capacity_tracks:
        raise PlacementError(
            f"{total} tracks needed, die has {floorplan.capacity_tracks}"
        )
    die_width = floorplan.width
    n_rows = floorplan.rows

    # --- initial placement: rows filled in topological order ------------
    rows: List[List[int]] = [[] for _ in range(n_rows)]
    fill = [0] * n_rows
    target_per_row = total / n_rows
    row = 0
    for gname in circuit.topo_order():
        g = index[gname]
        w = width[g]
        # Advance when the row reached its fair share and space remains
        # in later rows; never exceed physical row width.
        while row < n_rows - 1 and (
            fill[row] + w > die_width or fill[row] >= target_per_row
        ):
            row += 1
        if fill[row] + w > die_width:
            # Fall back to first row with space.
            for r in range(n_rows):
                if fill[r] + w <= die_width:
                    row = r
                    break
            else:
                raise PlacementError("row overflow during initial placement")
        rows[row].append(g)
        fill[row] += w

    # Pin coordinates (cell centre, row) of every gate, followed by one
    # fixed entry per primary-input pad on the die's left edge.
    pin_x = [0] * n
    pin_y = [0] * n
    slot = [0] * n

    def repack(r: int) -> None:
        """Recompute the pin x of row *r*, spreading slack evenly."""
        gs = rows[r]
        gap = (die_width - fill[r]) // (len(gs) + 1)
        x = gap
        for g in gs:
            pin_x[g] = x + half[g]
            x += width[g] + gap

    for r, gs in enumerate(rows):
        for s, g in enumerate(gs):
            pin_y[g] = r
            slot[g] = s
        repack(r)

    pad_of: Dict[str, int] = {}
    n_pi = max(1, len(circuit.inputs))
    for i, pi in enumerate(circuit.inputs):
        pad_of[pi] = len(pin_x)
        pin_x.append(0)
        pin_y.append((i * n_rows) // n_pi)

    # --- net index ------------------------------------------------------
    # Each net's pins: its driver gate (or its PI pad when undriven) and
    # its load gates.  A net with a single pin has HPWL 0 whatever the
    # placement, so it is left out of the gates' cost sets.
    net_id: Dict[str, int] = {}
    net_pins: List[Tuple[int, ...]] = []
    gate_nets: List[Set[int]] = []
    for name in names:
        gate = circuit.gates[name]
        nets = [n for n in gate.pins.values() if n not in (CONST0, CONST1)]
        nets.append(gate.output)
        ids: Set[int] = set()
        for net in nets:
            k = net_id.get(net)
            if k is None:
                k = net_id[net] = len(net_pins)
                drv = circuit.driver(net)
                if drv is not None:
                    pins = [index[drv]]
                elif net in pad_of:
                    pins = [pad_of[net]]
                else:
                    pins = []
                pins.extend(
                    sorted({index[ld] for ld, _pin in circuit.loads(net)}))
                net_pins.append(tuple(pins))
            if len(net_pins[k]) >= 2:
                ids.add(k)
        gate_nets.append(ids)

    def hpwl(nets: Set[int]) -> int:
        """Summed half-perimeter wirelength of *nets*."""
        cost = 0
        for k in nets:
            pins = net_pins[k]
            g = pins[0]
            lo_x = hi_x = pin_x[g]
            lo_y = hi_y = pin_y[g]
            for g in pins:
                x = pin_x[g]
                if x < lo_x:
                    lo_x = x
                elif x > hi_x:
                    hi_x = x
                y = pin_y[g]
                if y < lo_y:
                    lo_y = y
                elif y > hi_y:
                    hi_y = y
            cost += hi_x - lo_x + hi_y - lo_y
        return cost

    # --- annealing refinement ------------------------------------------
    rng = make_rng(seed)
    if n >= 2 and effort > 0:
        iters = effort * 12 * n
        temp = max(2.0, die_width / 4.0)
        cooling = math.exp(math.log(0.05 / temp) / max(1, iters))
        getrandbits, draw, exp = rng.getrandbits, rng.random, math.exp
        k = n.bit_length()
        for _ in range(iters):
            # rng.choice(range(n)), inlined: k random bits, redrawn
            # while they name no gate.
            a = getrandbits(k)
            while a >= n:
                a = getrandbits(k)
            b = getrandbits(k)
            while b >= n:
                b = getrandbits(k)
            if a == b:
                continue
            ra, rb = pin_y[a], pin_y[b]
            wa, wb = width[a], width[b]
            if wa != wb:
                if ra == rb:
                    continue  # same-row unequal swap would shift neighbours
                if (fill[ra] - wa + wb > die_width
                        or fill[rb] - wb + wa > die_width):
                    continue
            nets = gate_nets[a] | gate_nets[b]
            before = hpwl(nets)
            sa, sb = slot[a], slot[b]
            row_a, row_b = rows[ra], rows[rb]
            if wa == wb:
                # Row fill and gap unchanged: only a and b move.
                xa = pin_x[a]
                pin_x[a] = pin_x[b]
                pin_x[b] = xa
                pin_y[a], pin_y[b] = rb, ra
                delta = hpwl(nets) - before
                if delta <= 0 or draw() < exp(-delta / temp):
                    row_a[sa], row_b[sb] = b, a
                    slot[a], slot[b] = sb, sa
                else:
                    pin_x[b] = pin_x[a]
                    pin_x[a] = xa
                    pin_y[a], pin_y[b] = ra, rb
            else:
                # Cross-row, unequal widths: repack both rows; a rejected
                # move restores the saved coordinates.
                saved_a = [pin_x[g] for g in row_a]
                saved_b = [pin_x[g] for g in row_b]
                row_a[sa], row_b[sb] = b, a
                pin_y[a], pin_y[b] = rb, ra
                fill[ra] += wb - wa
                fill[rb] += wa - wb
                repack(ra)
                repack(rb)
                delta = hpwl(nets) - before
                if delta <= 0 or draw() < exp(-delta / temp):
                    slot[a], slot[b] = sb, sa
                else:
                    row_a[sa], row_b[sb] = a, b
                    pin_y[a], pin_y[b] = ra, rb
                    fill[ra] -= wb - wa
                    fill[rb] -= wa - wb
                    for g, x in zip(row_a, saved_a):
                        pin_x[g] = x
                    for g, x in zip(row_b, saved_b):
                        pin_x[g] = x
            temp *= cooling

    layout = Layout(die_width=die_width, die_rows=n_rows)
    for g, gname in enumerate(names):
        layout.gates[gname] = PlacedGate(
            name=gname, cell=circuit.gates[gname].cell,
            x=pin_x[g] - half[g], y=pin_y[g], width=width[g],
        )
    problems = layout.check_legal()
    if problems:
        raise PlacementError("; ".join(problems[:3]))
    return layout
