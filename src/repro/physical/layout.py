"""Layout data model: placed gates, routed metal segments and vias.

Coordinates are in abstract *tracks* (one routing pitch).  Rows are
horizontal; a placed gate occupies ``width`` contiguous tracks in one row.
Routing uses two layers: ``M2`` for horizontal segments and ``M3`` for
vertical segments, with a via wherever a net changes layer or enters a
pin.  This is the geometry that the DFM guideline checker inspects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

M2 = "M2"  # horizontal
M3 = "M3"  # vertical


@dataclass(frozen=True)
class PlacedGate:
    """A gate placed at (x, y): x = leftmost track, y = row index."""

    name: str
    cell: str
    x: int
    y: int
    width: int

    @property
    def pin_x(self) -> int:
        """Track where the gate's pins connect (cell center)."""
        return self.x + self.width // 2


@dataclass(frozen=True)
class RouteSegment:
    """An axis-parallel wire piece on one metal layer."""

    net: str
    layer: str
    x1: int
    y1: int
    x2: int
    y2: int

    @property
    def length(self) -> int:
        return abs(self.x2 - self.x1) + abs(self.y2 - self.y1)

    @property
    def horizontal(self) -> bool:
        return self.y1 == self.y2


@dataclass(frozen=True)
class Via:
    """A layer-change (or pin access) cut at (x, y).

    ``owner`` identifies the (gate, pin) this via accesses when it is a
    sink-pin via; it is ``("<gate>", "<pin>")`` there, ``("<gate>", "")``
    for a driver-pin via, and ``None`` for bend vias on the net stem.
    """

    net: str
    x: int
    y: int
    lower: str
    upper: str
    owner: Tuple[str, str] | None = None


@dataclass
class Layout:
    """A placed-and-routed design on a fixed die."""

    die_width: int
    die_rows: int
    gates: Dict[str, PlacedGate] = field(default_factory=dict)
    segments: List[RouteSegment] = field(default_factory=list)
    vias: List[Via] = field(default_factory=list)

    def net_length(self, net: str) -> int:
        """Total routed wirelength of *net* in tracks."""
        return sum(s.length for s in self.segments if s.net == net)

    def net_lengths(self) -> Counter[str]:
        """Routed wirelength of every net in one pass over the segments.

        Equal to :meth:`net_length` for each net; a net without segments
        reads 0.
        """
        lengths: Counter[str] = Counter()
        for s in self.segments:
            lengths[s.net] += s.length
        return lengths

    def wirelength(self) -> int:
        """Total routed wirelength of the design."""
        return sum(s.length for s in self.segments)

    def utilization(self) -> float:
        """Fraction of die sites occupied by cells."""
        used = sum(g.width for g in self.gates.values())
        return used / float(self.die_width * self.die_rows)

    def row_occupancy(self) -> List[int]:
        """Occupied tracks per row."""
        occ = [0] * self.die_rows
        for g in self.gates.values():
            occ[g.y] += g.width
        return occ

    def check_legal(self) -> List[str]:
        """Return a list of placement legality violations (empty = legal)."""
        problems: List[str] = []
        by_row: Dict[int, List[PlacedGate]] = {}
        for g in self.gates.values():
            if g.y < 0 or g.y >= self.die_rows:
                problems.append(f"{g.name}: row {g.y} outside die")
                continue
            if g.x < 0 or g.x + g.width > self.die_width:
                problems.append(f"{g.name}: x span outside die")
            by_row.setdefault(g.y, []).append(g)
        for row, gs in by_row.items():
            gs.sort(key=lambda g: g.x)
            for a, b in zip(gs, gs[1:]):
                if a.x + a.width > b.x:
                    problems.append(
                        f"overlap in row {row}: {a.name} and {b.name}"
                    )
        return problems
