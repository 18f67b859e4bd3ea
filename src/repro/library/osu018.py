"""The 21-cell combinational library modeled on OSU 0.18um.

The paper synthesizes with "the standard cell library developed by OSU ...
based on TSMC 0.18um technology. This library contains 21 cells."  We model
the combinational subset exactly 21 cells strong: four inverter strengths,
two buffers, NAND2/3, NOR2/3, AND2 x2 strengths, OR2 x2 strengths, AOI21,
AOI22, OAI21, OAI22, XOR2, XNOR2 and MUX2.  (Sequential cells are not
needed: the paper's flow targets full-scan designs, so faults are handled
on the combinational logic.)

Electrical numbers are plausible for a 0.18um process and, more
importantly, internally consistent: larger drive strengths have lower
drive resistance, more area, more input capacitance — and more internal
DFM defect sites (more source/drain contacts per transistor), which is
the property the paper's resynthesis procedure exploits.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.library.cell import StandardCell
from repro.library.transistor import Stage, SwitchNetwork, lit, par, ser


class Library:
    """An ordered collection of standard cells.

    Iteration order is insertion order; the resynthesis procedure uses
    :meth:`order_by_internal_faults` to get the paper's ``cell_0 ..
    cell_{m-1}`` ordering (``cell_0`` carries the most internal faults).

    :attr:`cells` is the one read-only name -> cell mapping every caller
    passes on; simulation plans are cached per mapping identity, so
    sharing it lets PDesign, fault simulation and ATPG reuse one plan.
    """

    def __init__(self, name: str, cells: Iterable[StandardCell]):
        self.name = name
        self._cells: Dict[str, StandardCell] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise ValueError(f"duplicate cell {cell.name}")
            self._cells[cell.name] = cell
        self.cells: Mapping[str, StandardCell] = MappingProxyType(self._cells)

    def __getitem__(self, name: str) -> StandardCell:
        return self._cells[name]

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[StandardCell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def names(self) -> List[str]:
        return list(self._cells)

    def get(self, name: str) -> Optional[StandardCell]:
        return self._cells.get(name)

    def order_by_internal_faults(self) -> List[StandardCell]:
        """Cells sorted by internal DFM fault count, most faults first.

        This is the paper's ``cell_0, cell_1, ..., cell_{m-1}`` order: the
        resynthesis procedure excludes a growing prefix of this list.
        Ties break by area (larger first) then name for determinism.
        """
        return sorted(
            self._cells.values(),
            key=lambda c: (-c.internal_fault_count, -c.area, c.name),
        )

    def subset(self, names: Sequence[str]) -> "Library":
        """A new library restricted to *names* (order preserved)."""
        return Library(self.name, [self._cells[n] for n in names])


def _inv(name: str, drive: int, area: float, cap: float, res: float,
         intr: float, leak: float, flag_rate: int) -> StandardCell:
    net = SwitchNetwork(inputs=("A",), stages=(Stage("Y", lit("A")),))
    return StandardCell(name, ("A",), "Y", net, area, cap, res, intr, leak,
                        drive=drive, flag_rate=flag_rate)


def _buf(name: str, drive: int, area: float, cap: float, res: float,
         intr: float, leak: float, flag_rate: int) -> StandardCell:
    net = SwitchNetwork(
        inputs=("A",),
        stages=(Stage("n1", lit("A")), Stage("Y", lit("n1"))),
    )
    return StandardCell(name, ("A",), "Y", net, area, cap, res, intr, leak,
                        drive=drive, flag_rate=flag_rate)


def _simple(name: str, pins: Tuple[str, ...], pdn, area: float, cap: float,
            res: float, intr: float, leak: float, drive: int = 1,
            flag_rate: int = 60) -> StandardCell:
    net = SwitchNetwork(inputs=pins, stages=(Stage("Y", pdn),))
    return StandardCell(name, pins, "Y", net, area, cap, res, intr, leak,
                        drive=drive, flag_rate=flag_rate)


def _staged(name: str, pins: Tuple[str, ...], stages: Tuple[Stage, ...],
            area: float, cap: float, res: float, intr: float, leak: float,
            drive: int = 1, flag_rate: int = 64) -> StandardCell:
    net = SwitchNetwork(inputs=pins, stages=stages)
    return StandardCell(name, pins, "Y", net, area, cap, res, intr, leak,
                        drive=drive, flag_rate=flag_rate)


def osu018_library() -> Library:
    """Build the 21-cell OSU-0.18um-like combinational library.

    Per-cell ``flag_rate`` (the share of internal defect sites the DFM
    deck flags) grows with cell size and layout density: the small relaxed
    cells (INVX1, NAND2X1, NOR2X1) carry almost no DFM-flagged internal
    faults, while the large, dense, multi-stage cells carry many — the
    property the resynthesis procedure exploits.
    """
    cells: List[StandardCell] = [
        _inv("INVX1", 1, 8.0, 2.0, 2.00, 20.0, 0.5, flag_rate=10),
        _inv("INVX2", 2, 12.0, 4.0, 1.00, 22.0, 2.0, flag_rate=30),
        _inv("INVX4", 4, 20.0, 8.0, 0.50, 25.0, 4.0, flag_rate=45),
        _inv("INVX8", 8, 36.0, 16.0, 0.25, 30.0, 8.0, flag_rate=60),
        _buf("BUFX2", 2, 16.0, 2.0, 1.00, 60.0, 2.0, flag_rate=35),
        _buf("BUFX4", 4, 24.0, 2.0, 0.50, 70.0, 4.5, flag_rate=50),
        _simple("NAND2X1", ("A", "B"), ser(lit("A"), lit("B")),
                12.0, 2.0, 2.20, 30.0, 1.1, flag_rate=16),
        _simple("NAND3X1", ("A", "B", "C"), ser(lit("A"), lit("B"), lit("C")),
                16.0, 2.0, 2.60, 42.0, 2.6, flag_rate=45),
        _simple("NOR2X1", ("A", "B"), par(lit("A"), lit("B")),
                12.0, 2.0, 2.60, 35.0, 1.1, flag_rate=18),
        _simple("NOR3X1", ("A", "B", "C"), par(lit("A"), lit("B"), lit("C")),
                16.0, 2.0, 3.20, 50.0, 2.6, flag_rate=48),
        _staged("AND2X1", ("A", "B"),
                (Stage("n1", ser(lit("A"), lit("B"))), Stage("Y", lit("n1"))),
                16.0, 2.0, 2.00, 55.0, 2.2, flag_rate=36),
        _staged("AND2X2", ("A", "B"),
                (Stage("n1", ser(lit("A"), lit("B"))), Stage("Y", lit("n1"))),
                20.0, 2.0, 1.00, 60.0, 3.0, drive=2, flag_rate=52),
        _staged("OR2X1", ("A", "B"),
                (Stage("n1", par(lit("A"), lit("B"))), Stage("Y", lit("n1"))),
                16.0, 2.0, 2.00, 60.0, 2.2, flag_rate=36),
        _staged("OR2X2", ("A", "B"),
                (Stage("n1", par(lit("A"), lit("B"))), Stage("Y", lit("n1"))),
                20.0, 2.0, 1.00, 66.0, 3.0, drive=2, flag_rate=52),
        _simple("AOI21X1", ("A", "B", "C"),
                par(ser(lit("A"), lit("B")), lit("C")),
                18.0, 2.0, 2.80, 45.0, 3.2, flag_rate=58),
        _simple("AOI22X1", ("A", "B", "C", "D"),
                par(ser(lit("A"), lit("B")), ser(lit("C"), lit("D"))),
                24.0, 2.0, 3.00, 52.0, 4.4, flag_rate=68),
        _simple("OAI21X1", ("A", "B", "C"),
                ser(par(lit("A"), lit("B")), lit("C")),
                18.0, 2.0, 2.80, 45.0, 3.2, flag_rate=58),
        _simple("OAI22X1", ("A", "B", "C", "D"),
                ser(par(lit("A"), lit("B")), par(lit("C"), lit("D"))),
                24.0, 2.0, 3.00, 52.0, 4.4, flag_rate=68),
        _staged("XOR2X1", ("A", "B"),
                (
                    Stage("nA", lit("A")),
                    Stage("nB", lit("B")),
                    Stage("Y", par(ser(lit("A"), lit("B")),
                                   ser(lit("nA"), lit("nB")))),
                ),
                32.0, 3.0, 2.80, 75.0, 6.5, flag_rate=78),
        _staged("XNOR2X1", ("A", "B"),
                (
                    Stage("nA", lit("A")),
                    Stage("nB", lit("B")),
                    Stage("Y", par(ser(lit("A"), lit("nB")),
                                   ser(lit("nA"), lit("B")))),
                ),
                32.0, 3.0, 2.80, 75.0, 6.5, flag_rate=78),
        _staged("MUX2X1", ("A", "B", "S"),
                (
                    Stage("nS", lit("S")),
                    Stage("n1", par(ser(lit("S"), lit("B")),
                                    ser(lit("nS"), lit("A")))),
                    Stage("Y", lit("n1")),
                ),
                30.0, 3.0, 2.40, 70.0, 6.0, flag_rate=72),
    ]
    return Library("osu018", cells)
