"""``Synthesize()`` — the logic synthesis entry point of the paper.

Takes a mapped netlist (the extracted ``C_sub``), optimizes it as an AIG,
and re-maps it onto an *allowed subset* of the library.  The resynthesis
procedure calls this with shrinking cell subsets (excluding the cells with
the most internal DFM faults first).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.library.cell import StandardCell
from repro.library.osu018 import Library
from repro.netlist.circuit import Circuit
from repro.synthesis.aig import aig_from_circuit
from repro.synthesis.rewrite import balance, rewrite
from repro.synthesis.techmap import TechmapError, map_aig


def is_complete_subset(cells: Sequence[StandardCell]) -> bool:
    """True if *cells* can implement arbitrary combinational logic.

    Sufficient check: an inversion-capable cell (inverter, or NAND2/NOR2
    with tied pins) together with a 2-input AND-capable pattern (NAND2,
    NOR2, or AND2/OR2 plus inversion).  This implements eligibility rule
    (3) of Section III-B: cells ``cell_{i+1} .. cell_{m-1}`` must be
    sufficient for synthesizing ``C_sub``.
    """
    tts = {(c.n_inputs, c.tt) for c in cells}
    has_inv = (1, 0b01) in tts or (2, 0b0111) in tts or (2, 0b0001) in tts
    has_and2 = any(key in tts for key in [
        (2, 0b0111),  # NAND2
        (2, 0b0001),  # NOR2
        (2, 0b1000),  # AND2
        (2, 0b1110),  # OR2
    ])
    return has_inv and has_and2


def synthesize(
    circuit: Circuit,
    library: Library,
    allowed_cells: Optional[Sequence[str]] = None,
    objective: str = "area",
) -> Circuit:
    """Resynthesize *circuit* using only *allowed_cells* of *library*.

    PI/PO names are preserved so the result can be stitched back with
    :func:`repro.netlist.replace_subcircuit`.  Raises
    :class:`~repro.synthesis.techmap.TechmapError` when the allowed subset
    is insufficient.
    """
    cells = library.cells
    if allowed_cells is None:
        allowed: List[StandardCell] = list(library)
    else:
        unknown = [n for n in allowed_cells if n not in cells]
        if unknown:
            raise ValueError(f"unknown cells: {unknown}")
        allowed = [cells[n] for n in allowed_cells]
    if not allowed:
        raise TechmapError("empty allowed cell subset")
    aig = aig_from_circuit(circuit, cells).cleanup()
    aig = rewrite(balance(aig))
    return map_aig(aig, allowed, objective=objective, name=circuit.name)
