"""Gate-level netlist substrate.

Defines the :class:`~repro.netlist.circuit.Circuit` data model used by every
other subsystem, a bit-parallel logic simulator, subcircuit extraction and
replacement (the surgery primitives used by the resynthesis procedure), and
a human-readable structural netlist format.
"""

from repro.netlist.circuit import (
    CONST0,
    CONST1,
    CellDef,
    Circuit,
    Gate,
    NetlistError,
    extract_subcircuit,
    replace_subcircuit,
)
from repro.netlist.simulator import (
    CompiledCircuit,
    clear_compiled_cache,
    compile_cell_eval,
    simulate,
)
from repro.netlist.io import parse_netlist, write_netlist
from repro.netlist.validate import (
    Diagnostic,
    ValidationReport,
    lint_circuit,
    lint_netlist_text,
)

__all__ = [
    "CompiledCircuit",
    "clear_compiled_cache",
    "CONST0",
    "CONST1",
    "CellDef",
    "Circuit",
    "Gate",
    "NetlistError",
    "extract_subcircuit",
    "replace_subcircuit",
    "compile_cell_eval",
    "simulate",
    "parse_netlist",
    "write_netlist",
    "Diagnostic",
    "ValidationReport",
    "lint_circuit",
    "lint_netlist_text",
]
