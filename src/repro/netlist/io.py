"""Structural netlist text format.

A deliberately simple line-oriented format::

    circuit adder
    input a b cin
    output sum cout
    gate U1 XOR2X1 A=a B=b > n1
    gate U2 XOR2X1 A=n1 B=cin > sum
    ...

``input``/``output`` lines may repeat and accumulate.  ``#`` starts a
comment.  Gate output nets follow the ``>`` marker; input pins are
``PIN=net`` pairs.

The format has one parser, :func:`repro.netlist.validate.
lint_netlist_text`, which records every problem as a coded, located
diagnostic.  :func:`parse_netlist` is its strict form: it raises the
first error, with its source location (``path:line:``), so a bad
netlist in a large campaign points straight at the offending line.
"""

from __future__ import annotations

from typing import List, Optional

from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.validate import lint_netlist_text


def write_netlist(circuit: Circuit) -> str:
    """Serialize *circuit* to the text format."""
    lines: List[str] = [f"circuit {circuit.name}"]
    if circuit.inputs:
        lines.append("input " + " ".join(circuit.inputs))
    if circuit.outputs:
        lines.append("output " + " ".join(circuit.outputs))
    for gname in circuit.topo_order():
        gate = circuit.gates[gname]
        pins = " ".join(f"{p}={n}" for p, n in sorted(gate.pins.items()))
        lines.append(f"gate {gname} {gate.cell} {pins} > {gate.output}")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str, path: Optional[str] = None) -> Circuit:
    """Parse the text format into a :class:`Circuit` (strict).

    *path* is only used to label error messages (``path:line: ...``);
    the text itself is always taken from *text*.  Returns the circuit of
    :func:`~repro.netlist.validate.lint_netlist_text` when its report
    holds no error, and otherwise raises the first error as a
    :class:`NetlistError` carrying its ``code``, ``path`` and ``line``.
    Warnings do not fail the parse.
    """
    circuit, report = lint_netlist_text(text, path=path)
    if report.ok:
        return circuit
    first = report.errors[0]
    raise NetlistError(
        f"{first.location}: {first.message}",
        code=first.code, path=path, line=first.line,
    )

