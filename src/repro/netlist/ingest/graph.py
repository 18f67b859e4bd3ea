"""Format-neutral gate graph: the parsers' target, the lowerer's input.

Both foreign-format front ends (:mod:`repro.netlist.ingest.bench`,
:mod:`repro.netlist.ingest.verilog`) produce a :class:`NetGraph` — a flat
list of primitive-operator nodes plus declared PIs/POs, every element
tagged with its source line — instead of a :class:`~repro.netlist.
circuit.Circuit` directly.  That split buys three things:

* **link checking happens on the foreign names and lines**: duplicate
  signal definitions, undeclared fanins and floating outputs are
  reported as coded :class:`~repro.netlist.validate.Diagnostic` records
  pointing at the offending ``path:line`` of the *source* file, before
  any technology mapping obscures the correspondence;
* **full-scan conversion is a graph-level rewrite**: ISCAS-89 ``DFF``
  nodes are replaced by a scan input (the flop's Q net becomes a pseudo
  primary input) and a scan output (its D net becomes a pseudo primary
  output), matching the paper's full-scan premise that fault analysis
  sees only the combinational core;
* the **lowering onto standard cells** (:mod:`repro.netlist.ingest.
  lower`) is shared verbatim by every front end.

Operators are the usual structural primitives: ``AND OR NAND NOR XOR
XNOR NOT BUF DFF`` (any arity for the symmetric ones).  Constants are
the reserved nets :data:`~repro.netlist.circuit.CONST0` /
:data:`~repro.netlist.circuit.CONST1`, which may appear as node inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.netlist.circuit import CONST0, CONST1
from repro.netlist.validate import (
    ERROR,
    WARNING,
    Diagnostic,
    ValidationReport,
)

_CONSTS = frozenset((CONST0, CONST1))

#: Symmetric operators accepting two or more inputs (one input degrades
#: to BUF for AND/OR/XOR and NOT for NAND/NOR/XNOR).
VARIADIC_OPS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")
#: All operators a parser may emit.
OPS = VARIADIC_OPS + ("NOT", "BUF", "DFF")


@dataclass(frozen=True)
class Node:
    """One primitive operator driving one signal."""

    op: str
    output: str
    inputs: Tuple[str, ...]
    line: Optional[int] = None


@dataclass
class NetGraph:
    """A parsed foreign netlist, before technology mapping.

    ``report`` accumulates the parser's syntax diagnostics; *link* adds
    the cross-reference checks.  ``input_lines`` / ``output_lines``
    locate declarations for diagnostics that only surface later.
    """

    name: str
    path: Optional[str] = None
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    nodes: List[Node] = field(default_factory=list)
    report: ValidationReport = field(default_factory=ValidationReport)
    input_lines: Dict[str, int] = field(default_factory=dict)
    output_lines: Dict[str, int] = field(default_factory=dict)
    scan_cells: int = 0

    # ------------------------------------------------------------------
    def _diag(self, code: str, severity: str, message: str,
              line: Optional[int] = None, net: Optional[str] = None) -> None:
        self.report.diagnostics.append(Diagnostic(
            code=code, severity=severity, message=message,
            net=net, line=line, path=self.path,
        ))

    def add_input(self, net: str, line: Optional[int] = None) -> None:
        if net in self.input_lines:
            self._diag(
                "multi-driven-net", ERROR,
                f"signal {net!r} declared INPUT twice (first at line "
                f"{self.input_lines[net]})", line=line, net=net,
            )
            return
        self.input_lines[net] = line if line is not None else 0
        self.inputs.append(net)

    def add_output(self, net: str, line: Optional[int] = None) -> None:
        if net in self.output_lines:
            self._diag(
                "syntax", ERROR,
                f"signal {net!r} declared OUTPUT twice (first at line "
                f"{self.output_lines[net]})", line=line, net=net,
            )
            return
        self.output_lines[net] = line if line is not None else 0
        self.outputs.append(net)

    def add_node(self, op: str, output: str, inputs: Tuple[str, ...],
                 line: Optional[int] = None) -> None:
        self.nodes.append(Node(op, output, inputs, line))

    # ------------------------------------------------------------------
    def link(self) -> ValidationReport:
        """Cross-reference the graph; append link diagnostics to report.

        Checks (all located at the *referencing* source line):

        * ``multi-driven-net`` — a signal defined by two nodes, or by a
          node and an INPUT declaration;
        * ``undriven-net`` — a node input that is neither a constant,
          a declared INPUT, nor any node's output;
        * ``floating-output`` — a declared OUTPUT no node defines;
        * ``dangling-net`` (warning) — a defined signal that nothing
          references and that is not an OUTPUT;
        * ``unused-input`` (warning) — an INPUT nothing references.
        """
        defined: Dict[str, Node] = {}
        for node in self.nodes:
            prior = defined.get(node.output)
            if prior is not None:
                self._diag(
                    "multi-driven-net", ERROR,
                    f"signal {node.output!r} defined twice "
                    f"(first at line {prior.line})",
                    line=node.line, net=node.output,
                )
                continue
            if node.output in self.input_lines:
                self._diag(
                    "multi-driven-net", ERROR,
                    f"signal {node.output!r} is an INPUT and is also "
                    f"defined by a gate (INPUT at line "
                    f"{self.input_lines[node.output]})",
                    line=node.line, net=node.output,
                )
                continue
            defined[node.output] = node

        referenced: Set[str] = set()
        known = set(self.input_lines) | set(defined) | _CONSTS
        for node in self.nodes:
            for net in node.inputs:
                referenced.add(net)
                if net not in known:
                    self._diag(
                        "undriven-net", ERROR,
                        f"signal {net!r} read by the definition of "
                        f"{node.output!r} is never defined",
                        line=node.line, net=net,
                    )
        for net in self.outputs:
            referenced.add(net)
            if net not in known:
                self._diag(
                    "floating-output", ERROR,
                    f"OUTPUT {net!r} is never defined",
                    line=self.output_lines.get(net), net=net,
                )

        po = set(self.outputs)
        for net, node in defined.items():
            if net not in referenced and net not in po:
                self._diag(
                    "dangling-net", WARNING,
                    f"signal {net!r} is defined but never used",
                    line=node.line, net=net,
                )
        for net in self.inputs:
            if net not in referenced and net not in po:
                self._diag(
                    "unused-input", WARNING,
                    f"INPUT {net!r} drives nothing",
                    line=self.input_lines.get(net), net=net,
                )
        return self.report

    # ------------------------------------------------------------------
    def scan_convert(self) -> "NetGraph":
        """Replace every ``DFF`` with a scan input / scan output pair.

        The paper's flow targets full-scan designs: in test mode every
        flop is directly controllable and observable through the scan
        chain, so for fault analysis the flop's Q pin is a pseudo
        primary input and its D pin a pseudo primary output.  Returns
        ``self`` unchanged when the graph is purely combinational.
        """
        flops = [n for n in self.nodes if n.op == "DFF"]
        if not flops:
            return self
        out = NetGraph(
            self.name, path=self.path,
            inputs=list(self.inputs), outputs=list(self.outputs),
            report=self.report,
            input_lines=dict(self.input_lines),
            output_lines=dict(self.output_lines),
            scan_cells=len(flops),
        )
        out.nodes = [n for n in self.nodes if n.op != "DFF"]
        for flop in flops:
            # Q becomes a controllable pseudo-PI...
            if flop.output not in out.input_lines:
                out.input_lines[flop.output] = flop.line or 0
                out.inputs.append(flop.output)
            # ...and D an observable pseudo-PO (unless already a PO).
            for d_net in flop.inputs[:1]:
                if d_net not in out.output_lines:
                    out.output_lines[d_net] = flop.line or 0
                    out.outputs.append(d_net)
        return out
