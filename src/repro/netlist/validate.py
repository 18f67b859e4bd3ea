"""Structural netlist linting with located, structured diagnostics.

:meth:`Circuit.validate` is the fail-fast integrity gate: it raises on
the first broken invariant.  This module is the *reporting* counterpart
used by the campaign runner's check of every circuit task (its
fingerprint hook) and by ``repro.runner check --netlist``: it walks the
whole circuit, collects **every** problem as a :class:`Diagnostic` with a
stable machine-readable code, the offending net/gate, and — when the
circuit came from a netlist file — the source line, so a user fixing a
hand-written benchmark sees all of its problems at once.

Two entry points:

* :func:`lint_circuit` — lint an already-constructed :class:`Circuit`
  (construction already guarantees single drivers, so the checks cover
  undriven nets, floating outputs, combinational loops, unknown cells,
  pin mismatches, and fanout/connectivity warnings);
* :func:`lint_netlist_text` — the one parser of the native text format
  (:mod:`repro.netlist.io`): it records syntax and construction errors
  (bad pin specs, duplicate gates, multi-driven nets, ...) as
  diagnostics instead of raising, skips the offending lines, and lints
  whatever circuit could still be built.  :func:`repro.netlist.io.
  parse_netlist` is its strict form, raising the first error.

Diagnostic codes are part of the tool's interface (tests and the runner
match on them):

``undriven-net``, ``floating-output``, ``multi-driven-net``,
``combinational-loop``, ``unknown-cell``, ``bad-pins``, ``syntax``
(errors) and ``dangling-net``, ``unused-input``, ``fanout-anomaly``
(warnings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.netlist.circuit import CONST0, CONST1, Circuit, NetlistError

_CONSTS = frozenset((CONST0, CONST1))

ERROR = "error"
WARNING = "warning"

# A net loaded by more pins than this is flagged as a fanout anomaly —
# far beyond what the OSU 0.18um cells drive in practice, so it almost
# always indicates a netlist-generation bug rather than a real design.
FANOUT_WARN_THRESHOLD = 64


@dataclass(frozen=True)
class Diagnostic:
    """One linting finding, locatable and machine-matchable.

    ``code`` is a stable kebab-case identifier; ``severity`` is
    :data:`ERROR` or :data:`WARNING`.  ``net``/``gate`` name the
    offending objects where applicable; ``line`` (1-based) and ``path``
    point into the source netlist when the circuit came from text.
    """

    code: str
    severity: str
    message: str
    net: Optional[str] = None
    gate: Optional[str] = None
    line: Optional[int] = None
    path: Optional[str] = None

    @property
    def location(self) -> str:
        """``path:line`` (``<netlist>`` without a path, no line if none)."""
        where = self.path or "<netlist>"
        if self.line is not None:
            where = f"{where}:{self.line}"
        return where

    def __str__(self) -> str:
        return f"{self.location}: {self.severity}: [{self.code}] {self.message}"


@dataclass
class ValidationReport:
    """All diagnostics of one lint run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when the circuit is usable (warnings do not fail it)."""
        return not self.errors

    def codes(self) -> Set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def render(self) -> str:
        """Human-readable multi-line summary (one line per diagnostic)."""
        if not self.diagnostics:
            return "clean: no problems found"
        lines = [str(d) for d in self.diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def _add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)


def _find_cycle(circuit: Circuit, stuck: Set[str]) -> List[str]:
    """One concrete gate cycle within *stuck* (gates Kahn couldn't order).

    Every gate in *stuck* has a fanin inside *stuck*, so walking fanin
    edges restricted to *stuck* must revisit a gate — the walk from that
    revisit onward is a cycle, returned in drive order.
    """
    start = sorted(stuck)[0]
    path: List[str] = []
    index: Dict[str, int] = {}
    g = start
    while g not in index:
        index[g] = len(path)
        path.append(g)
        g = sorted(h for h in circuit.gate_fanin_gates(g) if h in stuck)[0]
    cycle = path[index[g]:]
    cycle.reverse()  # fanin walk visits against the drive direction
    return cycle


def lint_circuit(
    circuit: Circuit,
    cells: Optional[Mapping[str, object]] = None,
    path: Optional[str] = None,
    gate_lines: Optional[Mapping[str, int]] = None,
    output_lines: Optional[Mapping[str, int]] = None,
    report: Optional[ValidationReport] = None,
) -> ValidationReport:
    """Collect every structural problem of *circuit* as diagnostics.

    *cells* (cell name -> :class:`~repro.netlist.circuit.CellDef`)
    enables the ``unknown-cell`` / ``bad-pins`` checks; without it only
    connectivity is linted.  *gate_lines* / *output_lines* map gate
    names and PO nets to their source lines for located diagnostics.
    Unlike :meth:`Circuit.validate` this never raises — a circuit with a
    combinational loop is fully linted, not aborted at ``topo_order``.
    """
    rep = report if report is not None else ValidationReport()
    gline = dict(gate_lines or {})
    oline = dict(output_lines or {})

    loaded: Set[str] = set()
    for name, gate in sorted(circuit.gates.items()):
        line = gline.get(name)
        for pin, net in sorted(gate.pins.items()):
            loaded.add(net)
            if net in _CONSTS or net in circuit.inputs:
                continue
            if circuit.driver(net) is None:
                rep._add(Diagnostic(
                    code="undriven-net", severity=ERROR,
                    message=(
                        f"net {net!r} feeding pin {pin} of gate {name!r} "
                        "has no driver"
                    ),
                    net=net, gate=name, line=line, path=path,
                ))
        if cells is not None:
            cell = cells.get(gate.cell)
            if cell is None:
                rep._add(Diagnostic(
                    code="unknown-cell", severity=ERROR,
                    message=(
                        f"gate {name!r} instantiates unknown cell "
                        f"{gate.cell!r}"
                    ),
                    gate=name, line=line, path=path,
                ))
            else:
                want = tuple(sorted(cell.input_pins))
                have = tuple(sorted(gate.pins))
                if want != have:
                    rep._add(Diagnostic(
                        code="bad-pins", severity=ERROR,
                        message=(
                            f"gate {name!r} ({gate.cell}) connects pins "
                            f"{list(have)}, cell defines {list(want)}"
                        ),
                        gate=name, line=line, path=path,
                    ))

    for net in circuit.outputs:
        if net not in _CONSTS and circuit.driver(net) is None \
                and net not in circuit.inputs:
            rep._add(Diagnostic(
                code="floating-output", severity=ERROR,
                message=f"primary output {net!r} has no driver",
                net=net, line=oline.get(net), path=path,
            ))

    # Combinational loops: Kahn elimination; whatever remains is cyclic.
    indeg: Dict[str, int] = {}
    for name, gate in circuit.gates.items():
        indeg[name] = sum(
            1 for net in gate.pins.values() if circuit.driver(net) is not None
        )
    queue = [n for n, d in indeg.items() if d == 0]
    ordered = 0
    while queue:
        name = queue.pop()
        ordered += 1
        # Relax one edge per load *pin*, mirroring the per-pin indegree
        # above — a gate tying two pins to the same net is not a cycle.
        for succ, _pin in circuit.loads(circuit.gates[name].output):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                queue.append(succ)
    stuck = {n for n, d in indeg.items() if d > 0}
    if stuck:
        cycle = _find_cycle(circuit, stuck)
        nets = [circuit.gates[g].output for g in cycle]
        rep._add(Diagnostic(
            code="combinational-loop", severity=ERROR,
            message=(
                "combinational loop through gates "
                f"{cycle} (nets {nets})"
            ),
            net=nets[0], gate=cycle[0],
            line=gline.get(cycle[0]), path=path,
        ))

    # Warnings: dead connectivity and implausible fanout.
    po = set(circuit.outputs)
    for name, gate in sorted(circuit.gates.items()):
        out = gate.output
        if out not in po and not circuit.loads(out):
            rep._add(Diagnostic(
                code="dangling-net", severity=WARNING,
                message=(
                    f"net {out!r} driven by gate {name!r} is neither "
                    "loaded nor a primary output"
                ),
                net=out, gate=name, line=gline.get(name), path=path,
            ))
    for pi in circuit.inputs:
        if pi not in loaded and pi not in po:
            rep._add(Diagnostic(
                code="unused-input", severity=WARNING,
                message=f"primary input {pi!r} drives nothing",
                net=pi, path=path,
            ))
    for net in sorted(circuit.nets()):
        n_loads = len(circuit.loads(net))
        if n_loads > FANOUT_WARN_THRESHOLD:
            rep._add(Diagnostic(
                code="fanout-anomaly", severity=WARNING,
                message=(
                    f"net {net!r} fans out to {n_loads} pins "
                    f"(threshold {FANOUT_WARN_THRESHOLD})"
                ),
                net=net, gate=circuit.driver(net), path=path,
            ))
    return rep


def lint_netlist_text(
    text: str,
    path: Optional[str] = None,
    cells: Optional[Mapping[str, object]] = None,
) -> Tuple[Optional[Circuit], ValidationReport]:
    """Recovering parse + lint of netlist *text*.

    A bad line does not abort the parse: it becomes a located diagnostic
    and the line is skipped, so one pass reports every problem in the
    file (:func:`repro.netlist.io.parse_netlist` raises the first
    error instead).  Returns the best-effort :class:`Circuit` (``None``
    only when no ``circuit`` header was found) together with the full
    report; the circuit is only trustworthy when ``report.ok``.
    """
    rep = ValidationReport()
    circuit: Optional[Circuit] = None
    outputs: List[str] = []
    gate_lines: Dict[str, int] = {}
    output_lines: Dict[str, int] = {}

    def syntax(lineno: int, message: str, **kw: object) -> None:
        rep._add(Diagnostic(
            code="syntax", severity=ERROR, message=message,
            line=lineno, path=path, **kw,  # type: ignore[arg-type]
        ))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "circuit":
            if len(tokens) != 2:
                syntax(lineno, "expected 'circuit <name>'")
            elif circuit is not None:
                syntax(lineno, "duplicate 'circuit' header")
            else:
                circuit = Circuit(tokens[1])
            continue
        if kind not in ("input", "output", "gate"):
            syntax(lineno, f"unknown directive {kind!r}")
            continue
        if circuit is None:
            syntax(lineno, "statement before 'circuit' header")
            continue
        if kind == "input":
            for name in tokens[1:]:
                try:
                    circuit.add_input(name)
                except NetlistError as exc:
                    # A redeclared input, or one naming a gate's output,
                    # is a second driver of the net.
                    driven = name in circuit.inputs \
                        or circuit.driver(name) is not None
                    rep._add(Diagnostic(
                        code="multi-driven-net" if driven else "syntax",
                        severity=ERROR, message=str(exc), net=name,
                        line=lineno, path=path,
                    ))
        elif kind == "output":
            for name in tokens[1:]:
                if name in output_lines:
                    syntax(lineno, f"duplicate output {name}", net=name)
                else:
                    output_lines[name] = lineno
                    outputs.append(name)
        else:
            _lint_gate_line(
                circuit, tokens, line, lineno, path, rep, gate_lines
            )

    if circuit is None:
        rep._add(Diagnostic(
            code="syntax", severity=ERROR,
            message="no 'circuit' line found", path=path,
        ))
        return None, rep
    circuit.set_outputs(outputs)  # duplicates already filtered above
    lint_circuit(
        circuit, cells=cells, path=path,
        gate_lines=gate_lines, output_lines=output_lines, report=rep,
    )
    return circuit, rep


def _lint_gate_line(
    circuit: Circuit,
    tokens: Sequence[str],
    line: str,
    lineno: int,
    path: Optional[str],
    rep: ValidationReport,
    gate_lines: Dict[str, int],
) -> None:
    """Parse one ``gate`` line, recording problems instead of raising."""
    def syntax(message: str, **kw: object) -> None:
        rep._add(Diagnostic(
            code="syntax", severity=ERROR, message=message,
            line=lineno, path=path, **kw,  # type: ignore[arg-type]
        ))

    if len(tokens) < 3 or ">" not in tokens:
        syntax(f"malformed 'gate' line: {line!r}")
        return
    name, cell = tokens[1], tokens[2]
    arrow = tokens.index(">")
    if arrow + 2 != len(tokens):
        syntax("expected single output net after '>'", gate=name)
        return
    pins: Dict[str, str] = {}
    for pair in tokens[3:arrow]:
        pin, _, net = pair.partition("=")
        if not net:
            syntax(f"bad pin spec {pair!r}", gate=name)
            return
        pins[pin] = net
    output = tokens[arrow + 1]
    try:
        circuit.add_gate(name, cell, pins, output)
    except NetlistError as exc:
        driven = circuit.driver(output) is not None \
            or output in circuit.inputs
        rep._add(Diagnostic(
            code="multi-driven-net" if driven else "syntax",
            severity=ERROR, message=str(exc),
            net=output if driven else None,
            gate=name, line=lineno, path=path,
        ))
        return
    gate_lines[name] = lineno
