"""Gate-level circuit data model.

A :class:`Circuit` is a combinational network of single-output gates, each
an instance of a named standard cell.  The model deliberately knows nothing
about cell *functions* — those come from a cell provider (see
:class:`CellDef`), so the netlist layer has no dependency on the library
layer.

Two reserved net names, :data:`CONST0` and :data:`CONST1`, represent tie-low
and tie-high sources.  They are implicitly driven, carry no external faults,
and cost nothing in physical design.

The module also provides the two surgery primitives the paper's resynthesis
procedure is built on:

* :func:`extract_subcircuit` — pull the gates of ``C_sub`` (e.g. ``G_max``)
  out of ``C_all`` as a standalone circuit whose PIs/POs are the boundary
  nets shared with the rest of the design (Section III-B of the paper).
* :func:`replace_subcircuit` — stitch a resynthesized replacement back into
  the full design by boundary-net name.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Protocol, Sequence, Set, Tuple

CONST0 = "CONST0"
CONST1 = "CONST1"
_CONSTS = frozenset((CONST0, CONST1))


class NetlistError(Exception):
    """Raised on structurally invalid netlist operations.

    Parsers and loaders attach machine-matchable context where they can:
    ``code`` is a :mod:`repro.netlist.validate` diagnostic code (e.g.
    ``multi-driven-net``, ``undriven-net``, ``syntax``), ``path`` and
    ``line`` locate the offending source.  Errors raised directly by
    :class:`Circuit` mutation methods carry no context (``code`` is
    ``None``); the parsing layer wraps them.
    """

    def __init__(
        self,
        message: str,
        *,
        code: Optional[str] = None,
        path: Optional[str] = None,
        line: Optional[int] = None,
    ):
        super().__init__(message)
        self.code = code
        self.path = path
        self.line = line

    def diagnostic(self) -> object:
        """This error as a :class:`repro.netlist.validate.Diagnostic`."""
        from repro.netlist.validate import ERROR, Diagnostic

        return Diagnostic(
            code=self.code or "syntax", severity=ERROR,
            message=str(self), path=self.path, line=self.line,
        )


class CellDef(Protocol):
    """What the netlist layer needs to know about a standard cell.

    Provided by :class:`repro.library.cell.StandardCell`; any object with
    these attributes works.
    """

    name: str
    input_pins: Tuple[str, ...]
    output_pin: str
    tt: int  # truth table: bit m = output for input minterm m


class Gate:
    """A single-output standard-cell instance.

    ``pins`` maps input pin names to net names; ``output`` is the net driven
    by the cell's (single) output pin.
    """

    __slots__ = ("name", "cell", "pins", "output")

    def __init__(self, name: str, cell: str, pins: Dict[str, str], output: str):
        self.name = name
        self.cell = cell
        self.pins = dict(pins)
        self.output = output

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pins = " ".join(f"{p}={n}" for p, n in self.pins.items())
        return f"Gate({self.name} {self.cell} {pins} > {self.output})"


class Circuit:
    """A combinational gate-level netlist.

    Invariants (checked by :meth:`validate`):

    * every gate input net is a PI, a constant, or driven by exactly one gate;
    * every PO net is a PI or driven by a gate;
    * the gate graph is acyclic.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: Dict[str, Gate] = {}
        # net -> gate name driving it (PIs/consts are absent).
        self._driver: Dict[str, str] = {}
        # net -> set of (gate name, input pin) loads.
        self._loads: Dict[str, Set[Tuple[str, str]]] = {}
        self._topo: Optional[List[str]] = None
        self._uid = 0
        self._reserved: Set[str] = set()
        self._plan: Optional[object] = None  # simulator.CompiledCircuit

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare *name* as a primary input net."""
        if name in _CONSTS:
            raise NetlistError(f"{name} is reserved")
        if name in self.inputs:
            raise NetlistError(f"duplicate input {name}")
        if name in self._driver:
            raise NetlistError(f"input {name} is already driven by a gate")
        self.inputs.append(name)
        self._topo = None
        return name

    def add_gate(
        self, name: str, cell: str, pins: Dict[str, str], output: str
    ) -> Gate:
        """Instantiate cell *cell* as gate *name* driving net *output*."""
        if name in self.gates:
            raise NetlistError(f"duplicate gate {name}")
        if output in _CONSTS:
            raise NetlistError("cannot drive a constant net")
        if output in self._driver:
            raise NetlistError(f"net {output} already driven by {self._driver[output]}")
        if output in self.inputs:
            raise NetlistError(f"net {output} is a primary input")
        gate = Gate(name, cell, pins, output)
        self.gates[name] = gate
        self._driver[output] = name
        for pin, net in gate.pins.items():
            self._loads.setdefault(net, set()).add((name, pin))
        self._topo = None
        return gate

    def remove_gate(self, name: str) -> Gate:
        """Remove gate *name*; its output net becomes undriven."""
        gate = self.gates.pop(name)
        del self._driver[gate.output]
        for pin, net in gate.pins.items():
            self._loads[net].discard((name, pin))
            if not self._loads[net]:
                del self._loads[net]
        self._topo = None
        return gate

    def set_outputs(self, names: Sequence[str]) -> None:
        """Declare the ordered list of primary output nets."""
        seen = set()
        for n in names:
            if n in seen:
                raise NetlistError(f"duplicate output {n}")
            seen.add(n)
        self.outputs = list(names)
        self._topo = None

    def reserve_net_names(self, names: Iterable[str]) -> None:
        """Prevent :meth:`fresh_net` from generating any of *names*.

        Used when net names from another circuit (e.g. boundary nets of a
        host design) will be introduced later: fresh internal names must
        never collide with them.
        """
        self._reserved.update(names)

    def fresh_net(self, prefix: str = "n") -> str:
        """Return a net name not used anywhere in the circuit."""
        while True:
            self._uid += 1
            name = f"{prefix}_{self._uid}"
            if (name not in self._driver and name not in self.inputs
                    and name not in self._loads
                    and name not in self._reserved):
                return name

    def fresh_gate(self, prefix: str = "g") -> str:
        """Return a gate name not used in the circuit."""
        while True:
            self._uid += 1
            name = f"{prefix}_{self._uid}"
            if name not in self.gates:
                return name

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def driver(self, net: str) -> Optional[str]:
        """Gate name driving *net*, or None for PIs/constants/floating."""
        return self._driver.get(net)

    def loads(self, net: str) -> Set[Tuple[str, str]]:
        """Set of (gate, pin) pairs loading *net*."""
        return set(self._loads.get(net, ()))

    def nets(self) -> Set[str]:
        """All net names appearing in the circuit (excluding constants)."""
        out: Set[str] = set(self.inputs)
        out.update(self.outputs)
        out.update(self._driver)
        out.update(n for n in self._loads if n not in _CONSTS)
        return out

    def internal_nets(self) -> Set[str]:
        """Nets driven by gates, excluding primary outputs."""
        return set(self._driver) - set(self.outputs)

    def gate_fanin_gates(self, gate: str) -> Set[str]:
        """Gates directly driving *gate*'s input nets."""
        g = self.gates[gate]
        out = set()
        for net in g.pins.values():
            drv = self._driver.get(net)
            if drv is not None:
                out.add(drv)
        return out

    def gate_fanout_gates(self, gate: str) -> Set[str]:
        """Gates directly driven by *gate*'s output net."""
        g = self.gates[gate]
        return {gname for gname, _pin in self._loads.get(g.output, ())}

    def topo_order(self) -> List[str]:
        """Gate names in topological (fanin-before-fanout) order."""
        if self._topo is not None:
            return self._topo
        indeg: Dict[str, int] = {}
        for name, gate in self.gates.items():
            deg = 0
            for net in gate.pins.values():
                if net in self._driver:
                    deg += 1
            indeg[name] = deg
        ready = sorted(name for name, d in indeg.items() if d == 0)
        order: List[str] = []
        queue = list(ready)
        while queue:
            name = queue.pop()
            order.append(name)
            gate = self.gates[name]
            for gname, _pin in sorted(self._loads.get(gate.output, ())):
                indeg[gname] -= 1
                if indeg[gname] == 0:
                    queue.append(gname)
        if len(order) != len(self.gates):
            raise NetlistError("combinational cycle detected")
        self._topo = order
        return order

    def topology_token(self) -> object:
        """Identity token that changes whenever the gate graph mutates.

        The simulation plan a circuit keeps
        (:class:`repro.netlist.simulator.CompiledCircuit`) holds the token
        it was built against and compares it by identity: any
        :meth:`add_input` / :meth:`add_gate` / :meth:`remove_gate` /
        :meth:`set_outputs` resets the cached topo order, so a stale plan
        is detected in O(1).
        """
        return self.topo_order()

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates.values())

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`NetlistError` if any structural invariant fails."""
        for name, gate in self.gates.items():
            for pin, net in gate.pins.items():
                if net in _CONSTS or net in self.inputs:
                    continue
                if net not in self._driver:
                    raise NetlistError(f"gate {name} pin {pin}: net {net} undriven")
        for net in self.outputs:
            if net not in self._driver and net not in self.inputs:
                raise NetlistError(f"output net {net} undriven")
        self.topo_order()  # raises on cycles

    def clone(self, name: Optional[str] = None) -> "Circuit":
        """Return a deep structural copy of the circuit."""
        c = Circuit(name or self.name)
        for pi in self.inputs:
            c.add_input(pi)
        for gname in self.topo_order():
            gate = self.gates[gname]
            c.add_gate(gname, gate.cell, gate.pins, gate.output)
        c.set_outputs(self.outputs)
        c._uid = self._uid
        c._reserved = set(self._reserved)
        return c


def extract_subcircuit(
    circuit: Circuit, gate_names: Iterable[str], name: str = "sub"
) -> Circuit:
    """Extract the gates *gate_names* of *circuit* as a standalone circuit.

    The subcircuit's PIs are the nets feeding the selected gates from
    outside the selection (circuit PIs included; constants stay constant),
    and its POs are output nets of selected gates that either feed a gate
    outside the selection or are primary outputs of *circuit*.  Boundary net
    names are preserved so the result can be resynthesized and stitched back
    with :func:`replace_subcircuit`.
    """
    selected = set(gate_names)
    missing = selected - set(circuit.gates)
    if missing:
        raise NetlistError(f"unknown gates: {sorted(missing)[:5]}")
    sub = Circuit(name)
    pi_order: List[str] = []
    pi_seen: Set[str] = set()
    po: List[str] = []
    order = [g for g in circuit.topo_order() if g in selected]
    for gname in order:
        gate = circuit.gates[gname]
        for net in gate.pins.values():
            if net in _CONSTS or net in pi_seen:
                continue
            drv = circuit.driver(net)
            if drv is None or drv not in selected:
                pi_seen.add(net)
                pi_order.append(net)
    for net in pi_order:
        sub.add_input(net)
    for gname in order:
        gate = circuit.gates[gname]
        sub.add_gate(gname, gate.cell, gate.pins, gate.output)
        out = gate.output
        external_load = any(
            g not in selected for g, _pin in circuit.loads(out)
        )
        if external_load or out in circuit.outputs:
            po.append(out)
    sub.set_outputs(po)
    return sub


def replace_subcircuit(
    circuit: Circuit, gate_names: Iterable[str], replacement: Circuit
) -> Circuit:
    """Return a new circuit with *gate_names* replaced by *replacement*.

    *replacement* must drive, by name, every boundary output net that the
    removed gates drove toward the rest of the design, and may only use the
    boundary input nets (plus constants) as its PIs.  Internal nets and gate
    names of the replacement are freshened to avoid collisions.
    """
    selected = set(gate_names)
    result = circuit.clone()
    boundary_out: Set[str] = set()
    for gname in selected:
        gate = circuit.gates[gname]
        out = gate.output
        if out in circuit.outputs or any(
            g not in selected for g, _pin in circuit.loads(out)
        ):
            boundary_out.add(out)
    missing = boundary_out - set(replacement.outputs)
    if missing:
        raise NetlistError(
            f"replacement does not drive boundary nets: {sorted(missing)[:5]}"
        )
    for gname in selected:
        result.remove_gate(gname)
    available = set(result.inputs) | set(result._driver) | _CONSTS
    bad_pi = [n for n in replacement.inputs if n not in available]
    if bad_pi:
        raise NetlistError(f"replacement inputs not present in host: {bad_pi[:5]}")

    # Map replacement-internal nets/gates onto fresh host names.  Boundary
    # nets (replacement PIs and POs) keep their names.
    keep = set(replacement.inputs) | set(replacement.outputs) | _CONSTS
    net_map: Dict[str, str] = {}

    def host_net(net: str) -> str:
        if net in keep:
            return net
        if net not in net_map:
            net_map[net] = result.fresh_net("rs")
        return net_map[net]

    for gname in replacement.topo_order():
        gate = replacement.gates[gname]
        pins = {pin: host_net(net) for pin, net in gate.pins.items()}
        result.add_gate(result.fresh_gate("rs"), gate.cell, pins, host_net(gate.output))
    result.validate()
    return result
