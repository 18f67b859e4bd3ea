"""Switch-level CMOS cell model.

A cell is a sequence of static CMOS *stages*.  Each stage has a pull-down
network (PDN) given as a series/parallel expression over signals; the
pull-up network (PUN) is the structural dual with PMOS devices.  Stage
inputs are cell input pins or outputs of earlier stages, so multi-stage
cells (BUF, AND, OR, XOR, MUX) are modeled exactly.

Evaluation is four-valued per node: ``0``, ``1``, ``Z`` (floating) and
``X`` (fight / unknown).  Defects are injected as transistor overrides
(stuck-open / stuck-on) or dominant node bridges, and the network is
re-evaluated per input minterm to obtain the cell's faulty truth table —
the switch-level simulation step of refs [7]-[9] of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

# Four-valued logic constants.
V0, V1, VZ, VX = 0, 1, 2, 3

# Three-valued conduction state of a transistor / network.
OFF, ON, MAYBE = 0, 1, 2


class Expr:
    """Series/parallel expression tree over signal literals."""

    __slots__ = ("op", "children", "signal")

    def __init__(self, op: str, children: Tuple["Expr", ...] = (), signal: str = ""):
        self.op = op  # "lit" | "s" | "p"
        self.children = children
        self.signal = signal

    def leaves(self, path: str = "") -> List[Tuple[str, "Expr"]]:
        """Return (path, leaf) pairs in deterministic order."""
        if self.op == "lit":
            return [(path or "0", self)]
        out: List[Tuple[str, Expr]] = []
        for i, child in enumerate(self.children):
            out.extend(child.leaves(f"{path}{i}" if path else str(i)))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == "lit":
            return self.signal
        sep = "*" if self.op == "s" else "+"
        return "(" + sep.join(repr(c) for c in self.children) + ")"


def lit(signal: str) -> Expr:
    """A single transistor gated by *signal*."""
    return Expr("lit", signal=signal)


def ser(*children: Expr) -> Expr:
    """Series composition (conducts when all children conduct)."""
    return Expr("s", tuple(children))


def par(*children: Expr) -> Expr:
    """Parallel composition (conducts when any child conducts)."""
    return Expr("p", tuple(children))


@dataclass(frozen=True)
class Stage:
    """One static CMOS stage: ``output = NOT(pdn)`` when fault-free."""

    output: str
    pdn: Expr


@dataclass
class SwitchNetwork:
    """A cell as an ordered list of static CMOS stages.

    ``inputs`` are the cell's input pins in minterm bit order (pin 0 is the
    least significant bit); the last stage's output is the cell output.
    """

    inputs: Tuple[str, ...]
    stages: Tuple[Stage, ...]

    @property
    def output(self) -> str:
        return self.stages[-1].output

    def transistor_ids(self) -> List[str]:
        """All transistor ids, e.g. ``"st0/1.n"`` (stage/path . n|p)."""
        ids: List[str] = []
        for si, stage in enumerate(self.stages):
            for path, _leaf in stage.pdn.leaves():
                ids.append(f"st{si}/{path}.n")
                ids.append(f"st{si}/{path}.p")
        return ids

    def transistor_count(self) -> int:
        return len(self.transistor_ids())

    def node_names(self) -> List[str]:
        """Stage output node names (internal nodes plus cell output)."""
        return [stage.output for stage in self.stages]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        minterm: int,
        overrides: Optional[Mapping[str, str]] = None,
        bridges: Sequence[Tuple[str, str]] = (),
    ) -> int:
        """Evaluate the cell output for one input *minterm*.

        *overrides* maps transistor ids to ``"open"`` or ``"on"``.
        *bridges* is a sequence of dominant bridges ``(victim, aggressor)``
        where the victim node takes the aggressor's value; node names are
        stage outputs, input pins, ``"VDD"`` or ``"GND"``.  Returns one of
        :data:`V0`, :data:`V1`, :data:`VZ`, :data:`VX`.
        """
        overrides = overrides or {}
        values: Dict[str, int] = {"VDD": V1, "GND": V0}
        for i, pin in enumerate(self.inputs):
            values[pin] = V1 if (minterm >> i) & 1 else V0
        bridge_by_victim = {v: a for v, a in bridges}
        # Input-pin bridges apply before any stage evaluates.
        for pin in self.inputs:
            if pin in bridge_by_victim:
                values[pin] = _resolve_bridge(values, pin, bridge_by_victim[pin])
        for si, stage in enumerate(self.stages):
            pd = _conduction(stage.pdn, values, overrides, f"st{si}/", nmos=True)
            pu = _conduction(stage.pdn, values, overrides, f"st{si}/", nmos=False)
            values[stage.output] = _stage_value(pu, pd)
            if stage.output in bridge_by_victim:
                values[stage.output] = _resolve_bridge(
                    values, stage.output, bridge_by_victim[stage.output]
                )
        return values[self.output]

    def good_tt(self) -> int:
        """Fault-free truth table (raises if any entry is not 0/1)."""
        tt = 0
        for m in range(1 << len(self.inputs)):
            v = self.evaluate(m)
            if v not in (V0, V1):
                raise ValueError(f"fault-free cell output is {v} at minterm {m}")
            tt |= v << m
        return tt


def _resolve_bridge(values: Mapping[str, int], victim: str, aggressor: str) -> int:
    """Dominant bridge: the victim node takes the aggressor's value."""
    val = values.get(aggressor)
    if val is None:
        raise ValueError(f"bridge aggressor {aggressor} not yet evaluated")
    return val


def _conduction(
    expr: Expr,
    values: Mapping[str, int],
    overrides: Mapping[str, str],
    prefix: str,
    nmos: bool,
    path: str = "",
) -> int:
    """Conduction state (OFF/ON/MAYBE) of a PDN (nmos) or dual PUN (pmos)."""
    if expr.op == "lit":
        tid = f"{prefix}{path or '0'}.{'n' if nmos else 'p'}"
        forced = overrides.get(tid)
        if forced == "open":
            return OFF
        if forced == "on":
            return ON
        sig = values.get(expr.signal)
        if sig is None:
            raise ValueError(f"unknown signal {expr.signal}")
        if sig == V1:
            return ON if nmos else OFF
        if sig == V0:
            return OFF if nmos else ON
        return MAYBE  # Z or X on a transistor gate
    # In the PUN dual, series and parallel swap.
    series = (expr.op == "s") if nmos else (expr.op != "s")
    states = [
        _conduction(c, values, overrides, prefix, nmos, f"{path}{i}" if path else str(i))
        for i, c in enumerate(expr.children)
    ]
    if series:
        if any(s == OFF for s in states):
            return OFF
        if all(s == ON for s in states):
            return ON
        return MAYBE
    if any(s == ON for s in states):
        return ON
    if all(s == OFF for s in states):
        return OFF
    return MAYBE


def _stage_value(pu: int, pd: int) -> int:
    """Combine pull-up / pull-down conduction into a node value."""
    if pu == ON and pd == OFF:
        return V1
    if pd == ON and pu == OFF:
        return V0
    if pu == OFF and pd == OFF:
        return VZ
    return VX
