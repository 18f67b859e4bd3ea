"""Bit-parallel logic simulation.

Net values are Python integers used as arbitrary-width bit vectors: bit *i*
of a net's value is the net's logic value under pattern *i*.  A single pass
over the circuit therefore simulates as many patterns as the word width,
which is what makes Python-side fault simulation practical.

Cell functions are given as truth tables (bit *m* of ``tt`` is the output
for input minterm *m*, with ``input_pins[0]`` as the least significant bit).
For speed, each (arity, tt) pair is compiled once into a Python lambda in
sum-of-products (or product-of-sums, whichever is smaller) form and cached.

:class:`CompiledCircuit` hoists every per-gate cost out of the simulation
loops: nets are mapped to dense integer indices, each gate's evaluator is
resolved exactly once, and load/PO structure is precomputed.  Plans are
cached per circuit (invalidated automatically when the circuit mutates),
so repeated simulation of the same design — the normal case inside the
resynthesis loop — pays the compile cost once.
"""

from __future__ import annotations

import threading
import weakref
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.netlist.circuit import CONST0, CONST1, CellDef, Circuit, NetlistError

Evaluator = Callable[..., int]

# Bound of the global (n_inputs, truth_table) -> evaluator cache.  Real
# libraries have a few dozen distinct cell functions, so the bound only
# matters for adversarial workloads (e.g. fuzzing over random truth
# tables) where an unbounded cache is a slow leak.
EVAL_CACHE_SIZE = 1024


@lru_cache(maxsize=EVAL_CACHE_SIZE)
def compile_cell_eval(n_inputs: int, tt: int) -> Evaluator:
    """Compile a truth table into a bitwise evaluator.

    The returned callable takes ``n_inputs`` integer bit vectors followed by
    a ``mask`` keyword-only-by-position final argument and returns the output
    bit vector (already masked).
    """
    if n_inputs == 0:
        if tt & 1:
            return lambda mask: mask
        return lambda mask: 0
    size = 1 << n_inputs
    if tt >= (1 << size) or tt < 0:
        raise ValueError(f"truth table 0x{tt:x} out of range for {n_inputs} inputs")
    minterms = [m for m in range(size) if (tt >> m) & 1]
    use_complement = len(minterms) > size // 2
    terms = (
        [m for m in range(size) if not (tt >> m) & 1] if use_complement else minterms
    )
    args = [f"v{i}" for i in range(n_inputs)]

    def term_expr(m: int) -> str:
        lits = []
        for i in range(n_inputs):
            lits.append(args[i] if (m >> i) & 1 else f"~{args[i]}")
        return "(" + " & ".join(lits) + ")"

    if not terms:
        body = "0" if not use_complement else "mask"
    else:
        sop = " | ".join(term_expr(m) for m in terms)
        body = f"~({sop}) & mask" if use_complement else f"({sop}) & mask"
    src = f"lambda {', '.join(args)}, mask: {body}"
    return eval(src)  # noqa: S307 - source is generated from integers only


def _bind_gate_eval(fn: Evaluator, ins: Tuple[int, ...]) -> Callable:
    """Specialize a cell evaluator to one gate's input net indices.

    The returned closure takes ``(values, mask)`` and indexes the value
    vector directly — the event loop avoids building an argument list
    and unpacking it per evaluation.  Common arities are unrolled.
    """
    n = len(ins)
    if n == 1:
        a, = ins
        return lambda v, mask: fn(v[a], mask)
    if n == 2:
        a, b = ins
        return lambda v, mask: fn(v[a], v[b], mask)
    if n == 3:
        a, b, c = ins
        return lambda v, mask: fn(v[a], v[b], v[c], mask)
    if n == 4:
        a, b, c, d = ins
        return lambda v, mask: fn(v[a], v[b], v[c], v[d], mask)
    return lambda v, mask: fn(*[v[i] for i in ins], mask)


class CompiledCircuit:
    """A circuit prepared for repeated simulation.

    Nets are assigned dense indices (``CONST0`` = 0, ``CONST1`` = 1, then
    primary inputs, then gate outputs in topological order), and per-gate
    evaluators/pin indices are resolved once.  The plan is the only state
    simulation keeps between calls.

    Use :meth:`get` rather than the constructor: plans are cached per
    circuit and invalidated when the circuit's gates or ports change.
    """

    __slots__ = (
        "circuit", "cells", "pi_order", "net_index", "n_nets",
        "gate_names", "gate_index", "gate_fn", "gate_in", "gate_out",
        "gate_eval", "loads_of", "is_po", "po_index", "eval_compiles",
        "_topo_ref", "__weakref__",
    )

    def __init__(self, circuit: Circuit, cells: Mapping[str, CellDef]):
        self.circuit = circuit
        self.cells = cells
        topo = circuit.topo_order()
        self._topo_ref = circuit.topology_token()
        net_index: Dict[str, int] = {CONST0: 0, CONST1: 1}
        for pi in circuit.inputs:
            net_index[pi] = len(net_index)
        for gname in topo:
            net_index[circuit.gates[gname].output] = len(net_index)
        self.net_index = net_index
        self.n_nets = len(net_index)
        self.pi_order = list(circuit.inputs)

        gate_fn: List[Evaluator] = []
        gate_in: List[Tuple[int, ...]] = []
        gate_out: List[int] = []
        compiled: Dict[Tuple[int, int], Evaluator] = {}
        for gname in topo:
            gate = circuit.gates[gname]
            cell = cells[gate.cell]
            key = (len(cell.input_pins), cell.tt)
            fn = compiled.get(key)
            if fn is None:
                fn = compile_cell_eval(*key)
                compiled[key] = fn
            gate_fn.append(fn)
            try:
                gate_in.append(
                    tuple(net_index[gate.pins[p]] for p in cell.input_pins)
                )
            except KeyError as exc:
                raise NetlistError(
                    f"gate {gname}: input net {exc.args[0]} undriven"
                ) from None
            gate_out.append(net_index[gate.output])
        self.gate_names = list(topo)
        self.gate_index = {g: i for i, g in enumerate(topo)}
        self.gate_fn = gate_fn
        self.gate_in = gate_in
        self.gate_out = gate_out
        self.gate_eval = [
            _bind_gate_eval(fn, ins)
            for fn, ins in zip(gate_fn, gate_in)
        ]
        self.eval_compiles = len(compiled)

        loads_of: List[List[int]] = [[] for _ in range(self.n_nets)]
        for gi, ins in enumerate(gate_in):
            for idx in set(ins):
                loads_of[idx].append(gi)
        self.loads_of = loads_of

        self.is_po = bytearray(self.n_nets)
        po_index: List[int] = []
        for po in circuit.outputs:
            idx = net_index.get(po)
            if idx is None:
                raise NetlistError(f"output net {po} undriven")
            self.is_po[idx] = 1
            po_index.append(idx)
        self.po_index = po_index

    # ------------------------------------------------------------------
    def valid_for(self, circuit: Circuit, cells: Mapping[str, CellDef]) -> bool:
        return (
            self.circuit is circuit
            and self.cells is cells
            and self._topo_ref is circuit.topology_token()
        )

    @classmethod
    def get(
        cls, circuit: Circuit, cells: Mapping[str, CellDef]
    ) -> "CompiledCircuit":
        """Cached plan for (*circuit*, *cells*); rebuilt after mutation.

        *cells* is compared by identity: pass a library's shared
        :attr:`~repro.library.osu018.Library.cells` to reuse a plan.

        Thread-safe: the module-level plan cache is consulted and
        updated under a lock (WeakKeyDictionary mutation may race with
        GC callbacks from other threads).  Plan construction runs
        outside the lock, so two threads may build the same plan
        concurrently — the plans are identical and the last insert wins.
        """
        with _PLAN_LOCK:
            plan = _PLAN_CACHE.get(circuit)
        if plan is not None and plan.valid_for(circuit, cells):
            return plan
        plan = cls(circuit, cells)
        with _PLAN_LOCK:
            _PLAN_CACHE[circuit] = plan
        return plan

    # ------------------------------------------------------------------
    def simulate_values(
        self, pi_values: Mapping[str, int], mask: int
    ) -> List[int]:
        """Bit-parallel simulation; returns net values indexed by net index."""
        values = [0] * self.n_nets
        values[1] = mask
        net_index = self.net_index
        for pi in self.pi_order:
            try:
                values[net_index[pi]] = pi_values[pi] & mask
            except KeyError:
                raise NetlistError(
                    f"missing value for primary input {pi}"
                ) from None
        gate_eval = self.gate_eval
        gate_out = self.gate_out
        for gi in range(len(gate_out)):
            values[gate_out[gi]] = gate_eval[gi](values, mask)
        return values


_PLAN_CACHE: "weakref.WeakKeyDictionary[Circuit, CompiledCircuit]" = (
    weakref.WeakKeyDictionary()
)
_PLAN_LOCK = threading.Lock()


def clear_compiled_cache() -> None:
    """Drop all cached plans and compiled evaluators (test hook)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
    compile_cell_eval.cache_clear()


def simulate(
    circuit: Circuit,
    cells: Mapping[str, CellDef],
    pi_values: Mapping[str, int],
    mask: int,
) -> Dict[str, int]:
    """Simulate the circuit; return the value of every net.

    *pi_values* maps each primary input net to a bit vector; *mask* is the
    all-patterns-ones mask, ``(1 << n_patterns) - 1``.
    """
    plan = CompiledCircuit.get(circuit, cells)
    values = plan.simulate_values(pi_values, mask)
    return {net: values[i] for net, i in plan.net_index.items()}


def simulate_patterns(
    circuit: Circuit,
    cells: Mapping[str, CellDef],
    patterns: Sequence[Mapping[str, int]],
) -> List[Dict[str, int]]:
    """Simulate scalar patterns; return one {net: 0/1} dict per pattern.

    Convenience wrapper that packs the patterns into bit vectors, runs one
    bit-parallel simulation, and unpacks the results.
    """
    n = len(patterns)
    if n == 0:
        return []
    mask = (1 << n) - 1
    packed: Dict[str, int] = {}
    for pi in circuit.inputs:
        word = 0
        for i, pat in enumerate(patterns):
            if pat[pi]:
                word |= 1 << i
        packed[pi] = word
    values = simulate(circuit, cells, packed, mask)
    out: List[Dict[str, int]] = []
    for i in range(n):
        out.append({net: (val >> i) & 1 for net, val in values.items()})
    return out
