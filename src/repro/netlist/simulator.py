"""Bit-parallel logic simulation.

Net values are Python integers used as arbitrary-width bit vectors: bit *i*
of a net's value is the net's logic value under pattern *i*.  A single pass
over the circuit therefore simulates as many patterns as the word width,
which is what makes Python-side fault simulation practical.

Cell functions are given as truth tables (bit *m* of ``tt`` is the output
for input minterm *m*, with ``input_pins[0]`` as the least significant bit).
Each (arity, tt) pair becomes one sum-of-products (or product-of-sums,
whichever is smaller) bitwise expression, compiled and cached in two
forms: :func:`compile_cell_eval` takes the input words as arguments, and
:func:`compile_gate_eval` makes, for one gate's input net indices, a
closure that reads them straight from a value vector, so evaluating a
gate is one Python call.

:class:`CompiledCircuit` hoists every per-gate cost out of the simulation
loops: nets are mapped to dense integer indices, each gate's evaluator is
bound exactly once, and each net's loads are precomputed as a bit mask
over gate indices, which the fault simulator ORs into its event queue.
A circuit keeps its plan (rebuilt automatically when the circuit
mutates), so repeated simulation of the same design — the normal case
inside the resynthesis loop — pays the compile cost once.  The plan
holds no reference back to its circuit, so it dies with the circuit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Tuple

from repro.netlist.circuit import CONST0, CONST1, CellDef, Circuit, NetlistError

Evaluator = Callable[..., int]
# A gate's bound evaluator: ``(values, mask) -> output word``.
GateEval = Callable[[List[int], int], int]

# Bound of each global (n_inputs, truth_table) compile cache.  Real
# libraries have a few dozen distinct cell functions, so the bound only
# matters for adversarial workloads (e.g. fuzzing over random truth
# tables) where an unbounded cache is a slow leak.
EVAL_CACHE_SIZE = 1024


def _tt_expr(n_inputs: int, tt: int) -> str:
    """Masked bitwise expression of *tt* over ``v0``.. and ``mask``."""
    size = 1 << n_inputs
    if n_inputs and not 0 <= tt < (1 << size):
        raise ValueError(f"truth table 0x{tt:x} out of range for {n_inputs} inputs")
    minterms = [m for m in range(size) if (tt >> m) & 1]
    use_complement = len(minterms) > size // 2
    terms = (
        [m for m in range(size) if not (tt >> m) & 1] if use_complement else minterms
    )
    if not terms:
        return "mask" if use_complement else "0"
    sop = " | ".join(
        "(" + " & ".join(
            f"v{i}" if (m >> i) & 1 else f"~v{i}" for i in range(n_inputs)
        ) + ")"
        for m in terms
    )
    return f"~({sop}) & mask" if use_complement else f"({sop}) & mask"


@lru_cache(maxsize=EVAL_CACHE_SIZE)
def compile_cell_eval(n_inputs: int, tt: int) -> Evaluator:
    """Compile a truth table into a bitwise evaluator.

    The returned callable takes ``n_inputs`` integer bit vectors followed by
    a ``mask`` keyword-only-by-position final argument and returns the output
    bit vector (already masked).
    """
    args = "".join(f"v{i}, " for i in range(n_inputs))
    src = f"lambda {args}mask: {_tt_expr(n_inputs, tt)}"
    return eval(src)  # noqa: S307 - source is generated from integers only


@lru_cache(maxsize=EVAL_CACHE_SIZE)
def compile_gate_eval(n_inputs: int, tt: int) -> Callable[..., GateEval]:
    """Compile a truth table into a factory of per-gate evaluators.

    ``compile_gate_eval(n, tt)(*ins)`` returns the gate's evaluator: a
    closure taking ``(values, mask)`` that reads its inputs at the net
    indices *ins* of the value vector and returns the output bit vector
    (already masked).
    """
    ins = ", ".join(f"i{i}" for i in range(n_inputs))
    reads = "".join(
        f"        v{i} = values[i{i}]\n" for i in range(n_inputs)
    )
    src = (
        f"def bind({ins}):\n"
        f"    def evaluate(values, mask):\n"
        f"{reads}"
        f"        return {_tt_expr(n_inputs, tt)}\n"
        f"    return evaluate\n"
    )
    namespace: Dict[str, Callable[..., GateEval]] = {}
    code = compile(src, f"<gate_eval {n_inputs}:{tt:#x}>", "exec")
    exec(code, namespace)  # noqa: S102 - source is generated from integers only
    return namespace["bind"]


class CompiledCircuit:
    """A circuit prepared for repeated simulation.

    Nets are assigned dense indices (``CONST0`` = 0, ``CONST1`` = 1, then
    primary inputs, then gate outputs in topological order: gate *gi*
    drives net ``gate_net0 + gi``), and per-gate evaluators/pin indices
    are resolved once.  The plan is the only state simulation keeps
    between calls.

    ``load_mask[net]`` holds the gates the net feeds as a bit mask
    relative to its driver: bit *k* is gate ``base + k``, where *base*
    is the driver's index + 1 (0 for constants and primary inputs).
    Every load follows its driver in topological order, so the masks
    are non-negative.

    Use :meth:`get` rather than the constructor: a circuit keeps its
    plan, which is rebuilt when the circuit's gates or ports change.
    The plan does not refer to the circuit, so callers that need the
    gates pass the circuit alongside it.
    """

    __slots__ = (
        "cells", "pi_order", "net_index", "n_nets", "gate_net0",
        "gate_index", "gate_in", "gate_out", "gate_eval", "load_mask",
        "is_po", "po_index", "eval_compiles", "_topo_ref",
    )

    def __init__(self, circuit: Circuit, cells: Mapping[str, CellDef]):
        self.cells = cells
        topo = circuit.topo_order()
        self._topo_ref = circuit.topology_token()
        net_index: Dict[str, int] = {CONST0: 0, CONST1: 1}
        for pi in circuit.inputs:
            net_index[pi] = len(net_index)
        self.gate_net0 = gate_net0 = len(net_index)
        for gname in topo:
            net_index[circuit.gates[gname].output] = len(net_index)
        self.net_index = net_index
        self.n_nets = len(net_index)
        self.pi_order = list(circuit.inputs)

        gate_in: List[Tuple[int, ...]] = []
        gate_eval: List[GateEval] = []
        compiled: Dict[Tuple[int, int], Callable[..., GateEval]] = {}
        for gname in topo:
            gate = circuit.gates[gname]
            cell = cells[gate.cell]
            key = (len(cell.input_pins), cell.tt)
            bind = compiled.get(key)
            if bind is None:
                bind = compiled[key] = compile_gate_eval(*key)
            try:
                ins = tuple(net_index[gate.pins[p]] for p in cell.input_pins)
            except KeyError as exc:
                raise NetlistError(
                    f"gate {gname}: input net {exc.args[0]} undriven"
                ) from None
            gate_in.append(ins)
            gate_eval.append(bind(*ins))
        self.gate_index = {g: i for i, g in enumerate(topo)}
        self.gate_in = gate_in
        self.gate_out = list(range(gate_net0, gate_net0 + len(topo)))
        self.gate_eval = gate_eval
        self.eval_compiles = len(compiled)

        load_mask = [0] * self.n_nets
        for gi, ins in enumerate(gate_in):
            for idx in ins:
                base = idx - gate_net0 + 1 if idx >= gate_net0 else 0
                load_mask[idx] |= 1 << (gi - base)
        self.load_mask = load_mask

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
    @classmethod
    def get(
        cls, circuit: Circuit, cells: Mapping[str, CellDef]
    ) -> "CompiledCircuit":
        """The plan *circuit* keeps for *cells*; rebuilt after mutation.

        *cells* is compared by identity: pass a library's shared
        :attr:`~repro.library.osu018.Library.cells` to reuse a plan.

        Thread-safe without a lock: two threads may build the same plan
        concurrently — the plans are identical and the last store wins.
        """
        plan = circuit._plan
        if (
            plan is not None
            and plan.cells is cells
            and plan._topo_ref is circuit.topology_token()
        ):
            return plan
        plan = circuit._plan = cls(circuit, cells)
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
        for out, evaluate in zip(self.gate_out, self.gate_eval):
            values[out] = evaluate(values, mask)
        return values


def clear_compiled_cache() -> None:
    """Drop the compiled evaluators and gate factories (test hook).

    Plans live on their circuits; a fresh circuit starts without one.
    """
    compile_cell_eval.cache_clear()
    compile_gate_eval.cache_clear()


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
