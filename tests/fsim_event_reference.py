"""Frozen copy of the heap-queue event-driven fault simulator.

The optimized engine in :mod:`repro.faults.fsim` propagates each fault
with a bit queue over relative gate indices and one compiled closure per
gate.  This module keeps the engine it replaced, copied verbatim: a
``heapq`` queue with per-gate in-queue flags and per-net load lists,
cell evaluators bound to their gates by a second closure
(:func:`_bind_gate_eval`), faulty values seeded through an overrides
dict, and the cell-aware faulty word computed by a loop over every input
minterm.  It carries its own copies of the evaluator compiler and of the
compiled plan, so nothing a later change to :mod:`repro.netlist.simulator`
does reaches it.

Both engines pop gates in ascending topological index and stop a fault
at the same point, so for every call they must return the same detect
words *and* count the same propagated events
(``tests/test_fsim_event_differential.py``).  The benchmark harness
``benchmarks/test_perf_engine.py`` builds its fixed baseline from
:func:`simulate`, :func:`compile_cell_eval` and :func:`_cell_faulty_word`
here.  Do not use it outside tests and benchmarks.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.fsim import PatternBatch
from repro.faults.model import (
    BridgingFault,
    CellAwareFault,
    Fault,
    StuckAtFault,
    TransitionFault,
)
from repro.library.cell import StandardCell
from repro.library.defects import CellDefect
from repro.netlist.circuit import CONST0, CONST1, CellDef, Circuit, NetlistError
from repro.utils.observability import EngineStats

Evaluator = Callable[..., int]


@lru_cache(maxsize=1024)
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


class ReferencePlan:
    """The compiled plan the heap-queue engine ran on.

    Dense net indices (``CONST0`` = 0, ``CONST1`` = 1, then primary
    inputs, then gate outputs in topological order), one evaluator per
    gate bound by :func:`_bind_gate_eval`, and a load list per net.  A
    plan is built per call and never stored on the circuit.
    """

    def __init__(self, circuit: Circuit, cells: Mapping[str, CellDef]):
        self.cells = cells
        topo = circuit.topo_order()
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
        self.gate_index = {g: i for i, g in enumerate(topo)}
        self.gate_fn = gate_fn
        self.gate_in = gate_in
        self.gate_out = gate_out
        self.gate_eval = [
            _bind_gate_eval(fn, ins)
            for fn, ins in zip(gate_fn, gate_in)
        ]

        loads_of: List[List[int]] = [[] for _ in range(self.n_nets)]
        for gi, ins in enumerate(gate_in):
            for idx in set(ins):
                loads_of[idx].append(gi)
        self.loads_of = loads_of

        self.is_po = bytearray(self.n_nets)
        for po in circuit.outputs:
            idx = net_index.get(po)
            if idx is None:
                raise NetlistError(f"output net {po} undriven")
            self.is_po[idx] = 1

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


def simulate(
    circuit: Circuit,
    cells: Mapping[str, CellDef],
    pi_values: Mapping[str, int],
    mask: int,
) -> Dict[str, int]:
    """Simulate the circuit; return the value of every net."""
    plan = ReferencePlan(circuit, cells)
    values = plan.simulate_values(pi_values, mask)
    return {net: values[i] for net, i in plan.net_index.items()}


class _SimContext:
    """One batch's good-machine values over a reference plan."""

    __slots__ = (
        "circuit", "plan", "mask", "good1", "good2", "scratch", "inq",
        "events",
    )

    def __init__(
        self,
        circuit: Circuit,
        plan: ReferencePlan,
        mask: int,
        good1: Sequence[int],
        good2: Sequence[int],
    ):
        self.circuit = circuit
        self.plan = plan
        self.mask = mask
        self.good1 = good1
        self.good2 = good2
        # Working copy of good2 for propagation: faulty values are
        # written in place (direct list indexing beats a side dict on
        # the hot path) and restored from the touched list afterwards.
        self.scratch = list(good2)
        # In-queue flags per gate; all zero between propagations.
        self.inq = bytearray(len(plan.gate_out))
        self.events = 0

    def propagate(
        self, overrides: Dict[int, int], activation: int
    ) -> int:
        """Propagate faulty net values (frame 2); return the detect word.

        *overrides* seeds faulty values on nets (by net index);
        *activation* masks the patterns for which the fault is active at
        its site.
        """
        if not activation:
            return 0
        plan = self.plan
        good = self.good2
        mask = self.mask
        loads_of = plan.loads_of
        is_po = plan.is_po
        values = self.scratch  # equals good outside propagation
        inq = self.inq  # all zero here; zeroed again by the pops below
        touched: List[int] = []
        detect = 0
        heap: List[int] = []
        push = heappush
        pop = heappop
        for net, value in overrides.items():
            value &= mask
            if value != values[net]:
                values[net] = value
                touched.append(net)
                if is_po[net]:
                    detect |= (value ^ good[net])
                for gi in loads_of[net]:
                    if not inq[gi]:
                        inq[gi] = 1
                        push(heap, gi)
        gate_eval = plan.gate_eval
        gate_out = plan.gate_out
        events = 0
        # Pops come in topo order and a gate's fanin is complete before
        # its index is reached, so each gate is pushed at most once and
        # clearing its flag at pop time keeps `inq` zeroed for the next
        # propagation.
        while heap:
            gi = pop(heap)
            inq[gi] = 0
            events += 1
            out = gate_out[gi]
            if out in overrides:
                continue  # the fault site itself stays forced
            new = gate_eval[gi](values, mask)
            old = values[out]
            if new == old:
                continue
            if old == good[out]:
                touched.append(out)  # first deviation: remember to restore
            values[out] = new
            if is_po[out]:
                detect |= (new ^ good[out])
                if detect & activation == activation:
                    # Every activated pattern already observed a
                    # difference — nothing downstream can add more.
                    for gj in heap:
                        inq[gj] = 0
                    break
            for gj in loads_of[out]:
                if not inq[gj]:
                    inq[gj] = 1
                    push(heap, gj)
        for net in touched:
            values[net] = good[net]
        self.events += events
        return detect & activation


def _make_context(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    batch: PatternBatch,
) -> _SimContext:
    """Context for one batch: a fresh plan and both frames' good values."""
    plan = ReferencePlan(circuit, cells)
    mask = batch.mask
    return _SimContext(
        circuit, plan, mask,
        plan.simulate_values(batch.frame1, mask),
        plan.simulate_values(batch.frame2, mask),
    )


def _branch_overrides(
    ctx: _SimContext, net: str, branch: Optional[Tuple[str, str]],
    forced: int,
) -> Tuple[Dict[int, int], bool]:
    """Faulty seed values for a stem or branch fault forced to *forced*.

    For a branch fault only the branch gate sees the forced value: we
    recompute that gate's output with the forced input and seed it.
    Returns (overrides by net index, ok) — ok is False if the branch no
    longer exists.
    """
    plan = ctx.plan
    if branch is None:
        return {plan.net_index[net]: forced}, True
    gname, pin = branch
    gate = ctx.circuit.gates.get(gname)
    if gate is None or gate.pins.get(pin) != net:
        return {}, False
    gi = plan.gate_index[gname]
    cell = plan.cells[gate.cell]
    fn = plan.gate_fn[gi]
    ins = []
    for p, idx in zip(cell.input_pins, plan.gate_in[gi]):
        if p == pin:
            ins.append(forced & ctx.mask)
        else:
            ins.append(ctx.good2[idx])
    return {plan.gate_out[gi]: fn(*ins, ctx.mask)}, True


def _cell_faulty_word(
    defect: CellDefect,
    input_words: Sequence[int],
    good_out: int,
    mask: int,
    frame1_words: Optional[Sequence[int]] = None,
    frame1_good_out: int = 0,
) -> int:
    """Frame-2 faulty output word of a defective cell instance."""
    n = len(input_words)

    def match(words: Sequence[int], m: int) -> int:
        w = mask
        for i in range(n):
            w &= words[i] if (m >> i) & 1 else ~words[i]
        return w & mask

    out = 0
    if frame1_words is not None and defect.floating:
        retained = 0
        valid1 = 0
        for m, fval in enumerate(defect.faulty):
            if fval is None:
                continue
            m1 = match(frame1_words, m)
            valid1 |= m1
            if fval:
                retained |= m1
    for m, fval in enumerate(defect.faulty):
        w = match(input_words, m)
        if not w:
            continue
        if fval is not None:
            if fval:
                out |= w
        elif m in defect.floating and frame1_words is not None:
            # Retain the frame-1 driven faulty value; undriven frame-1
            # initialization gives no detection credit (follow good).
            out |= w & valid1 & retained
            out |= w & ~valid1 & good_out
        else:
            out |= w & good_out  # unknown response: no credit
    return out & mask


def _simulate_one(ctx: _SimContext, fault: Fault) -> int:
    mask = ctx.mask
    plan = ctx.plan
    net_index = plan.net_index
    if isinstance(fault, StuckAtFault):
        idx = net_index.get(fault.net)
        if idx is None:
            return 0
        forced = mask if fault.value else 0
        overrides, ok = _branch_overrides(ctx, fault.net, fault.branch, forced)
        if not ok:
            return 0
        good = ctx.good2[idx]
        activation = (good ^ forced) & mask
        return ctx.propagate(overrides, activation)
    if isinstance(fault, TransitionFault):
        idx = net_index.get(fault.net)
        if idx is None:
            return 0
        init = mask if fault.initial_value else 0
        initialized = ~(ctx.good1[idx] ^ init) & mask
        if not initialized:
            return 0
        forced = mask if fault.stuck_value else 0
        overrides, ok = _branch_overrides(ctx, fault.net, fault.branch, forced)
        if not ok:
            return 0
        activation = (ctx.good2[idx] ^ forced) & initialized
        return ctx.propagate(overrides, activation)
    if isinstance(fault, BridgingFault):
        vi = net_index.get(fault.victim)
        ai = net_index.get(fault.aggressor)
        if vi is None or ai is None:
            return 0
        aggr = ctx.good2[ai]
        activation = (ctx.good2[vi] ^ aggr) & mask
        return ctx.propagate({vi: aggr}, activation)
    if isinstance(fault, CellAwareFault):
        gate = ctx.circuit.gates.get(fault.gate)
        if gate is None:
            return 0
        gi = plan.gate_index[fault.gate]
        in_idx = plan.gate_in[gi]
        out_idx = plan.gate_out[gi]
        in2 = [ctx.good2[i] for i in in_idx]
        good_out = ctx.good2[out_idx]
        frame1 = None
        if fault.defect.floating:
            frame1 = [ctx.good1[i] for i in in_idx]
        faulty = _cell_faulty_word(
            fault.defect, in2, good_out, mask, frame1_words=frame1,
        )
        activation = (faulty ^ good_out) & mask
        return ctx.propagate({out_idx: faulty}, activation)
    raise TypeError(type(fault).__name__)


def event_fault_simulate(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    batch: PatternBatch,
    *,
    stats: Optional[EngineStats] = None,
) -> List[int]:
    """Per-fault detect words of the heap-queue engine.

    Adds the batch, its faults and the events propagated to *stats*,
    as :func:`repro.faults.fsim.fault_simulate` does.
    """
    ctx = _make_context(circuit, cells, batch)
    results = [_simulate_one(ctx, fault) for fault in faults]
    if stats is not None:
        stats.batches += 1
        stats.faults_simulated += len(faults)
        stats.events_propagated += ctx.events
    return results
