"""Bit-parallel, event-driven fault simulation for all four fault models.

Tests are *pattern pairs* (enhanced scan): frame 1 initializes, frame 2
launches and is the only observed frame.  A batch packs any number of
pairs into arbitrary-precision ints (the engine's callers use
:data:`BATCH_PAIRS`); faulty values are propagated event-driven through
each fault's output cone only, so cost scales with cone size rather than
circuit size.

Detection semantics per model (matching the ATPG encodings):

* stuck-at — site forced to the stuck value in frame 2;
* transition — site must carry the initial value in frame 1, then behave
  as the corresponding stuck-at in frame 2;
* dominant bridge — victim net takes the aggressor's (good) value;
* cell-aware static — gate output follows the defect's faulty truth
  table; minterms with unknown response give no detection credit;
* cell-aware dynamic — floating minterms in frame 2 retain the frame-1
  driven faulty value; unknown/undriven cases give no credit.

Performance architecture: all per-gate work (evaluator compilation, pin
resolution, load lists) is hoisted into a cached
:class:`~repro.netlist.simulator.CompiledCircuit` plan, the only state
kept between calls, and nets are handled as dense integer indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.model import (
    BridgingFault,
    CellAwareFault,
    Fault,
    StuckAtFault,
    TransitionFault,
)
from repro.library.cell import StandardCell
from repro.library.defects import CellDefect
from repro.netlist.circuit import Circuit
from repro.netlist.simulator import CompiledCircuit
from repro.utils.observability import EngineStats
from repro.utils.rng import make_rng

# Pattern pairs per fault-simulation batch: the random-phase batch size
# of :func:`repro.atpg.engine.run_atpg` and its upper bound, and the
# chunk size wherever a pair list is graded (compaction,
# :func:`detected_by_patterns`).  Widening it changes which pairs ATPG
# draws and keeps, and so Table II's T column.
BATCH_PAIRS = 64


@dataclass
class PatternBatch:
    """A batch of test pairs, PI values packed as bit vectors.

    ``frame1[pi]`` / ``frame2[pi]`` hold bit *i* of primary input *pi*
    under pair *i* as arbitrary-precision Python ints, so a batch may
    carry any number of pairs.
    """

    n: int
    frame1: Dict[str, int]
    frame2: Dict[str, int]

    @property
    def mask(self) -> int:
        return (1 << self.n) - 1

    @staticmethod
    def from_pairs(
        circuit: Circuit,
        pairs: Sequence[Tuple[Mapping[str, int], Mapping[str, int]]],
    ) -> "PatternBatch":
        # Accumulate each PI's word in a local int over one pass of the
        # pairs: two dict reads per (pair, PI) and a single store per PI,
        # instead of the per-set-bit read-modify-write dict updates the
        # naive packing pays.
        f1: Dict[str, int] = {}
        f2: Dict[str, int] = {}
        for pi in circuit.inputs:
            w1 = 0
            w2 = 0
            bit = 1
            for v1, v2 in pairs:
                if v1[pi]:
                    w1 |= bit
                if v2[pi]:
                    w2 |= bit
                bit <<= 1
            f1[pi] = w1
            f2[pi] = w2
        return PatternBatch(len(pairs), f1, f2)

    @staticmethod
    def random(circuit: Circuit, n: int, seed: int) -> "PatternBatch":
        rng = make_rng(seed)
        f1 = {pi: rng.getrandbits(n) for pi in circuit.inputs}
        f2 = {pi: rng.getrandbits(n) for pi in circuit.inputs}
        return PatternBatch(n, f1, f2)


class _SimContext:
    """One batch's good-machine values over a shared compiled plan.

    ``good1`` / ``good2`` are net-value vectors indexed by the plan's
    dense net indices; ``scratch`` is the working copy propagation
    writes faulty values into.
    """

    __slots__ = (
        "plan", "mask", "good1", "good2", "scratch", "inq", "events",
    )

    def __init__(
        self,
        plan: CompiledCircuit,
        mask: int,
        good1: Sequence[int],
        good2: Sequence[int],
    ):
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
    """Context for one batch: the cached plan and both frames' good values."""
    plan = CompiledCircuit.get(circuit, cells)
    mask = batch.mask
    return _SimContext(
        plan, mask,
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
    gate = plan.circuit.gates.get(gname)
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
        gate = plan.circuit.gates.get(fault.gate)
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


def fault_simulate(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    batch: PatternBatch,
    *,
    stats: Optional[EngineStats] = None,
) -> List[int]:
    """Per-fault detect words (bit i set = pair i detects the fault).

    Adds the batch, its faults and the events propagated to *stats*.
    """
    ctx = _make_context(circuit, cells, batch)
    results = [_simulate_one(ctx, fault) for fault in faults]
    if stats is not None:
        stats.batches += 1
        stats.faults_simulated += len(faults)
        stats.events_propagated += ctx.events
    return results


def detected_by_patterns(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    pairs: Sequence[Tuple[Mapping[str, int], Mapping[str, int]]],
    *,
    stats: Optional[EngineStats] = None,
) -> List[bool]:
    """Convenience wrapper: which faults do these test pairs detect?

    Pairs are simulated in chunks of :data:`BATCH_PAIRS`.
    """
    if not pairs:
        return [False] * len(faults)
    flags = [False] * len(faults)
    for start in range(0, len(pairs), BATCH_PAIRS):
        batch = PatternBatch.from_pairs(
            circuit, pairs[start:start + BATCH_PAIRS]
        )
        words = fault_simulate(circuit, cells, faults, batch, stats=stats)
        for i, w in enumerate(words):
            if w:
                flags[i] = True
    return flags
