"""Wide-batch vectorized fault simulation (numpy backend).

The counterpart of :mod:`repro.faults.fsim` for the wide simulation
backend: the same four fault models, the same detection semantics, and
bit-identical detect words — but pattern batches are ``64 * W`` pairs
wide (net values are ``numpy uint64`` arrays of *W* words, see
:mod:`repro.netlist.vsim`) instead of one machine word.

Fault propagation stays cone-scoped: each fault site's forward cone
(gates in topological order plus the reachable POs) is memoized on the
compiled plan, and propagation evaluates exactly those gates densely
with vectorized bitwise ops on whole word arrays.  There is no
event-driven change tracking — for thousands of patterns per pass
virtually every cone gate carries a difference somewhere in the batch,
so the per-gate bookkeeping the event backend uses to skip work would
cost more than the work itself.  Detection is one popcount-style
reduction per fault: XOR the cone's PO rows against the good machine,
OR the words together with the activation mask, and collapse the word
array into a single Python-int detect word whose bit *i* means pair *i*
detects the fault.

Equivalence with the event backend is structural: both backends share
``CompiledCircuit``'s topological order, pin indices, truth tables and
compiled evaluators (numpy applies the same ``&``/``|``/``~`` bodies
elementwise), and the differential suite in
``tests/test_vfsim_differential.py`` locks the bit-identity in on every
bundled benchmark circuit.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

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
from repro.netlist.vsim import (
    WORD_BITS,
    unpack_word,
    wide_good_values,
    wide_mask,
    words_for,
)
from repro.utils.observability import EngineStats

# Per-plan dense-propagation cones, prepared for the hot loop: net index
# -> (list of (evaluator, output index) pairs in topo order, fancy-index
# array of the cone's output rows for one-shot restore, fancy-index
# array of observable PO rows).  Weakly keyed so dropped plans free
# their cones.
_ConeEntry = Tuple[
    List[Tuple[Callable, int]], np.ndarray, np.ndarray
]
_PLAN_CONES: "weakref.WeakKeyDictionary[CompiledCircuit, Dict[int, _ConeEntry]]" = (
    weakref.WeakKeyDictionary()
)


def _cone_entry(plan: CompiledCircuit, root: int) -> _ConeEntry:
    cones = _PLAN_CONES.get(plan)
    if cones is None:
        cones = {}
        _PLAN_CONES[plan] = cones
    entry = cones.get(root)
    if entry is None:
        gates, pos = plan.cone_gates(root)
        pairs = [(plan.gate_eval[gi], plan.gate_out[gi]) for gi in gates]
        outs = np.fromiter(
            (plan.gate_out[gi] for gi in gates), dtype=np.intp,
            count=len(gates),
        )
        entry = (pairs, outs, np.asarray(pos, dtype=np.intp))
        cones[root] = entry
    return entry


class _WideContext:
    """One wide batch's good-machine arrays over a shared compiled plan.

    ``good1`` / ``good2`` are ``(n_nets, words)`` uint64 arrays indexed
    by the plan's dense net indices; ``scratch`` is a working copy of
    ``good2`` that dense propagation writes faulty rows into and
    restores afterwards.
    """

    __slots__ = (
        "plan", "mask", "words", "good1", "good2", "scratch", "vector_ops",
    )

    def __init__(
        self,
        plan: CompiledCircuit,
        mask: np.ndarray,
        words: int,
        good1: np.ndarray,
        good2: np.ndarray,
    ):
        self.plan = plan
        self.mask = mask
        self.words = words
        self.good1 = good1
        self.good2 = good2
        self.scratch = good2.copy()
        self.vector_ops = 0

    def propagate(
        self, root: int, seeded: np.ndarray, activation: np.ndarray
    ) -> int:
        """Dense cone propagation; returns the fault's detect word.

        *seeded* is the faulty value forced onto net *root* (the fault
        site stays forced — its driver is never re-evaluated, which a
        DAG guarantees structurally since a net's driver is not in its
        own forward cone); *activation* masks the patterns for which
        the fault is active at its site.
        """
        if not activation.any():
            return 0
        good = self.good2
        values = self.scratch
        mask = self.mask
        seeded = seeded & mask
        if np.array_equal(seeded, good[root]):
            # The forced value never differs at the site (e.g. a branch
            # gate whose output absorbs the forced input): no effect.
            return 0
        pairs, outs, pos = _cone_entry(self.plan, root)
        values[root] = seeded
        for fn, out in pairs:
            values[out] = fn(values, mask)
        self.vector_ops += len(pairs) + 1
        detect = np.zeros(self.words, dtype=np.uint64)
        if len(pos):
            np.bitwise_or.reduce(
                values[pos] ^ good[pos], axis=0, out=detect
            )
        values[root] = good[root]
        if len(outs):
            values[outs] = good[outs]
        detect &= activation
        return unpack_word(detect)


def _branch_site_wide(
    ctx: _WideContext,
    net: str,
    branch: Optional[Tuple[str, str]],
    forced: np.ndarray,
) -> Tuple[int, Optional[np.ndarray], bool]:
    """Fault site and seeded faulty value for a stem or branch fault.

    Mirrors :func:`repro.faults.fsim._branch_overrides`: a branch fault
    forces the value on one gate input only, so the seeded net is that
    gate's output, recomputed with the forced input word array.
    Returns ``(root net index, seeded value, ok)`` — *ok* is False when
    the branch no longer exists (stale fault after resynthesis).
    """
    plan = ctx.plan
    if branch is None:
        return plan.net_index[net], forced, True
    gname, pin = branch
    gate = plan.circuit.gates.get(gname)
    if gate is None or gate.pins.get(pin) != net:
        return 0, None, False
    gi = plan.gate_index[gname]
    cell = plan.cells[gate.cell]
    fn = plan.gate_fn[gi]
    ins = []
    for p, idx in zip(cell.input_pins, plan.gate_in[gi]):
        if p == pin:
            ins.append(forced)
        else:
            ins.append(ctx.good2[idx])
    ctx.vector_ops += 1
    return plan.gate_out[gi], fn(*ins, ctx.mask), True


def _cell_faulty_words(
    defect: CellDefect,
    input_rows: Sequence[np.ndarray],
    good_out: np.ndarray,
    mask: np.ndarray,
    frame1_rows: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Frame-2 faulty output rows of a defective cell instance.

    Word-array mirror of :func:`repro.faults.fsim._cell_faulty_word`,
    including the dynamic-retention and no-credit-for-unknown rules.
    """
    n = len(input_rows)

    def match(rows: Sequence[np.ndarray], m: int) -> np.ndarray:
        w = mask.copy()
        for i in range(n):
            w &= rows[i] if (m >> i) & 1 else ~rows[i]
        return w

    out = np.zeros_like(mask)
    retained = valid1 = None
    if frame1_rows is not None and defect.floating:
        retained = np.zeros_like(mask)
        valid1 = np.zeros_like(mask)
        for m, fval in enumerate(defect.faulty):
            if fval is None:
                continue
            m1 = match(frame1_rows, m)
            valid1 |= m1
            if fval:
                retained |= m1
    for m, fval in enumerate(defect.faulty):
        w = match(input_rows, m)
        if not w.any():
            continue
        if fval is not None:
            if fval:
                out |= w
        elif m in defect.floating and frame1_rows is not None:
            # Retain the frame-1 driven faulty value; undriven frame-1
            # initialization gives no detection credit (follow good).
            out |= w & valid1 & retained
            out |= w & ~valid1 & good_out
        else:
            out |= w & good_out  # unknown response: no credit
    return out & mask


def _simulate_one_wide(ctx: _WideContext, fault: Fault) -> int:
    mask = ctx.mask
    plan = ctx.plan
    net_index = plan.net_index
    zeros = np.zeros_like(mask)
    if isinstance(fault, StuckAtFault):
        idx = net_index.get(fault.net)
        if idx is None:
            return 0
        forced = mask if fault.value else zeros
        root, seeded, ok = _branch_site_wide(
            ctx, fault.net, fault.branch, forced
        )
        if not ok:
            return 0
        activation = ctx.good2[idx] ^ forced
        return ctx.propagate(root, seeded, activation)
    if isinstance(fault, TransitionFault):
        idx = net_index.get(fault.net)
        if idx is None:
            return 0
        init = mask if fault.initial_value else zeros
        initialized = ~(ctx.good1[idx] ^ init) & mask
        if not initialized.any():
            return 0
        forced = mask if fault.stuck_value else zeros
        root, seeded, ok = _branch_site_wide(
            ctx, fault.net, fault.branch, forced
        )
        if not ok:
            return 0
        activation = (ctx.good2[idx] ^ forced) & initialized
        return ctx.propagate(root, seeded, activation)
    if isinstance(fault, BridgingFault):
        vi = net_index.get(fault.victim)
        ai = net_index.get(fault.aggressor)
        if vi is None or ai is None:
            return 0
        aggr = ctx.good2[ai]
        activation = ctx.good2[vi] ^ aggr
        return ctx.propagate(vi, aggr, activation)
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
        faulty = _cell_faulty_words(
            fault.defect, in2, good_out, mask, frame1_rows=frame1,
        )
        activation = faulty ^ good_out
        return ctx.propagate(out_idx, faulty, activation)
    raise TypeError(type(fault).__name__)


def wide_batch_key(plan: CompiledCircuit, batch, words: int) -> tuple:
    """Good-value LRU key of one wide batch (backend-tagged, word-counted)."""
    return (
        "wide", words, batch.n,
        tuple(batch.frame1.get(pi, 0) for pi in plan.pi_order),
        tuple(batch.frame2.get(pi, 0) for pi in plan.pi_order),
    )


def wide_fault_simulate(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    batch,  # PatternBatch; untyped to avoid a circular import with fsim
    *,
    words: Optional[int] = None,
    stats: Optional[EngineStats] = None,
) -> List[int]:
    """Per-fault detect words over one wide batch (bit *i* = pair *i*).

    Same contract as :func:`repro.faults.fsim.fault_simulate` — bit *i*
    of word *f* is set iff pair *i* detects fault *f* — and bit-identical
    to it for the same batch.  *words* sizes the uint64 arrays; by
    default just enough words to hold ``batch.n`` patterns, so small
    batches (compaction chunks, inherited tests) stay cheap.

    Counters land on *stats* in one atomic merge, mirroring the event
    path's discipline.
    """
    local = EngineStats()
    plan = CompiledCircuit.get(circuit, cells, stats=local)
    if words is None:
        words = words_for(batch.n)
    elif words * WORD_BITS < batch.n:
        raise ValueError(
            f"{words} word(s) hold {words * WORD_BITS} patterns, "
            f"but the batch has {batch.n}"
        )
    mask = wide_mask(batch.n, words)
    batch_key = wide_batch_key(plan, batch, words)
    good1, good2 = wide_good_values(
        plan, batch_key, (batch.frame1, batch.frame2), mask, words,
        stats=local,
    )
    ctx = _WideContext(plan, mask, words, good1, good2)
    results = [_simulate_one_wide(ctx, fault) for fault in faults]
    local.batches += 1
    local.wide_batches += 1
    local.words_per_batch = max(local.words_per_batch, words)
    local.faults_simulated += len(faults)
    local.vector_ops += ctx.vector_ops
    if stats is not None:
        stats.merge(local)
    return results
