"""Scalar-pattern conveniences over the bit-parallel simulators.

The flow packs patterns into words itself; only tests (and the
benchmark reports) grade scalar patterns or pattern-pair lists, so these
wrappers live here rather than in ``repro``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.fsim import BATCH_PAIRS, PatternBatch, fault_simulate
from repro.faults.model import Fault
from repro.library.cell import StandardCell
from repro.netlist.circuit import CellDef, Circuit
from repro.netlist.simulator import simulate
from repro.utils.observability import EngineStats


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


def detected_by_patterns(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    pairs: Sequence[Tuple[Mapping[str, int], Mapping[str, int]]],
    *,
    stats: Optional[EngineStats] = None,
) -> List[bool]:
    """Convenience wrapper: which faults do these test pairs detect?

    Pairs are simulated in chunks of :data:`~repro.faults.fsim.BATCH_PAIRS`.
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
