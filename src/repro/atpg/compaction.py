"""Static test set compaction.

Classic reverse-order compaction: simulate the test pairs in the reverse
of their generation order and keep only the pairs that detect at least
one fault not covered by a later-kept pair.  This is how the paper's
column *T* (number of tests) stays comparable between the original and
resynthesized designs.

A fault is first covered by the last pair that detects it, and that
pair is then kept; a pair that is no fault's last detecting pair only
detects faults a later-kept pair covers.  So the kept pairs are exactly
the highest set bits of the faults' detection words, found in one pass
over the faults.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.fsim import BATCH_PAIRS, PatternBatch, fault_simulate
from repro.faults.model import Fault
from repro.library.cell import StandardCell
from repro.netlist.circuit import Circuit
from repro.utils.observability import EngineStats

TestPair = Tuple[Dict[str, int], Dict[str, int]]


def compact_tests(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    tests: Sequence[TestPair],
    *,
    stats: Optional[EngineStats] = None,
) -> List[TestPair]:
    """Reverse-order compaction of *tests* against *faults*."""
    if not tests:
        return []
    n = len(tests)
    # detect_matrix[fault index] = bit vector over test indices.
    detect: List[int] = [0] * len(faults)
    for start in range(0, n, BATCH_PAIRS):
        chunk = tests[start:start + BATCH_PAIRS]
        batch = PatternBatch.from_pairs(circuit, chunk)
        words = fault_simulate(circuit, cells, faults, batch, stats=stats)
        for fi, w in enumerate(words):
            detect[fi] |= w << start
    kept = sorted({w.bit_length() - 1 for w in detect if w})
    return [tests[ti] for ti in kept]
