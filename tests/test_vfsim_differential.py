"""Differential tests: one wide pattern batch vs ATPG-sized batches.

Pattern words are arbitrary-precision ints, so :func:`fault_simulate`
takes a batch of any width in one pass (the ingest benchmark grades 4096
pairs at once), while ATPG and :func:`detected_by_patterns` grade pairs
:data:`BATCH_PAIRS` at a time.  Detect words must not depend on the
width: bit *i* of fault *f*'s word is set by exactly the same pattern
pairs whether the batch is simulated in one pass, in ``BATCH_PAIRS``-pair
chunks, or by the naive oracle in ``tests/fsim_reference.py``.  This
suite locks that in:

* on random mapped circuits with faults of every model, across batch
  widths from a single pair up to several 64-bit words, against both the
  chunked run and the oracle;
* on every bundled benchmark circuit for seeds {0, 1, 2}, against the
  chunked run.
"""

from __future__ import annotations

import pytest

from repro.bench.circuits import BENCHMARKS, build_benchmark
from repro.faults.fsim import BATCH_PAIRS, PatternBatch, fault_simulate
from tests.conftest import mixed_fault_list, random_mapped_circuit
from tests.fsim_reference import reference_fault_simulate

# Batch widths spanning the interesting boundaries: a single pair, a
# partial word, exactly one word, a word boundary + 1, several words.
WIDTHS = [1, 17, 64, 65, 200]

# Benchmark circuits are expensive to synthesize; build each once for
# the whole module run.
_BENCH_CACHE = {}


def _bench(name, library):
    circuit = _BENCH_CACHE.get(name)
    if circuit is None:
        circuit = build_benchmark(name, library)
        _BENCH_CACHE[name] = circuit
    return circuit


def _chunked(circuit, cells, faults, batch):
    """*batch* simulated ``BATCH_PAIRS`` pairs at a time, words stitched."""
    words = [0] * len(faults)
    for lo in range(0, batch.n, BATCH_PAIRS):
        n = min(BATCH_PAIRS, batch.n - lo)
        mask = (1 << n) - 1
        chunk = PatternBatch(
            n,
            {pi: (w >> lo) & mask for pi, w in batch.frame1.items()},
            {pi: (w >> lo) & mask for pi, w in batch.frame2.items()},
        )
        for k, word in enumerate(fault_simulate(circuit, cells, faults, chunk)):
            words[k] |= word << lo
    return words


def _assert_identical(circuit, cells, faults, batch):
    wide = fault_simulate(circuit, cells, faults, batch)
    assert wide == _chunked(circuit, cells, faults, batch)
    return wide


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("width", WIDTHS)
def test_wide_matches_event_all_models(cells, library, seed, width):
    circuit = random_mapped_circuit(cells, seed=seed)
    faults = mixed_fault_list(circuit, library, seed=seed)
    batch = PatternBatch.random(circuit, width, seed=seed * 1000 + width)
    words = _assert_identical(circuit, cells, faults, batch)
    assert words == reference_fault_simulate(circuit, cells, faults, batch)
    if width >= 64:
        assert any(words)  # the suite must exercise real detections


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_matches_event_on_benchmarks(cells, library, name, seed):
    circuit = _bench(name, library)
    faults = mixed_fault_list(circuit, library, seed=seed, per_kind=6)
    batch = PatternBatch.random(circuit, 200, seed=seed)
    words = _assert_identical(circuit, cells, faults, batch)
    assert len(words) == len(faults)
