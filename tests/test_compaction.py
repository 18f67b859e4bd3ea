"""Reverse-order compaction keeps the same tests as the rescanning loop.

``compact_tests`` keeps the highest set bit of every fault's detection
word.  ``_reference_selection`` is the earlier selection loop, verbatim:
for each test in reverse order it rescans every uncovered fault.  The
property runs ``compact_tests`` on random detection matrices, with fault
simulation replaced by a lookup into the matrix, so the batching over
``BATCH_PAIRS`` tests is exercised as well.
"""

from __future__ import annotations

from typing import List, Sequence
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.atpg import compaction
from repro.atpg.compaction import compact_tests
from repro.faults.fsim import BATCH_PAIRS


def _reference_selection(detect: Sequence[int], n: int) -> List[int]:
    uncovered = [fi for fi, w in enumerate(detect) if w]
    kept: List[int] = []
    covered = set()
    for ti in reversed(range(n)):
        bit = 1 << ti
        new = [fi for fi in uncovered
               if fi not in covered and detect[fi] & bit]
        if new:
            kept.append(ti)
            covered.update(new)
    kept.reverse()
    return kept


def _compact(detect: Sequence[int], n: int) -> List[int]:
    """``compact_tests`` over tests ``0..n-1`` whose fault simulation
    answers from *detect*; returns the kept test indices."""
    calls = []

    def fake_simulate(circuit, cells, faults, batch, stats=None):
        start, size = batch[0], len(batch)
        calls.append((start, size))
        mask = (1 << size) - 1
        return [(w >> start) & mask for w in detect]

    with mock.patch.object(compaction.PatternBatch, "from_pairs",
                           lambda circuit, chunk: chunk), \
            mock.patch.object(compaction, "fault_simulate", fake_simulate):
        kept = compact_tests(None, {}, list(range(len(detect))),
                             list(range(n)))
    # One simulation per batch of tests, as before.
    assert calls == [(s, min(BATCH_PAIRS, n - s))
                     for s in range(0, n, BATCH_PAIRS)]
    return kept


@st.composite
def detect_matrices(draw):
    """(detect words, number of tests), with tests beyond one batch,
    never-detected faults and repeated words."""
    n = draw(st.integers(1, 3 * BATCH_PAIRS + 5))
    word = st.one_of(
        st.just(0),
        st.integers(0, (1 << n) - 1),
        st.integers(0, n - 1).map(lambda t: 1 << t),
    )
    words = draw(st.lists(word, max_size=40))
    if words:
        dups = draw(st.lists(st.sampled_from(words), max_size=10))
        words = words + dups
        words = draw(st.permutations(words))
    return list(words), n


class TestSelection:
    @given(detect_matrices())
    @settings(max_examples=300, deadline=None)
    def test_same_tests_as_rescanning_loop(self, matrix):
        detect, n = matrix
        assert _compact(detect, n) == _reference_selection(detect, n)

    def test_fixed_matrix_over_two_batches(self):
        n = BATCH_PAIRS + 6
        detect = [
            0,  # never detected
            (1 << 3) | (1 << (BATCH_PAIRS + 2)),
            (1 << 3) | (1 << (BATCH_PAIRS + 2)),  # duplicate word
            1 << 3,
            (1 << 0) | (1 << 5),
            0,
        ]
        assert _compact(detect, n) == [3, 5, BATCH_PAIRS + 2]
        assert _reference_selection(detect, n) == [3, 5, BATCH_PAIRS + 2]

    def test_no_fault_detected_keeps_nothing(self):
        assert _compact([0, 0, 0], 70) == []
