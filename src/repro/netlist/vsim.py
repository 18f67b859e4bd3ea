"""Wide-batch vectorized logic simulation (numpy backend).

The event backend packs one machine word of patterns (64 pairs) per pass
and spends a Python-level lambda call per gate per word.  This module
widens the word: each net's value is a ``numpy uint64`` array of *W*
words — ``64 * W`` patterns per pass (default ``W = 64``, i.e. 4096) —
and a single pass over the levelized plan evaluates every gate with
vectorized bitwise ops.  The compiled sum-of-products evaluators from
:mod:`repro.netlist.simulator` are reused verbatim: their bodies contain
only ``&``, ``|`` and ``~``, which numpy applies elementwise, so the
wide backend shares the event backend's topological order, pin indices
and truth tables and is bit-identical to it by construction.

Good-machine values are cached in the *same* per-plan LRU as the event
backend, under keys tagged with the backend name and word count, so
event and wide entries never collide and the shared
``GOOD_CACHE_SIZE`` bound governs both.  Wide entries carry their own
checksums (CRC over the raw array bytes); verification obeys the same
``REPRO_CACHE_INTEGRITY`` switch and fires the same
``fsim.good_cache_hit`` chaos seam, so the corruption-repair invariants
hold for both representations.

Environment knobs:

* ``REPRO_SIM_BACKEND`` — default simulation backend (``event``/``wide``);
* ``REPRO_SIM_WORDS`` — wide batch capacity in 64-bit words (default 64).
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.circuit import NetlistError
from repro.netlist.simulator import CompiledCircuit, cache_integrity_enabled
from repro.utils import seams
from repro.utils.observability import EngineStats

BACKEND_EVENT = "event"
BACKEND_WIDE = "wide"
_BACKENDS = (BACKEND_EVENT, BACKEND_WIDE)

# One machine word of patterns: the event backend's batch capacity and
# the wide backend's per-array-element width.
WORD_BITS = 64


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize a backend choice; ``None`` falls back to the environment.

    ``REPRO_SIM_BACKEND`` is read at call time (not import time) so the
    runner campaigns and the resynthesis loop pick the backend up
    without call-site changes, and tests can monkeypatch it.
    """
    if backend is None:
        backend = os.environ.get("REPRO_SIM_BACKEND", "").strip() or BACKEND_EVENT
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; expected one of {_BACKENDS}"
        )
    return backend


def resolve_words(words: Optional[int] = None) -> int:
    """Wide batch capacity in 64-bit words (``REPRO_SIM_WORDS``, default 64)."""
    if words is None:
        words = int(os.environ.get("REPRO_SIM_WORDS", "64"))
    if words < 1:
        raise ValueError(f"wide backend needs at least one word, got {words}")
    return words


def batch_capacity(
    backend: Optional[str] = None, words: Optional[int] = None
) -> int:
    """Maximum patterns per batch for *backend*.

    The event backend packs one machine word (64 pairs); the wide
    backend packs ``64 * REPRO_SIM_WORDS`` (4096 by default).
    """
    if resolve_backend(backend) == BACKEND_EVENT:
        return WORD_BITS
    return WORD_BITS * resolve_words(words)


def words_for(n_patterns: int) -> int:
    """Words needed to hold *n_patterns* (at least one)."""
    return max(1, -(-n_patterns // WORD_BITS))


# ----------------------------------------------------------------------
# Packing between Python-int bit vectors and uint64 word arrays
# ----------------------------------------------------------------------
def pack_word(value: int, words: int) -> np.ndarray:
    """Split a Python-int bit vector into *words* little-endian uint64 words."""
    raw = (value & ((1 << (WORD_BITS * words)) - 1)).to_bytes(
        8 * words, "little"
    )
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


def unpack_word(array: np.ndarray) -> int:
    """Inverse of :func:`pack_word`: word array back to one Python int."""
    return int.from_bytes(
        np.ascontiguousarray(array, dtype="<u8").tobytes(), "little"
    )


def wide_mask(n_patterns: int, words: int) -> np.ndarray:
    """The all-patterns-ones mask as a word array (bits ``>= n`` clear)."""
    return pack_word((1 << n_patterns) - 1, words)


# ----------------------------------------------------------------------
# Wide good-machine simulation with shared, checksummed LRU caching
# ----------------------------------------------------------------------
def wide_checksum(entry: Tuple[np.ndarray, ...]) -> Tuple[int, ...]:
    """Order-sensitive checksum of a cached wide entry (one CRC per frame)."""
    return tuple(
        zlib.crc32(np.ascontiguousarray(frame, dtype=np.uint64).tobytes())
        for frame in entry
    )


def simulate_wide(
    plan: CompiledCircuit,
    pi_values: Mapping[str, int],
    mask: np.ndarray,
    words: int,
) -> np.ndarray:
    """One dense vectorized pass; returns a ``(n_nets, words)`` uint64 array.

    Row *i* holds net *i*'s value words (the plan's dense net indices).
    """
    values = np.zeros((plan.n_nets, words), dtype=np.uint64)
    values[1] = mask
    net_index = plan.net_index
    for pi in plan.pi_order:
        try:
            packed = pack_word(pi_values[pi], words)
        except KeyError:
            raise NetlistError(
                f"missing value for primary input {pi}"
            ) from None
        values[net_index[pi]] = packed & mask
    gate_eval = plan.gate_eval
    gate_out = plan.gate_out
    for gi in range(len(gate_out)):
        values[gate_out[gi]] = gate_eval[gi](values, mask)
    return values


def wide_good_values(
    plan: CompiledCircuit,
    batch_key: tuple,
    frames: Sequence[Mapping[str, int]],
    mask: np.ndarray,
    words: int,
    stats: Optional[EngineStats] = None,
) -> Tuple[np.ndarray, ...]:
    """LRU-cached wide good-machine simulation of packed input *frames*.

    Shares the plan's good-value LRU (and its lock, bound and eviction)
    with the event backend; *batch_key* must already carry the backend
    tag and word count so the two representations never collide.  Hits
    are verified against a CRC checksum when cache integrity checking is
    on — a corrupted entry is dropped and re-simulated, keeping results
    bit-exact, with the repair counted on
    ``EngineStats.cache_integrity_failures``.
    """
    with plan._good_lock:
        cached = plan.good_cache.get(batch_key)
        if cached is not None and seams.active:
            # Same chaos seam as the event path: a harness may corrupt
            # (or drop) the entry in place before it is served.
            seams.fire(
                "fsim.good_cache_hit", plan=plan, batch_key=batch_key
            )
            cached = plan.good_cache.get(batch_key)
        if cached is not None and cache_integrity_enabled():
            expect = plan.good_sums.get(batch_key)
            if expect is not None and wide_checksum(cached) != expect:
                del plan.good_cache[batch_key]
                plan.good_sums.pop(batch_key, None)
                if stats is not None:
                    stats.cache_integrity_failures += 1
                cached = None
        if cached is not None:
            plan.good_cache.move_to_end(batch_key)
            if stats is not None:
                stats.good_cache_hits += len(cached)
            return cached
    result = tuple(simulate_wide(plan, f, mask, words) for f in frames)
    if stats is not None:
        stats.good_simulations += len(result)
        stats.vector_ops += len(result) * len(plan.gate_out)
    with plan._good_lock:
        winner = plan.good_cache.get(batch_key)
        if winner is not None:
            plan.good_cache.move_to_end(batch_key)
            return winner
        plan.good_cache[batch_key] = result
        plan.good_sums[batch_key] = wide_checksum(result)
        while len(plan.good_cache) > plan.GOOD_CACHE_SIZE:
            evicted, _ = plan.good_cache.popitem(last=False)
            plan.good_sums.pop(evicted, None)
    return result
