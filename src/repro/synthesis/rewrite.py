"""AIG optimization passes: balancing and cut-based refactoring.

These are deliberately modest versions of the classic passes: `balance`
rebuilds flattened AND trees with minimum depth (Huffman pairing on
levels), and `rewrite` re-expresses each node from the truth table of a
small structural cut, keeping the result only when it shrinks the graph.
Together with structural hashing at construction they give the mapper a
reasonable starting point.

``tt_support`` and ``shrink_tt`` are pure functions of small truth
tables that the mapper and ``rewrite`` evaluate for every cut; their
memoized private forms ``_support`` and ``_shrink`` take and return
tuples, so a cached value cannot be changed by a caller.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.synthesis.aig import FALSE, Aig, is_compl, lit_of, node_of

_CUT_SIZE = 4
_CUTS_PER_NODE = 8

# Standard simulation patterns for up-to-4-variable cut functions.
_VAR_PATTERNS = (0xAAAA, 0xCCCC, 0xF0F0, 0xFF00)
_TT_MASK = 0xFFFF

# Entries kept by each truth-table helper memo; a 4-leaf cut has 2**16
# functions.
_TT_MEMO_SIZE = 1 << 16


def balance(aig: Aig) -> Aig:
    """Depth-minimizing AND-tree balancing.

    Conjunctions are flattened through non-complemented AND edges and
    re-paired smallest-level-first, which minimizes the depth of each
    tree; structural hashing re-shares common subtrees.
    """
    new = Aig(aig.num_pis, aig.pi_names)
    remap: Dict[int, int] = {0: FALSE}
    for i in range(1, aig.num_pis + 1):
        remap[i] = lit_of(i)
    level: Dict[int, int] = {}

    def new_level(lit: int) -> int:
        return level.get(node_of(lit), 0)

    refs = aig.fanout_counts()

    def conjuncts(lit: int, depth: int) -> List[int]:
        """Flatten the conjunction rooted at *lit* (in the old graph)."""
        node = node_of(lit)
        fi = aig.fanins[node]
        # Stop at complemented edges, PIs, shared nodes, or depth cap.
        if is_compl(lit) or fi is None or refs[node] > 1 or depth >= 8:
            return [lit]
        return conjuncts(fi[0], depth + 1) + conjuncts(fi[1], depth + 1)

    for n in aig.and_nodes():
        f0, f1 = aig.fanins[n]  # type: ignore[misc]
        parts = conjuncts(f0, 1) + conjuncts(f1, 1)
        mapped = [remap[node_of(p)] ^ (1 if is_compl(p) else 0) for p in parts]
        heap: List[Tuple[int, int, int]] = [
            (new_level(m), i, m) for i, m in enumerate(mapped)
        ]
        heapq.heapify(heap)
        uid = len(mapped)
        while len(heap) > 1:
            l0, _, a = heapq.heappop(heap)
            l1, _, b = heapq.heappop(heap)
            lit = new.and_(a, b)
            level[node_of(lit)] = max(l0, l1) + 1
            heapq.heappush(heap, (level.get(node_of(lit), 0), uid, lit))
            uid += 1
        remap[n] = heap[0][2]
    for o, name in zip(aig.outputs, aig.output_names):
        new.add_output(remap[node_of(o)] ^ (1 if is_compl(o) else 0), name)
    return new.cleanup()


def enumerate_cuts(aig: Aig) -> List[List[Tuple[int, ...]]]:
    """K-feasible cuts per node (each cut a sorted tuple of leaf nodes).

    The trivial cut ``(n,)`` is always included and is always last.
    Dominated cuts (supersets of another cut) are pruned.  Cuts are
    merged and compared as bitmasks over node ids; the leaf tuple of a
    merged cut is built once per distinct mask.
    """
    cuts: List[List[Tuple[int, ...]]] = [[] for _ in range(aig.num_nodes)]
    masks: List[List[int]] = [[] for _ in range(aig.num_nodes)]
    cuts[0], masks[0] = [(0,)], [1]
    for i in range(1, aig.num_pis + 1):
        cuts[i], masks[i] = [(i,)], [1 << i]
    for n in aig.and_nodes():
        f0, f1 = aig.fanins[n]  # type: ignore[misc]
        n0, n1 = node_of(f0), node_of(f1)
        c1s, m1s = cuts[n1], masks[n1]
        seen: Dict[int, Tuple[int, ...]] = {}
        for c0, m0 in zip(cuts[n0], masks[n0]):
            for c1, m1 in zip(c1s, m1s):
                m = m0 | m1
                if m not in seen and m.bit_count() <= _CUT_SIZE:
                    seen[m] = tuple(sorted({*c0, *c1}))
        cand = sorted(seen.items(), key=lambda mc: (len(mc[1]), mc[1]))
        kept: List[Tuple[int, ...]] = []
        kept_masks: List[int] = []
        for m, c in cand:
            if any(k | m == m for k in kept_masks):
                continue
            kept.append(c)
            kept_masks.append(m)
            if len(kept) >= _CUTS_PER_NODE:
                break
        kept.append((n,))
        kept_masks.append(1 << n)
        cuts[n], masks[n] = kept, kept_masks
    return cuts


def cut_tt(aig: Aig, root: int, cut: Tuple[int, ...]) -> int:
    """Truth table (16-bit, over cut leaves LSB-first) of *root*'s cone."""
    values: Dict[int, int] = {0: 0}
    for i, leaf in enumerate(cut):
        values[leaf] = _VAR_PATTERNS[i]

    def value(node: int) -> int:
        got = values.get(node)
        if got is not None:
            return got
        fi = aig.fanins[node]
        if fi is None:
            raise ValueError(f"node {node} is not covered by cut {cut}")
        f0, f1 = fi
        v0 = value(node_of(f0)) ^ (_TT_MASK if is_compl(f0) else 0)
        v1 = value(node_of(f1)) ^ (_TT_MASK if is_compl(f1) else 0)
        v = v0 & v1 & _TT_MASK
        values[node] = v
        return v

    return value(root)


def tt_support(tt: int, n: int) -> List[int]:
    """Indices of variables the n-variable function *tt* depends on."""
    return list(_support(tt, n))


@lru_cache(maxsize=_TT_MEMO_SIZE)
def _support(tt: int, n: int) -> Tuple[int, ...]:
    out = []
    for i in range(n):
        shift = 1 << i
        moved = 0
        for m in range(1 << n):
            if not (m >> i) & 1:
                if ((tt >> m) & 1) != ((tt >> (m | shift)) & 1):
                    moved = 1
                    break
        if moved:
            out.append(i)
    return tuple(out)


def shrink_tt(tt: int, n: int, support: Sequence[int]) -> int:
    """Project *tt* onto its support variables (reindexed 0..k-1)."""
    return _shrink(tt, n, tuple(support))


@lru_cache(maxsize=_TT_MEMO_SIZE)
def _shrink(tt: int, n: int, support: Tuple[int, ...]) -> int:
    k = len(support)
    out = 0
    for m in range(1 << k):
        full = 0
        for j, var in enumerate(support):
            if (m >> j) & 1:
                full |= 1 << var
        if (tt >> full) & 1:
            out |= 1 << m
    return out


def rewrite(aig: Aig) -> Aig:
    """Cut-based refactor: rebuild each node from a 4-cut truth table.

    The result is kept only if it has fewer AND nodes than the input
    (after cleanup); otherwise the cleaned input is returned.
    """
    base = aig.cleanup()
    cuts = enumerate_cuts(base)
    new = Aig(base.num_pis, base.pi_names)
    remap: Dict[int, int] = {0: FALSE}
    for i in range(1, base.num_pis + 1):
        remap[i] = lit_of(i)
    for n in base.and_nodes():
        best = None
        for cut in cuts[n]:
            if cut == (n,):
                continue
            tt = cut_tt(base, n, cut)
            sup = _support(tt, len(cut))
            leaves = [cut[i] for i in sup]
            stt = _shrink(tt, len(cut), sup)
            lit = new.from_tt(stt, [remap[leaf] for leaf in leaves])
            if best is None or lit < best:
                best = lit
                break  # first (smallest) cut is typically best; cheap pass
        if best is None:  # only the trivial cut: rebuild from fanins
            f0, f1 = base.fanins[n]  # type: ignore[misc]
            a = remap[node_of(f0)] ^ (1 if is_compl(f0) else 0)
            b = remap[node_of(f1)] ^ (1 if is_compl(f1) else 0)
            best = new.and_(a, b)
        remap[n] = best
    for o, name in zip(base.outputs, base.output_names):
        new.add_output(remap[node_of(o)] ^ (1 if is_compl(o) else 0), name)
    new = new.cleanup()
    return new if new.num_ands() < base.num_ands() else base
