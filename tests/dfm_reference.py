"""Reference DFM checker: guideline queries as they stood before tuning.

The original :func:`repro.dfm.checker.check_layout` and its helpers,
verbatim: via neighbours counted with one dict probe per grid point and
radius, every guideline family searched per site through
``_strictest``, crossings counted track by track and density windows
filled one track at a time.  It is the oracle for
``tests/test_dfm_differential.py``: the live checker must return the
same violations in the same order, since fault extraction de-duplicates
sites first-come and clustering keeps the first-seen fault of a class.
Do not use it outside tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dfm.checker import BRIDGE, OPEN, LayoutViolation
from repro.dfm.guidelines import Guideline, all_guidelines
from repro.physical.layout import Layout, M2, RouteSegment, Via
from repro.physical.routing import subtrack


def check_layout(
    layout: Layout, guidelines: Optional[Sequence[Guideline]] = None
) -> List[LayoutViolation]:
    """Evaluate the guideline deck on *layout*; return all violations."""
    deck = list(guidelines) if guidelines is not None else all_guidelines()
    by_rule: Dict[str, List[Guideline]] = {}
    for g in deck:
        by_rule.setdefault(g.rule, []).append(g)

    violations: List[LayoutViolation] = []
    h_by_row: Dict[int, List[RouteSegment]] = {}
    v_by_col: Dict[int, List[RouteSegment]] = {}
    for seg in layout.segments:
        if seg.horizontal:
            h_by_row.setdefault(seg.y1, []).append(seg)
        else:
            v_by_col.setdefault(seg.x1, []).append(seg)
    via_grid: Dict[Tuple[int, int], int] = {}
    for via in layout.vias:
        via_grid[(via.x, via.y)] = via_grid.get((via.x, via.y), 0) + 1

    def neighbours(via: Via, r: int) -> int:
        count = 0
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                count += via_grid.get((via.x + dx, via.y + dy), 0)
        return count - 1  # exclude the via itself

    # ---- via rules -----------------------------------------------------
    iso = by_rule.get("isolated_via", [])
    crowd = by_rule.get("crowded_via", [])
    near = by_rule.get("via_near_metal", [])
    for via in layout.vias:
        ncache: Dict[int, int] = {}

        def ncnt(r: int) -> int:
            if r not in ncache:
                ncache[r] = neighbours(via, r)
            return ncache[r]

        hit = _strictest(
            iso, key=lambda g: (g.params["t"], g.params["r"]),
            pred=lambda g: ncnt(g.params["r"]) <= g.params["t"],
            prefer_smallest=True,
        )
        if hit:
            violations.append(LayoutViolation(
                hit.gid, OPEN, via.net, None, (via.x, via.y), via.owner,
            ))
        hit = _strictest(
            crowd, key=lambda g: g.params["t"],
            pred=lambda g: ncnt(g.params["r"]) >= g.params["t"],
            prefer_smallest=False,
        )
        if hit:
            violations.append(LayoutViolation(
                hit.gid, OPEN, via.net, None, (via.x, via.y), via.owner,
            ))
        if near:
            foreign_len, foreign_net = _foreign_metal(
                via, h_by_row, v_by_col
            )
            hit = _strictest(
                near, key=lambda g: g.params["t"],
                pred=lambda g: foreign_len >= g.params["t"],
                prefer_smallest=False,
            )
            if hit and foreign_net is not None:
                violations.append(LayoutViolation(
                    hit.gid, BRIDGE, via.net, foreign_net,
                    (via.x, via.y), None,
                ))

    # ---- metal rules ---------------------------------------------------
    prun = by_rule.get("parallel_run", [])
    if prun:
        for pair, overlap, loc in _parallel_pairs(h_by_row, v_by_col):
            hit = _strictest(
                prun, key=lambda g: g.params["t"],
                pred=lambda g: overlap >= g.params["t"],
                prefer_smallest=False,
            )
            if hit:
                violations.append(LayoutViolation(
                    hit.gid, BRIDGE, pair[0], pair[1], loc, None,
                ))
    lwire = by_rule.get("long_wire", [])
    xings = by_rule.get("many_crossings", [])
    for seg in layout.segments:
        hit = _strictest(
            lwire, key=lambda g: g.params["t"],
            pred=lambda g: seg.length >= g.params["t"],
            prefer_smallest=False,
        )
        if hit:
            violations.append(LayoutViolation(
                hit.gid, OPEN, seg.net, None, (seg.x1, seg.y1), None,
            ))
        if xings:
            n_cross = _crossings(seg, h_by_row, v_by_col)
            hit = _strictest(
                xings, key=lambda g: g.params["t"],
                pred=lambda g: n_cross >= g.params["t"],
                prefer_smallest=False,
            )
            if hit:
                violations.append(LayoutViolation(
                    hit.gid, OPEN, seg.net, None, (seg.x1, seg.y1), None,
                ))

    # ---- density rules ---------------------------------------------------
    dlow = by_rule.get("density_low", [])
    dhigh = by_rule.get("density_high", [])
    for w in sorted({g.params["w"] for g in dlow + dhigh}):
        for (wx, wy), length_by_net in _windows(layout, w).items():
            total = sum(length_by_net.values())
            density = total / float(w * w)
            nets = sorted(
                length_by_net, key=lambda n: (-length_by_net[n], n)
            )
            hit = _strictest(
                [g for g in dlow if g.params["w"] == w],
                key=lambda g: g.params["lo"],
                pred=lambda g: density * 100.0 < g.params["lo"],
                prefer_smallest=True,
            )
            if hit and nets:
                for net in nets[:2]:
                    violations.append(LayoutViolation(
                        hit.gid, OPEN, net, None, (wx, wy), None,
                    ))
            hit = _strictest(
                [g for g in dhigh if g.params["w"] == w],
                key=lambda g: g.params["hi"],
                pred=lambda g: density * 100.0 > g.params["hi"],
                prefer_smallest=False,
            )
            if hit and len(nets) >= 2:
                violations.append(LayoutViolation(
                    hit.gid, BRIDGE, nets[0], nets[1], (wx, wy), None,
                ))
    return violations


def _strictest(guidelines, key, pred, prefer_smallest):
    """The most specific guideline whose predicate holds, or None."""
    best = None
    for g in guidelines:
        if not pred(g):
            continue
        if best is None:
            best = g
        elif prefer_smallest and key(g) < key(best):
            best = g
        elif not prefer_smallest and key(g) > key(best):
            best = g
    return best


def _foreign_metal(
    via: Via,
    h_by_row: Dict[int, List[RouteSegment]],
    v_by_col: Dict[int, List[RouteSegment]],
) -> Tuple[int, Optional[str]]:
    """Longest other-net segment on the via's upper layer within 1 track."""
    best_len, best_net = 0, None
    if via.upper == M2:
        for y in (via.y - 1, via.y, via.y + 1):
            for seg in h_by_row.get(y, ()):
                if seg.net == via.net:
                    continue
                if seg.x1 - 1 <= via.x <= seg.x2 + 1 and seg.length > best_len:
                    best_len, best_net = seg.length, seg.net
    else:
        for x in (via.x - 1, via.x, via.x + 1):
            for seg in v_by_col.get(x, ()):
                if seg.net == via.net:
                    continue
                if seg.y1 - 1 <= via.y <= seg.y2 + 1 and seg.length > best_len:
                    best_len, best_net = seg.length, seg.net
    return best_len, best_net


def _parallel_pairs(
    h_by_row: Dict[int, List[RouteSegment]],
    v_by_col: Dict[int, List[RouteSegment]],
):
    """Yield ((netA, netB), overlap, location) for adjacent-track runs.

    Each unordered net pair is reported once per channel with its maximum
    overlap; sub-tracks within a channel must differ by at most 1 for the
    nets to be adjacent.
    """
    for y, segs in sorted(h_by_row.items()):
        best: Dict[Tuple[str, str], Tuple[int, Tuple[int, int]]] = {}
        ordered = sorted(segs, key=lambda s: (s.x1, s.x2, s.net))
        for i, a in enumerate(ordered):
            sa = subtrack(a.net, True)
            for b in ordered[i + 1:]:
                if b.x1 > a.x2:
                    break
                if b.net == a.net:
                    continue
                if abs(subtrack(b.net, True) - sa) > 1:
                    continue
                overlap = min(a.x2, b.x2) - b.x1
                if overlap <= 0:
                    continue
                key = tuple(sorted((a.net, b.net)))
                if key not in best or overlap > best[key][0]:
                    best[key] = (overlap, (b.x1, y))
        for (na, nb), (overlap, loc) in sorted(best.items()):
            yield (na, nb), overlap, loc
    for x, segs in sorted(v_by_col.items()):
        best = {}
        ordered = sorted(segs, key=lambda s: (s.y1, s.y2, s.net))
        for i, a in enumerate(ordered):
            sa = subtrack(a.net, False)
            for b in ordered[i + 1:]:
                if b.y1 > a.y2:
                    break
                if b.net == a.net:
                    continue
                if abs(subtrack(b.net, False) - sa) > 1:
                    continue
                overlap = min(a.y2, b.y2) - b.y1
                if overlap <= 0:
                    continue
                key = tuple(sorted((a.net, b.net)))
                if key not in best or overlap > best[key][0]:
                    best[key] = (overlap, (x, b.y1))
        for (na, nb), (overlap, loc) in sorted(best.items()):
            yield (na, nb), overlap, loc


def _crossings(
    seg: RouteSegment,
    h_by_row: Dict[int, List[RouteSegment]],
    v_by_col: Dict[int, List[RouteSegment]],
) -> int:
    """Number of foreign orthogonal segments crossing *seg*."""
    count = 0
    if seg.horizontal:
        for x in range(seg.x1, seg.x2 + 1):
            for other in v_by_col.get(x, ()):
                if other.net != seg.net and other.y1 <= seg.y1 <= other.y2:
                    count += 1
    else:
        for y in range(seg.y1, seg.y2 + 1):
            for other in h_by_row.get(y, ()):
                if other.net != seg.net and other.x1 <= seg.x1 <= other.x2:
                    count += 1
    return count


def _windows(layout: Layout, w: int) -> Dict[Tuple[int, int], Dict[str, int]]:
    """Per-window wirelength by net, tiling the die with w x w windows."""
    out: Dict[Tuple[int, int], Dict[str, int]] = {}
    for seg in layout.segments:
        if seg.horizontal:
            y = seg.y1
            for x in range(seg.x1, seg.x2 + 1):
                key = (x // w, y // w)
                bucket = out.setdefault(key, {})
                bucket[seg.net] = bucket.get(seg.net, 0) + 1
        else:
            x = seg.x1
            for y in range(seg.y1, seg.y2 + 1):
                key = (x // w, y // w)
                bucket = out.setdefault(key, {})
                bucket[seg.net] = bucket.get(seg.net, 0) + 1
    return out
