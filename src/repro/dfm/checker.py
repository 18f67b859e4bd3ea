"""DFM guideline checker over the layout geometry.

For every defect-prone *site* (via, segment, segment pair, density
window) the checker computes the relevant metric once and reports a
violation of the **most specific** guideline of the matching family —
the same way sign-off decks report the worst matching recommendation —
so one physical site yields at most one violation per family.

Each family is sorted once per call, most specific first (a stable
sort, so ties keep deck order), and a site takes the first guideline
whose predicate holds.  Via neighbour counts are box queries on a 2-D
prefix-sum table of the via grid, built once per call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dfm.guidelines import Guideline, all_guidelines
from repro.physical.layout import Layout, M2, RouteSegment, Via
from repro.physical.routing import subtrack

OPEN = "open"
BRIDGE = "bridge"

#: A segment within its channel: (lo, hi, net, length) along the channel.
Span = Tuple[int, int, str, int]


@dataclass(frozen=True)
class LayoutViolation:
    """One DFM violation site in the layout."""

    guideline: str
    kind: str  # OPEN | BRIDGE
    net: str
    other_net: Optional[str]
    location: Tuple[int, int]
    owner: Optional[Tuple[str, str]]  # (gate, pin) for pin-via opens


def check_layout(
    layout: Layout, guidelines: Optional[Sequence[Guideline]] = None
) -> List[LayoutViolation]:
    """Evaluate the guideline deck on *layout*; return all violations."""
    deck = list(guidelines) if guidelines is not None else all_guidelines()
    by_rule: Dict[str, List[Guideline]] = {}
    for g in deck:
        by_rule.setdefault(g.rule, []).append(g)

    def family(rule, key=lambda g: g.params["t"], smallest=False):
        """*rule*'s guidelines, most specific first (ties in deck order)."""
        return sorted(by_rule.get(rule, []), key=key, reverse=not smallest)

    violations: List[LayoutViolation] = []
    segments = [(seg, seg.horizontal, seg.length) for seg in layout.segments]
    h_by_row: Dict[int, List[Span]] = {}
    v_by_col: Dict[int, List[Span]] = {}
    for seg, horizontal, length in segments:
        if horizontal:
            h_by_row.setdefault(seg.y1, []).append(
                (seg.x1, seg.x2, seg.net, length)
            )
        else:
            v_by_col.setdefault(seg.x1, []).append(
                (seg.y1, seg.y2, seg.net, length)
            )

    # ---- via rules -----------------------------------------------------
    iso = family(
        "isolated_via", lambda g: (g.params["t"], g.params["r"]), True
    )
    crowd = family("crowded_via")
    near = family("via_near_metal")
    radii = {g.params["r"] for g in iso + crowd}
    neighbours = _via_counter(layout.vias, max(radii, default=0))
    for via in layout.vias:
        ncnt = {r: neighbours(via.x, via.y, r) for r in radii}
        for g in iso:
            if ncnt[g.params["r"]] <= g.params["t"]:
                violations.append(LayoutViolation(
                    g.gid, OPEN, via.net, None, (via.x, via.y), via.owner,
                ))
                break
        for g in crowd:
            if ncnt[g.params["r"]] >= g.params["t"]:
                violations.append(LayoutViolation(
                    g.gid, OPEN, via.net, None, (via.x, via.y), via.owner,
                ))
                break
        if not near:
            continue
        foreign_len, foreign_net = _foreign_metal(via, h_by_row, v_by_col)
        if foreign_net is None:
            continue
        for g in near:
            if foreign_len >= g.params["t"]:
                violations.append(LayoutViolation(
                    g.gid, BRIDGE, via.net, foreign_net, (via.x, via.y),
                    None,
                ))
                break

    # ---- metal rules ---------------------------------------------------
    prun = family("parallel_run")
    if prun:
        for pair, overlap, loc in _parallel_pairs(h_by_row, v_by_col):
            for g in prun:
                if overlap >= g.params["t"]:
                    violations.append(LayoutViolation(
                        g.gid, BRIDGE, pair[0], pair[1], loc, None,
                    ))
                    break
    lwire = family("long_wire")
    xings = family("many_crossings")
    orthogonal = {True: (v_by_col, sorted(v_by_col)),
                  False: (h_by_row, sorted(h_by_row))}
    for seg, horizontal, length in segments:
        for g in lwire:
            if length >= g.params["t"]:
                violations.append(LayoutViolation(
                    g.gid, OPEN, seg.net, None, (seg.x1, seg.y1), None,
                ))
                break
        if not xings:
            continue
        n_cross = _crossings(seg, horizontal, *orthogonal[horizontal])
        for g in xings:
            if n_cross >= g.params["t"]:
                violations.append(LayoutViolation(
                    g.gid, OPEN, seg.net, None, (seg.x1, seg.y1), None,
                ))
                break

    # ---- density rules ---------------------------------------------------
    dlow = by_rule.get("density_low", [])
    dhigh = by_rule.get("density_high", [])
    for w in sorted({g.params["w"] for g in dlow + dhigh}):
        low = sorted((g for g in dlow if g.params["w"] == w),
                     key=lambda g: g.params["lo"])
        high = sorted((g for g in dhigh if g.params["w"] == w),
                      key=lambda g: g.params["hi"], reverse=True)
        for (wx, wy), length_by_net in _windows(segments, w).items():
            total = sum(length_by_net.values())
            density = total / float(w * w)
            nets = sorted(
                length_by_net, key=lambda n: (-length_by_net[n], n)
            )
            for g in low:
                if density * 100.0 < g.params["lo"]:
                    for net in nets[:2]:
                        violations.append(LayoutViolation(
                            g.gid, OPEN, net, None, (wx, wy), None,
                        ))
                    break
            if len(nets) < 2:
                continue
            for g in high:
                if density * 100.0 > g.params["hi"]:
                    violations.append(LayoutViolation(
                        g.gid, BRIDGE, nets[0], nets[1], (wx, wy), None,
                    ))
                    break
    return violations


def _via_counter(
    vias: Sequence[Via], reach: int
) -> Callable[[int, int, int], int]:
    """``neighbours(x, y, r)``: vias within Chebyshev radius *r* <= *reach*
    of the via at (x, y), itself excluded, as one box query on a 2-D
    prefix-sum table of the via grid.  The grid is padded by *reach* on
    every side, so no query needs clipping."""
    x0 = min((v.x for v in vias), default=0) - reach
    y0 = min((v.y for v in vias), default=0) - reach
    width = max((v.x for v in vias), default=0) + reach - x0 + 1
    stride = max((v.y for v in vias), default=0) + reach - y0 + 2
    # table[i * stride + j]: vias with x - x0 < i and y - y0 < j.
    table = [0] * ((width + 1) * stride)
    for v in vias:
        table[(v.x - x0 + 1) * stride + v.y - y0 + 1] += 1
    for row in range(stride, len(table), stride):
        run = 0
        for k in range(row + 1, row + stride):
            run += table[k]
            table[k] = table[k - stride] + run

    def neighbours(x: int, y: int, r: int) -> int:
        i0 = (x - x0 - r) * stride
        i1 = (x - x0 + r + 1) * stride
        j0 = y - y0 - r
        j1 = y - y0 + r + 1
        return (table[i1 + j1] - table[i0 + j1] - table[i1 + j0]
                + table[i0 + j0] - 1)

    return neighbours


def _foreign_metal(
    via: Via,
    h_by_row: Dict[int, List[Span]],
    v_by_col: Dict[int, List[Span]],
) -> Tuple[int, Optional[str]]:
    """Longest other-net segment on the via's upper layer within 1 track."""
    if via.upper == M2:
        lines, along, across = h_by_row, via.x, via.y
    else:
        lines, along, across = v_by_col, via.y, via.x
    best_len, best_net = 0, None
    for k in (across - 1, across, across + 1):
        for lo, hi, net, length in lines.get(k, ()):
            if net == via.net:
                continue
            if lo - 1 <= along <= hi + 1 and length > best_len:
                best_len, best_net = length, net
    return best_len, best_net


def _parallel_pairs(
    h_by_row: Dict[int, List[Span]],
    v_by_col: Dict[int, List[Span]],
):
    """Yield ((netA, netB), overlap, location) for adjacent-track runs.

    Each unordered net pair is reported once per channel with its maximum
    overlap; sub-tracks within a channel must differ by at most 1 for the
    nets to be adjacent.  Horizontal channels come first.
    """
    for horizontal, channels in ((True, h_by_row), (False, v_by_col)):
        nets = {span[2] for spans in channels.values() for span in spans}
        track = {net: subtrack(net, horizontal) for net in nets}
        for c, spans in sorted(channels.items()):
            best: Dict[Tuple[str, str], Tuple[int, Tuple[int, int]]] = {}
            ordered = sorted(spans)
            for i, (_lo, hi_a, net_a, _len) in enumerate(ordered):
                for j in range(i + 1, len(ordered)):
                    lo_b, hi_b, net_b, _len = ordered[j]
                    if lo_b > hi_a:
                        break
                    if net_b == net_a or abs(track[net_b] - track[net_a]) > 1:
                        continue
                    overlap = min(hi_a, hi_b) - lo_b
                    if overlap <= 0:
                        continue
                    key = (net_a, net_b) if net_a < net_b else (net_b, net_a)
                    if key not in best or overlap > best[key][0]:
                        loc = (lo_b, c) if horizontal else (c, lo_b)
                        best[key] = (overlap, loc)
            for (na, nb), (overlap, loc) in sorted(best.items()):
                yield (na, nb), overlap, loc


def _crossings(
    seg: RouteSegment,
    horizontal: bool,
    lines: Dict[int, List[Span]],
    keys: List[int],
) -> int:
    """Number of foreign orthogonal segments crossing *seg*.

    *lines* holds the orthogonal layer's spans by channel and *keys* its
    sorted channels: only occupied channels within *seg* are visited.
    """
    if horizontal:
        lo, hi, at = seg.x1, seg.x2, seg.y1
    else:
        lo, hi, at = seg.y1, seg.y2, seg.x1
    own = seg.net
    count = 0
    for k in keys[bisect_left(keys, lo):bisect_right(keys, hi)]:
        for a, b, net, _len in lines[k]:
            if net != own and a <= at <= b:
                count += 1
    return count


def _windows(
    segments: List[Tuple[RouteSegment, bool, int]], w: int
) -> Dict[Tuple[int, int], Dict[str, int]]:
    """Per-window wirelength by net, tiling the die with w x w windows.

    A segment adds its run through each window in one step, in the
    window and net order of a track-by-track walk.
    """
    out: Dict[Tuple[int, int], Dict[str, int]] = {}
    for seg, horizontal, _len in segments:
        if horizontal:
            lo, hi, across = seg.x1, seg.x2, seg.y1 // w
        else:
            lo, hi, across = seg.y1, seg.y2, seg.x1 // w
        while lo <= hi:
            c = lo // w
            end = min(hi, c * w + w - 1)
            key = (c, across) if horizontal else (across, c)
            bucket = out.setdefault(key, {})
            bucket[seg.net] = bucket.get(seg.net, 0) + end - lo + 1
            lo = end + 1
    return out
