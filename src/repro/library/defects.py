"""Cell-internal DFM defect enumeration and switch-level fault translation.

Following the methodology of refs [7]-[9] of the paper, each standard cell
is analyzed at the transistor level:

1. enumerate physical defect *sites* that DFM guidelines can flag — contact
   opens on source/drain diffusion (one site per contact, and wider drive
   strengths have more contacts), gate-poly contact opens, channel
   stuck-on shorts, and dominant bridges between cell nodes;
2. simulate each defect at switch level over every input minterm to obtain
   the cell's faulty truth table;
3. classify the defect as *static* (wrong strong value at some minterm) or
   *dynamic* (output floats at some minterm, so a two-pattern test with
   charge retention is needed);
4. keep only defects that are testable at the cell boundary (they have at
   least one potential detecting pattern), mirroring the UDFM construction
   of ref [9];
5. tag each kept site with the DFM guideline that flags it.

Distinct physical sites with identical faulty behaviour remain distinct
faults (they are separate potential systematic defects); ATPG collapses
them by behaviour signature internally but fault *counts* follow sites,
as in industrial fault accounting.

Guideline flagging is a deterministic approximation (the real guideline
decks are proprietary): each site hashes to a guideline of the family that
matches its mechanism, and a deterministic subset of sites is flagged, with
denser/larger cells flagged at a higher rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.library.transistor import V0, V1, VZ, SwitchNetwork

VIA_GUIDELINE_COUNT = 19
METAL_GUIDELINE_COUNT = 29
DENSITY_GUIDELINE_COUNT = 11

STATIC = "static"
DYNAMIC = "dynamic"


@dataclass(frozen=True)
class CellDefect:
    """One DFM-flagged potential systematic defect inside a cell type.

    ``faulty`` holds, per input minterm, the strong faulty output value
    (0/1) or ``None`` when the faulty output is floating or unknown.
    ``floating`` lists the minterms where the output floats — for dynamic
    defects the output then retains the previous cycle's value.
    """

    cell: str
    defect_id: str
    mechanism: str  # "contact-open" | "gate-open" | "channel-on" | "bridge"
    kind: str  # STATIC | DYNAMIC
    faulty: Tuple[Optional[int], ...]
    floating: FrozenSet[int]
    guideline: str

    @property
    def signature(self) -> Tuple:
        """Equivalence key: defects with equal signatures behave alike."""
        return (self.kind, self.faulty, self.floating)

    @cached_property
    def minterm_classes(self) -> Tuple[int, int, int, int]:
        """Truth tables of the minterms whose faulty output is strong 1,
        unknown, floating and defined (strong 0 or 1), in that order."""
        strong1 = unknown = floating = defined = 0
        for m, fv in enumerate(self.faulty):
            if fv is not None:
                defined |= 1 << m
                if fv:
                    strong1 |= 1 << m
            elif m in self.floating:
                floating |= 1 << m
            else:
                unknown |= 1 << m
        return strong1, unknown, floating, defined

    def static_detecting_minterms(self, good_tt: int) -> List[int]:
        """Minterms whose strong faulty value differs from the good value."""
        out = []
        for m, fv in enumerate(self.faulty):
            if fv is not None and fv != ((good_tt >> m) & 1):
                out.append(m)
        return out

    def dynamic_detecting_pairs(self, good_tt: int) -> List[Tuple[int, int]]:
        """(init, test) minterm pairs detecting via charge retention."""
        if self.kind != DYNAMIC:
            return []
        pairs = []
        for m1 in sorted(self.floating):
            good1 = (good_tt >> m1) & 1
            for m0, fv in enumerate(self.faulty):
                if m0 == m1 or fv is None:
                    continue
                if fv != good1:
                    pairs.append((m0, m1))
        return pairs

    def is_cell_level_testable(self, good_tt: int) -> bool:
        """True if at least one potential detecting condition exists."""
        if self.static_detecting_minterms(good_tt):
            return True
        return bool(self.dynamic_detecting_pairs(good_tt))


from repro.utils.hashing import stable_hash as _stable_hash


def _assign_guideline(site_id: str, mechanism: str) -> str:
    """Map a defect site to the DFM guideline (by family) that flags it."""
    h = _stable_hash(site_id)
    if mechanism in ("contact-open", "gate-open"):
        return f"VIA-{h % VIA_GUIDELINE_COUNT + 1:02d}"
    if mechanism == "bridge":
        return f"MET-{h % METAL_GUIDELINE_COUNT + 1:02d}"
    # Channel shorts are attributed to density-related poly guidelines
    # most of the time, metal otherwise.
    if h % 10 < 7:
        return f"DEN-{h % DENSITY_GUIDELINE_COUNT + 1:02d}"
    return f"MET-{h % METAL_GUIDELINE_COUNT + 1:02d}"


def _is_flagged(site_id: str, flag_rate: int) -> bool:
    """Deterministically decide whether DFM guidelines flag this site."""
    return _stable_hash("flag:" + site_id) % 100 < flag_rate


def _faulty_response(
    network: SwitchNetwork,
    overrides: Optional[Dict[str, str]] = None,
    bridges: Sequence[Tuple[str, str]] = (),
) -> Tuple[Tuple[Optional[int], ...], FrozenSet[int]]:
    """Simulate a defect over all minterms; return (faulty values, floats)."""
    n = 1 << len(network.inputs)
    faulty: List[Optional[int]] = []
    floating: List[int] = []
    for m in range(n):
        v = network.evaluate(m, overrides=overrides, bridges=bridges)
        if v in (V0, V1):
            faulty.append(v)
        else:
            faulty.append(None)
            if v == VZ:
                floating.append(m)
    return tuple(faulty), frozenset(floating)


def enumerate_cell_defects(
    cell_name: str,
    network: SwitchNetwork,
    drive: int,
    flag_rate: int,
) -> List[CellDefect]:
    """Enumerate the DFM-flagged, cell-level-testable defects of a cell.

    *drive* is the drive-strength factor; it sets the number of
    source/drain contacts per transistor (wider devices need more
    contacts), which is the main reason larger cells carry more internal
    DFM faults.  *flag_rate* is the percentage of sites flagged by the
    guideline deck for this cell's layout style.
    """
    good_tt = network.good_tt()
    defects: List[CellDefect] = []

    def consider(
        defect_id: str,
        mechanism: str,
        overrides: Optional[Dict[str, str]] = None,
        bridges: Sequence[Tuple[str, str]] = (),
    ) -> None:
        site = f"{cell_name}:{defect_id}"
        if not _is_flagged(site, flag_rate):
            return
        faulty, floating = _faulty_response(network, overrides, bridges)
        kind = DYNAMIC if floating else STATIC
        defect = CellDefect(
            cell=cell_name,
            defect_id=defect_id,
            mechanism=mechanism,
            kind=kind,
            faulty=faulty,
            floating=floating,
            guideline=_assign_guideline(site, mechanism),
        )
        if defect.is_cell_level_testable(good_tt):
            defects.append(defect)

    for tid in network.transistor_ids():
        # Source and drain diffusions each carry `drive` contacts.
        for k in range(2 * drive):
            consider(f"{tid}:copen{k}", "contact-open", overrides={tid: "open"})
        consider(f"{tid}:gopen", "gate-open", overrides={tid: "open"})
        consider(f"{tid}:chon", "channel-on", overrides={tid: "on"})

    # Dominant bridges: every stage output to the rails, adjacent input
    # pins both ways, and the first input onto each stage output.
    for node in network.node_names():
        consider(f"br:{node}-VDD", "bridge", bridges=[(node, "VDD")])
        consider(f"br:{node}-GND", "bridge", bridges=[(node, "GND")])
    pins = network.inputs
    for i in range(len(pins) - 1):
        consider(
            f"br:{pins[i]}-{pins[i + 1]}", "bridge",
            bridges=[(pins[i], pins[i + 1])],
        )
        consider(
            f"br:{pins[i + 1]}-{pins[i]}", "bridge",
            bridges=[(pins[i + 1], pins[i])],
        )
    if pins:
        for node in network.node_names():
            consider(f"br:{node}-{pins[0]}", "bridge", bridges=[(node, pins[0])])

    return defects
