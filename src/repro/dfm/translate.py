"""Translation of DFM violations into gate-level logic faults.

Following Section II of the paper: "We obtain a set of faults F by
translating violations of DFM guidelines into likely shorts and opens
inside and outside cells.  We then translate the corresponding systematic
defects into related stuck-at faults, transition faults, bridging faults
and cell-aware faults modeled by UDFM."

External translation rules:

* likely **open** (via / long-wire / crossing-stress / low-density site)
  -> one stuck-at fault plus one transition fault at the site.  The
  polarity/direction is chosen deterministically per site (a floating
  node settles one way; which way depends on local topology we do not
  model, so a stable hash stands in for it).  Opens at a pin-access via
  affect only that branch; opens on the stem affect the whole net.
* likely **short** (parallel-run / via-near-metal / high-density site)
  -> one dominant bridging fault per short site; which net is the
  victim is chosen by a stable hash of the site (it stands in for the
  drive strengths that decide which driver wins).

Internal faults come from the per-cell defect enumeration
(:func:`repro.faults.sites.enumerate_internal_faults`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.dfm.checker import BRIDGE, LayoutViolation, OPEN, check_layout
from repro.faults.model import (
    BridgingFault,
    Fault,
    StuckAtFault,
    TransitionFault,
    FALL,
    RISE,
)
from repro.faults.sites import FaultSet, enumerate_internal_faults
from repro.library.osu018 import Library
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.physical.layout import Layout


from repro.utils.hashing import stable_hash as _stable_hash


def external_faults_from_violations(
    circuit: Circuit, violations: Iterable[LayoutViolation]
) -> List[Fault]:
    """Translate layout violations into external faults on *circuit*."""
    faults: List[Fault] = []
    seen: set = set()
    for v in violations:
        if v.net in (CONST0, CONST1):
            continue
        x, y = v.location
        if v.kind == BRIDGE and v.other_net is not None:
            pair = "|".join(sorted((v.net, v.other_net)))
            site = f"{v.guideline}:{pair}:{x}:{y}"
        else:
            site = f"{v.guideline}:{v.net}:{x}:{y}"
        if site in seen:
            continue
        seen.add(site)
        if v.kind == OPEN:
            branch: Optional[Tuple[str, str]] = None
            if v.owner is not None and v.owner[1]:
                branch = v.owner
            sa_value = _stable_hash("pol:" + site) & 1
            slow_to = RISE if _stable_hash("dir:" + site) & 1 else FALL
            loc = f"{x}.{y}"
            faults.append(StuckAtFault(
                fault_id=f"sa{sa_value}:{v.net}@{loc}:{v.guideline}",
                guideline=v.guideline,
                net=v.net, value=sa_value, branch=branch,
            ))
            faults.append(TransitionFault(
                fault_id=f"tr-{slow_to}:{v.net}@{loc}:{v.guideline}",
                guideline=v.guideline,
                net=v.net, slow_to=slow_to, branch=branch,
            ))
        elif v.kind == BRIDGE:
            if v.other_net is None or v.other_net in (CONST0, CONST1):
                continue
            loc = f"{x}.{y}"
            # Dominant bridge: the stronger driver wins; which net
            # dominates depends on drive strengths we approximate with a
            # stable per-site hash, giving one victim per short site.
            a, b = sorted((v.net, v.other_net))
            if _stable_hash("dom:" + site) & 1:
                victim, aggressor = a, b
            else:
                victim, aggressor = b, a
            faults.append(BridgingFault(
                fault_id=f"br:{victim}<{aggressor}@{loc}:{v.guideline}",
                guideline=v.guideline,
                victim=victim, aggressor=aggressor,
            ))
    return faults


def build_fault_set(
    circuit: Circuit,
    library: Library,
    layout: Layout,
) -> FaultSet:
    """Assemble the full DFM fault set F (internal + external).

    Internal fault ids are deterministic in (gate, defect); external
    fault ids embed layout coordinates, which shift with every
    placement.
    """
    fault_set = FaultSet()
    fault_set.extend(enumerate_internal_faults(circuit, library))
    violations = check_layout(layout)
    fault_set.extend(external_faults_from_violations(circuit, violations))
    return fault_set
