"""Power analysis: switching (dynamic) + leakage (static).

Signal probabilities come from a seeded random-pattern bit-parallel
simulation; per-net switching activity is ``2 p (1 - p)`` (the toggle
probability of an uncorrelated sampled signal).  Dynamic power is
activity-weighted capacitance (pins + routed wire); leakage is the sum of
per-cell leakage numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.library.cell import StandardCell
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.netlist.simulator import simulate
from repro.physical.layout import Layout
from repro.physical.timing import net_load_cap
from repro.utils.rng import make_rng

#: Scale factor folding Vdd^2 * f into arbitrary power units.
DYNAMIC_SCALE = 0.05
ACTIVITY_PATTERNS = 256


@dataclass(frozen=True)
class PowerReport:
    dynamic: float
    leakage: float

    @property
    def total(self) -> float:
        return self.dynamic + self.leakage


def signal_probabilities(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    seed: int = 0,
    n_patterns: int = ACTIVITY_PATTERNS,
) -> Dict[str, float]:
    """Per-net probability of logic 1 under random inputs."""
    rng = make_rng(seed)
    mask = (1 << n_patterns) - 1
    pi_values = {pi: rng.getrandbits(n_patterns) for pi in circuit.inputs}
    values = simulate(circuit, cells, pi_values, mask)
    return {
        net: bin(v).count("1") / n_patterns for net, v in values.items()
    }


def power_analysis(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    layout: Layout,
    seed: int = 0,
) -> PowerReport:
    """Total power of the placed-and-routed design."""
    probs = signal_probabilities(circuit, cells, seed=seed)
    lengths = layout.net_lengths()
    dynamic = 0.0
    for net, p in probs.items():
        if net in (CONST0, CONST1):
            continue
        activity = 2.0 * p * (1.0 - p)
        cap = net_load_cap(circuit, cells, lengths[net], net)
        drv = circuit.driver(net)
        if drv is not None:
            # Include the driving cell's own output capacitance proxy.
            cap += cells[circuit.gates[drv].cell].input_cap
        dynamic += activity * cap
    # An explicit left-to-right loop, not sum(): from Python 3.12 sum()
    # compensates float rounding, which would move the last bits of the
    # leakage (and every power ratio) with the interpreter version.
    leakage = 0.0
    for g in circuit:
        leakage += cells[g.cell].leakage
    return PowerReport(dynamic=dynamic * DYNAMIC_SCALE, leakage=leakage)
