"""One iteration of the design flow, bundled as a :class:`DesignState`.

``analyze_design`` runs: physical design (on a fixed floorplan when
given) -> DFM fault extraction (internal + external) -> exact ATPG ->
clustering of the undetectable faults.  The resynthesis procedure
(Section III) moves between design states, comparing their metrics.

``count_undetectable_internal`` is the cheap pre-physical-design check of
Section III-B: "PDesign() is called only when the number of undetectable
internal faults decreases in the resynthesized circuit" — internal
faults do not depend on placement and routing, so they can be classified
on the netlist alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.atpg.budget import AtpgBudget
from repro.atpg.compaction import TestPair
from repro.atpg.engine import AtpgResult, run_atpg
from repro.core.clustering import (
    ClusterReport,
    cluster_undetectable,
    cluster_undetectable_incremental,
)
from repro.dfm.guidelines import Guideline
from repro.dfm.translate import build_fault_set
from repro.faults.collapse import behaviour_key
from repro.faults.model import Fault
from repro.faults.sites import FaultSet, enumerate_internal_faults
from repro.library.osu018 import Library
from repro.netlist.circuit import Circuit
from repro.physical.floorplan import Floorplan
from repro.physical.pdesign import PhysicalDesign, pdesign
from repro.physical.placement import PlacementError
from repro.utils.observability import EngineStats


@dataclass
class DesignState:
    """A placed-and-routed design plus its complete DFM fault analysis."""

    circuit: Circuit
    physical: PhysicalDesign
    fault_set: FaultSet
    atpg: AtpgResult
    clusters: ClusterReport
    # Wall-clock per analysis stage (pdesign / fault extraction / ATPG /
    # clustering), filled by :func:`analyze_design`.
    timings: Dict[str, float] = field(default_factory=dict)
    # (undetectable, detected) behaviour keys, built on first use.  A
    # state's fault set and verdicts never change after construction,
    # so the memo cannot go stale.
    _keys: Optional[Tuple[FrozenSet, FrozenSet]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def stats(self) -> EngineStats:
        """Engine effort counters of the ATPG run (see EngineStats)."""
        return self.atpg.stats

    @property
    def n_faults(self) -> int:
        return len(self.fault_set)

    @property
    def undetectable_faults(self) -> List[Fault]:
        return [
            f for f in self.fault_set
            if f.fault_id in self.atpg.undetectable
        ]

    @property
    def u_total(self) -> int:
        return len(self.atpg.undetectable)

    @property
    def u_internal(self) -> int:
        return sum(
            1 for f in self.fault_set.internal
            if f.fault_id in self.atpg.undetectable
        )

    @property
    def u_external(self) -> int:
        return self.u_total - self.u_internal

    @property
    def n_aborted(self) -> int:
        """Faults whose SAT decision ran out of its resource budget."""
        return len(self.atpg.aborted)

    @property
    def u_upper(self) -> int:
        """Upper bound on U: proved undetectable plus unclassified.

        The conservative quantity acceptance decisions compare against —
        an aborted fault might still be undetectable, so a candidate
        only improves on a reference when even its *pessimistic* U does.
        Equal to :attr:`u_total` when nothing aborted.
        """
        return self.u_total + self.n_aborted

    @property
    def degraded(self) -> bool:
        """True when this analysis carries any abort/approximation."""
        return bool(self.atpg.aborted) or self.atpg.approximate

    @property
    def coverage(self) -> float:
        return self.atpg.coverage

    @property
    def smax_size(self) -> int:
        return len(self.clusters.smax)

    @property
    def smax_fraction_of_f(self) -> float:
        """|S_max| / |F| — the paper's %Smax_all (as a fraction)."""
        if self.n_faults == 0:
            return 0.0
        return self.smax_size / self.n_faults

    @property
    def tests(self) -> List[TestPair]:
        return self.atpg.tests

    def _behaviour_keys(self) -> Tuple[FrozenSet, FrozenSet]:
        if self._keys is None:
            undetectable, detected = self.atpg.undetectable, self.atpg.detected
            self._keys = (
                frozenset(
                    behaviour_key(f) for f in self.fault_set
                    if f.fault_id in undetectable
                ),
                frozenset(
                    behaviour_key(f) for f in self.fault_set
                    if f.fault_id in detected
                ),
            )
        return self._keys

    def undetectable_behaviour_keys(self) -> FrozenSet:
        """Behaviour keys of the undetectable faults (computed once).

        Detection is a functional property, so these verdicts remain
        valid on any functionally-equivalent revision of the circuit in
        which the key's referenced gate/net names survive unchanged
        (replaced-region objects get fresh names and never match) — the
        sound status-inheritance used to make resynthesis iterations
        cheap.
        """
        return self._behaviour_keys()[0]

    def detected_behaviour_keys(self) -> FrozenSet:
        """Behaviour keys of the detected faults (computed once).

        Same soundness argument as
        :meth:`undetectable_behaviour_keys`: the replacement region and
        its substitute are pointwise functionally equivalent, so a fault
        whose key references only surviving names forces identical
        values on every surviving net under any input — its detected
        verdict (and undetectable alike) carries over.
        """
        return self._behaviour_keys()[1]

    @property
    def delay(self) -> float:
        return self.physical.delay

    @property
    def power(self) -> float:
        return self.physical.total_power


def analyze_design(
    circuit: Circuit,
    library: Library,
    floorplan: Optional[Floorplan] = None,
    seed: int = 0,
    utilization: float = 0.70,
    guidelines: Optional[Sequence[Guideline]] = None,
    initial_tests: Optional[Sequence[TestPair]] = None,
    atpg_seed: int = 0,
    assume_undetectable: Optional[AbstractSet] = None,
    assume_detected: Optional[AbstractSet] = None,
    physical: Optional[PhysicalDesign] = None,
    prev: Optional[DesignState] = None,
    internal_atpg: Optional[AtpgResult] = None,
    stats: Optional[EngineStats] = None,
    budget: Optional[AtpgBudget] = None,
) -> DesignState:
    """Run physical design + DFM fault extraction + ATPG + clustering.

    *budget* bounds each per-fault SAT decision (default: from the
    ``REPRO_ATPG_*`` environment; unlimited when unset).  Aborted faults
    surface on ``state.atpg.aborted`` / ``state.n_aborted`` and are
    excluded from U and from the clusters — clustering only partitions
    *proved* undetectable faults, so S_max never grows from a give-up.

    *initial_tests*, *assume_undetectable* and *assume_detected*
    (behaviour keys from a previous functionally-equivalent design
    state) make re-analysis after a local resynthesis step cheap; see
    :meth:`DesignState.undetectable_behaviour_keys`.  A precomputed
    *physical* design (e.g. from an early constraint check) is reused
    instead of placing and routing again.

    *prev* is how a candidate is re-analyzed after a local replacement
    (``replace_subcircuit`` of a functionally-equivalent region): it
    inherits *prev*'s detected and undetectable verdicts (by behaviour
    key) and its test set, unless given explicitly, and nothing else.
    Only faults whose keys name the replaced region are re-proved, and
    the undetectable clusters are updated via union-find deltas instead
    of re-clustered.  U, the verdicts and the clusters equal those of a
    from-scratch analysis of the same circuit and layout; the test set
    T does not, because ATPG starts from the inherited tests and
    compacts them.

    *internal_atpg* is the candidate's own pre-PDesign internal
    classification (see :func:`classify_internal`); its verdicts seed
    the assume sets and its tests the initial test set, so the internal
    ATPG work is not repeated.

    Per-stage wall times land in ``DesignState.timings``; engine
    counters in ``DesignState.stats`` (pass *stats* to accumulate into a
    caller-owned instance).

    Raises :class:`~repro.physical.placement.PlacementError` if the
    circuit does not fit *floorplan* (a die-area constraint violation).
    """
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    if physical is None:
        physical = pdesign(
            circuit, library.cells, floorplan=floorplan, seed=seed,
            utilization=utilization,
        )
    timings["pdesign"] = time.perf_counter() - t0

    assume_undet = assume_undetectable or None
    assume_det = assume_detected or None
    if prev is not None:
        if assume_undet is None:
            assume_undet = prev.undetectable_behaviour_keys()
        if assume_det is None:
            assume_det = prev.detected_behaviour_keys()
        if initial_tests is None:
            initial_tests = prev.tests

    t0 = time.perf_counter()
    fault_set = build_fault_set(
        circuit, library, physical.layout, guidelines, stats=stats,
    )
    timings["fault_extraction"] = time.perf_counter() - t0

    if internal_atpg is not None:
        # Copies: the given (or inherited, memoized) key sets stay as
        # they are.
        assume_undet = set(assume_undet or ())
        assume_det = set(assume_det or ())
        for f in fault_set.internal:
            if f.fault_id in internal_atpg.undetectable:
                assume_undet.add(behaviour_key(f))
            elif f.fault_id in internal_atpg.detected:
                assume_det.add(behaviour_key(f))
        initial_tests = list(internal_atpg.tests) + list(initial_tests or [])

    t0 = time.perf_counter()
    atpg = run_atpg(
        circuit, library.cells, fault_set.faults,
        seed=atpg_seed, initial_tests=initial_tests,
        assume_undetectable=assume_undet,
        assume_detected=assume_det,
        stats=stats,
        budget=budget,
    )
    timings["atpg"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    undetectable = [
        f for f in fault_set if f.fault_id in atpg.undetectable
    ]
    if prev is not None:
        clusters = cluster_undetectable_incremental(
            circuit, undetectable, prev.circuit, prev.clusters,
            stats=atpg.stats,
        )
    else:
        clusters = cluster_undetectable(circuit, undetectable)
    timings["clustering"] = time.perf_counter() - t0
    return DesignState(
        circuit=circuit,
        physical=physical,
        fault_set=fault_set,
        atpg=atpg,
        clusters=clusters,
        timings=timings,
    )


def classify_internal(
    circuit: Circuit,
    library: Library,
    initial_tests: Optional[Sequence[TestPair]] = None,
    atpg_seed: int = 0,
    assume_undetectable: Optional[AbstractSet] = None,
    assume_detected: Optional[AbstractSet] = None,
    stats: Optional[EngineStats] = None,
    budget: Optional[AtpgBudget] = None,
) -> AtpgResult:
    """Classify the internal faults of the bare netlist (no compaction).

    This is the fast pre-PDesign check of Section III-B: internal faults
    only depend on the netlist, not on placement/routing.  The returned
    :class:`AtpgResult` can be fed back into :func:`analyze_design` as
    *internal_atpg* so the full analysis of an accepted candidate does
    not re-prove the internal verdicts.
    """
    internal = enumerate_internal_faults(circuit, library)
    return run_atpg(
        circuit, library.cells, internal,
        seed=atpg_seed, initial_tests=initial_tests, compaction=False,
        assume_undetectable=assume_undetectable,
        assume_detected=assume_detected,
        stats=stats,
        budget=budget,
    )


def count_undetectable_internal(
    circuit: Circuit,
    library: Library,
    initial_tests: Optional[Sequence[TestPair]] = None,
    atpg_seed: int = 0,
    assume_undetectable: Optional[AbstractSet] = None,
    assume_detected: Optional[AbstractSet] = None,
) -> int:
    """Number of undetectable internal faults of the bare netlist."""
    atpg = classify_internal(
        circuit, library,
        initial_tests=initial_tests, atpg_seed=atpg_seed,
        assume_undetectable=assume_undetectable,
        assume_detected=assume_detected,
    )
    return len(atpg.undetectable)
