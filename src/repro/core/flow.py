"""One iteration of the design flow, bundled as a :class:`DesignState`.

``analyze_design`` runs: physical design (unless a finished one is
given) -> DFM fault extraction (internal + external) -> exact ATPG ->
clustering of the undetectable faults.  The resynthesis procedure
(Section III) moves between design states, comparing their metrics.

``classify_internal`` is the cheap pre-physical-design check of Section
III-B: "PDesign() is called only when the number of undetectable
internal faults decreases in the resynthesized circuit" — internal
faults do not depend on placement and routing, so they can be classified
on the netlist alone.

A resynthesis candidate inherits from its parent state one way: both
functions take the parent as *prev* and start ATPG from its tests and
its verdicts, by behaviour key.  Nothing else is inherited; clustering
always starts from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.atpg.compaction import TestPair
from repro.atpg.engine import AtpgResult, run_atpg
from repro.core.clustering import ClusterReport, cluster_undetectable
from repro.dfm.translate import build_fault_set
from repro.faults.collapse import behaviour_key
from repro.faults.model import Fault
from repro.faults.sites import FaultSet, enumerate_internal_faults
from repro.library.osu018 import Library
from repro.netlist.circuit import Circuit
from repro.physical.pdesign import PhysicalDesign, pdesign
from repro.utils.observability import EngineStats

# Not called: the benchmark's tracer (perfbench/spans.py) still wraps
# this name and raises on a missing one.  ROADMAP item 5's benchmark
# change drops it from the tracer's WRAPS; the next change to src/ then
# deletes this line.
cluster_undetectable_incremental = cluster_undetectable


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
        """Effort counters of this analysis's ATPG run (see EngineStats)."""
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


def _inherited(
    prev: Optional[DesignState],
) -> Tuple[Optional[Sequence[TestPair]], Optional[AbstractSet],
           Optional[AbstractSet]]:
    """What a child of *prev* starts from: its tests and its
    undetectable and detected behaviour keys (nothing without *prev*)."""
    if prev is None:
        return None, None, None
    return (
        prev.tests,
        prev.undetectable_behaviour_keys(),
        prev.detected_behaviour_keys(),
    )


def analyze_design(
    circuit: Circuit,
    library: Library,
    seed: int = 0,
    atpg_seed: int = 0,
    physical: Optional[PhysicalDesign] = None,
    prev: Optional[DesignState] = None,
    internal_atpg: Optional[AtpgResult] = None,
) -> DesignState:
    """Run physical design + DFM fault extraction + ATPG + clustering.

    Each per-fault SAT decision is bounded by the ``REPRO_ATPG_*``
    environment budget (unlimited when unset; see
    :class:`~repro.atpg.budget.AtpgBudget`).  Aborted faults surface on
    ``state.atpg.aborted`` / ``state.n_aborted`` and are excluded from U
    and from the clusters — clustering only partitions *proved*
    undetectable faults, so S_max never grows from a give-up.

    Without *physical*, the circuit is placed and routed on a new die
    sized at the paper's 70% utilization.  A precomputed *physical*
    design (from the resynthesis procedure's constraint check, or a
    placement on a fixed floorplan) is reused instead of placing and
    routing again.

    *prev* is how a candidate is re-analyzed after a local replacement
    (``replace_subcircuit`` of a functionally-equivalent region).  It
    only seeds ATPG: the run starts from *prev*'s test set and its
    detected and undetectable verdicts (by behaviour key, see
    :meth:`DesignState.undetectable_behaviour_keys`), so only faults
    whose keys name the replaced region are re-proved.  The undetectable
    faults are clustered from scratch, as without *prev*.  U, the
    verdicts and the clusters equal those of a from-scratch analysis of
    the same circuit and layout; the test set T does not, because ATPG
    starts from the inherited tests and compacts them.

    *internal_atpg* is the candidate's own pre-PDesign internal
    classification (see :func:`classify_internal`); its verdicts add to
    the inherited ones and its tests to the initial test set, so the
    internal ATPG work is not repeated.

    Per-stage wall times land in ``DesignState.timings``.  The engine
    counters in ``DesignState.stats`` are this analysis's own: its ATPG
    run's effort, with ``faults_extracted`` set to the size of F.  The
    internal classification behind *internal_atpg* is not included.
    """
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    if physical is None:
        physical = pdesign(circuit, library.cells, seed=seed)
    timings["pdesign"] = time.perf_counter() - t0

    initial_tests, assume_undet, assume_det = _inherited(prev)

    t0 = time.perf_counter()
    fault_set = build_fault_set(circuit, library, physical.layout)
    timings["fault_extraction"] = time.perf_counter() - t0

    if internal_atpg is not None:
        # Copies: the inherited (memoized) key sets stay as they are.
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
    )
    timings["atpg"] = time.perf_counter() - t0
    atpg.stats.faults_extracted = len(fault_set)
    t0 = time.perf_counter()
    undetectable = [
        f for f in fault_set if f.fault_id in atpg.undetectable
    ]
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
    prev: Optional[DesignState] = None,
    atpg_seed: int = 0,
) -> AtpgResult:
    """Classify the internal faults of the bare netlist (no compaction).

    This is the fast pre-PDesign check of Section III-B: internal faults
    only depend on the netlist, not on placement/routing.  A candidate
    inherits from its parent *prev* exactly as in :func:`analyze_design`.
    The returned :class:`AtpgResult` can be fed back into
    :func:`analyze_design` as *internal_atpg* so the full analysis of an
    accepted candidate does not re-prove the internal verdicts.
    """
    initial_tests, assume_undet, assume_det = _inherited(prev)
    internal = enumerate_internal_faults(circuit, library)
    return run_atpg(
        circuit, library.cells, internal,
        seed=atpg_seed, initial_tests=initial_tests, compaction=False,
        assume_undetectable=assume_undet,
        assume_detected=assume_det,
    )
