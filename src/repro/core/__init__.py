"""The paper's contribution: undetectable-fault clustering analysis and
the two-phase, constraint-aware resynthesis procedure.

* :mod:`repro.core.clustering` — Section II: partition undetectable
  faults into subsets of structurally adjacent faults; S_max, G_max, G_U.
* :mod:`repro.core.flow` — one iteration of the design flow
  (synthesis -> physical design -> DFM fault extraction -> ATPG ->
  clustering) bundled as a :class:`DesignState`.
* :mod:`repro.core.resynthesis` — Section III-B: the two-phase iterative
  procedure with cell-exclusion ordering, acceptance criteria, p1/p2
  cluster-size targets and the q = 0..5 constraint schedule.
* :mod:`repro.core.backtracking` — Section III-C: sqrt(n)-group
  backtracking over the replacement gate set when design constraints are
  violated.
* :mod:`repro.core.metrics` — the rows of Tables I and II.
"""

from repro.core.clustering import (
    ClusterReport,
    cluster_undetectable,
    are_adjacent,
)
from repro.core.flow import (
    DesignState,
    analyze_design,
    classify_internal,
)
from repro.core.backtracking import backtrack_resynthesis
from repro.core.resynthesis import (
    IterationRecord,
    ResynthesisConfig,
    ResynthesisResult,
    resynthesize_for_coverage,
)
from repro.core.metrics import table1_row, table2_row

__all__ = [
    "ClusterReport",
    "cluster_undetectable",
    "are_adjacent",
    "DesignState",
    "analyze_design",
    "classify_internal",
    "backtrack_resynthesis",
    "IterationRecord",
    "ResynthesisConfig",
    "ResynthesisResult",
    "resynthesize_for_coverage",
    "table1_row",
    "table2_row",
]
