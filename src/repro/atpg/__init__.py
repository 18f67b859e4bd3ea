"""SAT-based ATPG: exact test generation and undetectability proofs.

Undetectability is the paper's central measurement, so every fault's
detection condition is decided *exactly*: the condition is encoded to CNF
(:mod:`repro.atpg.cnf`) and decided by a CDCL solver built from scratch
(:mod:`repro.atpg.sat`).  The engine (:mod:`repro.atpg.engine`) runs the
usual industrial flow — random-pattern fault simulation first, then
deterministic SAT per remaining fault class, with test set compaction.
"""

from repro.atpg.sat import Solver, SAT, UNSAT, UNKNOWN
from repro.atpg.budget import AtpgBudget
from repro.atpg.cnf import DetectionEncoder
from repro.atpg.engine import AtpgResult, run_atpg
from repro.atpg.compaction import compact_tests

__all__ = [
    "Solver",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "AtpgBudget",
    "DetectionEncoder",
    "AtpgResult",
    "run_atpg",
    "compact_tests",
]
